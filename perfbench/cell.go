package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/envelope"
	"repro/internal/nfsproto"
	"repro/internal/server"
	"repro/internal/simnet"
	"repro/internal/store"
)

const cellSize = 3

// cell is the configuration deceitd ships, three servers in this process:
// zero-valued server.New options, simnet.ListenTCP inter-server transports
// and one store.LogStore per server in a directory on local disk, which
// fsyncs once per group commit. The transports and stores are wrapped only
// to count and time the calls the servers make into them.
type cell struct {
	servers []*server.Server
	nets    []*netCounter
	stores  []*storeCounter
	nfs     []string
}

func bootCell(dir string, spans *spanLog) (*cell, error) {
	c := &cell{}
	var peers []simnet.NodeID
	for i := 0; i < cellSize; i++ {
		tr, err := simnet.ListenTCP("127.0.0.1:0")
		if err != nil {
			c.stop()
			return nil, err
		}
		c.nets = append(c.nets, &netCounter{Transport: tr, server: i, spans: spans})
		peers = append(peers, tr.Local())
	}
	for i := 0; i < cellSize; i++ {
		ls, err := store.OpenLog(filepath.Join(dir, fmt.Sprintf("store%d", i)), store.LogOptions{})
		if err != nil {
			c.stop()
			return nil, err
		}
		c.stores = append(c.stores, &storeCounter{LogStore: ls, server: i, spans: spans})
	}
	for i := 0; i < cellSize; i++ {
		srv, err := server.New(server.Config{
			Transport: c.nets[i],
			Peers:     peers,
			Store:     c.stores[i],
			InitRoot:  i == 0,
		})
		if err != nil {
			c.stop()
			return nil, fmt.Errorf("boot server %d: %w", i, err)
		}
		c.servers = append(c.servers, srv)
		addr, err := srv.ServeNFS("127.0.0.1:0")
		if err != nil {
			c.stop()
			return nil, err
		}
		c.nfs = append(c.nfs, addr)
	}
	return c, nil
}

// stop shuts every server down but leaves the stores open and untouched, so
// the durability check sees exactly what the servers left on disk.
func (c *cell) stop() {
	for _, s := range c.servers {
		s.Close()
	}
	c.servers = nil
	for _, n := range c.nets {
		_ = n.Close()
	}
}

func (c *cell) closeStores() {
	for _, s := range c.stores {
		_ = s.Close()
	}
}

// fileSet is the prepopulated directory of one workload.
type fileSet struct {
	dir     nfsproto.Handle
	handles []nfsproto.Handle
	segs    []core.SegID
	hdrSize int64 // bytes of envelope header in front of each file's data
}

// prepopulate creates the workload's files through server 0's envelope with
// MinReplicas=2 (every other parameter the core default) and writes every
// block with its sequence-0 stamp.
func prepopulate(ctx context.Context, c *cell, w workload) (*fileSet, error) {
	ev := c.servers[0].Envelope()
	sa := nfsproto.SAttr{Mode: 0o755, UID: nfsproto.NoValue, GID: nfsproto.NoValue,
		Size: nfsproto.NoValue, ATime: nfsproto.NoTime, MTime: nfsproto.NoTime}
	dir, _, err := ev.Mkdir(ctx, ev.Root(), "bench", sa)
	if err != nil {
		return nil, fmt.Errorf("mkdir: %w", err)
	}
	fs := &fileSet{dir: dir, handles: make([]nfsproto.Handle, w.files), segs: make([]core.SegID, w.files)}
	params := core.DefaultParams()
	params.MinReplicas = 2
	sa.Mode = 0o644
	for f := 0; f < w.files; f++ {
		h, _, err := ev.Create(ctx, dir, fileName(f), sa)
		if err != nil {
			return nil, fmt.Errorf("create %s: %w", fileName(f), err)
		}
		seg, _, _ := envelope.UnpackHandle(h)
		fs.handles[f], fs.segs[f] = h, seg
	}
	// Files are independent groups, so their parameters and contents are
	// written concurrently; a few workers keep the group commits overlapped.
	errs := make(chan error, w.files)
	next := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			data := make([]byte, w.fileSize)
			for f := range next {
				if err := c.servers[0].Core().SetParams(ctx, fs.segs[f], params); err != nil {
					errs <- fmt.Errorf("setparams %s: %w", fileName(f), err)
					continue
				}
				for b := 0; b < w.blocksPerFile(); b++ {
					stampBlock(data[b*w.block:(b+1)*w.block], f, b, 0)
				}
				if _, err := ev.Write(ctx, fs.handles[f], 0, data); err != nil {
					errs <- fmt.Errorf("write %s: %w", fileName(f), err)
				}
			}
		}()
	}
	for f := 0; f < w.files; f++ {
		next <- f
	}
	close(next)
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return nil, err
	}
	if err := waitReplicated(ctx, c, fs); err != nil {
		return nil, err
	}
	raw, _, err := c.servers[0].Core().Read(ctx, fs.segs[0], 0, 0, -1)
	if err != nil {
		return nil, err
	}
	fs.hdrSize = int64(len(raw) - w.fileSize)
	return fs, nil
}

// waitReplicated waits until every file's current version is stable on at
// least MinReplicas servers. The second replica of each file is made in the
// background after its first write; without the wait, those transfers would
// run inside the first timed phase.
func waitReplicated(ctx context.Context, c *cell, fs *fileSet) error {
	deadline := time.Now().Add(30 * time.Second)
	for _, seg := range fs.segs {
		for {
			info, err := c.servers[0].Core().Stat(ctx, seg)
			if err != nil {
				return err
			}
			if replicated(info) {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("segment %v never reached %d stable replicas", seg, info.Params.MinReplicas)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

func replicated(info core.SegInfo) bool {
	for _, v := range info.Versions {
		if v.Major == info.Current {
			return !v.Unstable && len(v.Replicas) >= info.Params.MinReplicas
		}
	}
	return false
}

// netCounter wraps one server's inter-server transport and splits its sends
// by the demux channel byte: 0 carries isis, 1 the direct channel.
type netCounter struct {
	simnet.Transport
	server int
	spans  *spanLog

	msgs   [2]atomic.Uint64
	bytes  [2]atomic.Uint64
	sendNs atomic.Int64
}

func (n *netCounter) Send(to simnet.NodeID, data []byte) error {
	t0 := time.Now()
	err := n.Transport.Send(to, data)
	d := time.Since(t0)
	n.sendNs.Add(int64(d))
	if len(data) > 0 && data[0] < 2 {
		n.msgs[data[0]].Add(1)
		n.bytes[data[0]].Add(uint64(len(data)))
	}
	n.spans.add(span{Name: "simnet.send", Server: n.server}, t0, d)
	return err
}

// storeCounter wraps one server's LogStore: it times every group commit,
// counts what was persisted, and remembers the store's state as of the last
// commit it saw return, which is where the durability check cuts the log.
type storeCounter struct {
	*store.LogStore
	server int
	spans  *spanLog

	commits atomic.Uint64
	bytes   atomic.Uint64
	busyNs  atomic.Int64

	mu          sync.Mutex
	last        store.LogStats
	checkpoints int
	lat         []time.Duration // commit latencies, kept while recording
	recording   bool
}

func (s *storeCounter) Put(bucket, key string, val []byte) error {
	return s.PutBatch([]store.Op{{Bucket: bucket, Key: key, Val: val}})
}

func (s *storeCounter) Delete(bucket, key string) error {
	return s.PutBatch([]store.Op{{Bucket: bucket, Key: key, Delete: true}})
}

func (s *storeCounter) PutBatch(ops []store.Op) error {
	t0 := time.Now()
	err := s.LogStore.PutBatch(ops)
	d := time.Since(t0)
	s.spans.add(span{Name: "store.commit", Server: s.server}, t0, d)
	if err != nil {
		return err
	}
	n := 0
	for _, op := range ops {
		n += len(op.Bucket) + len(op.Key) + len(op.Val)
	}
	s.commits.Add(1)
	s.bytes.Add(uint64(n))
	s.busyNs.Add(int64(d))
	st := s.LogStore.Stats()
	s.mu.Lock()
	if st.Seq > s.last.Seq {
		if st.CheckpointSeq != s.last.CheckpointSeq {
			s.checkpoints++
		}
		s.last = st
	}
	if s.recording {
		s.lat = append(s.lat, d)
	}
	s.mu.Unlock()
	return err
}

// lastSeen returns the store state as of the last commit seen to return.
func (s *storeCounter) lastSeen() store.LogStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last
}
