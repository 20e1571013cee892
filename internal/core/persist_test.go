package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
)

// recStore wraps a Store and records the shape of every op committed
// through it, so tests can see what each cast persisted.
type recStore struct {
	store.Store
	mu  sync.Mutex
	ops []recOp
}

type recOp struct {
	bucket, key string
	patch, del  bool
	off         int64
	n           int // value bytes
}

func (r *recStore) Put(bucket, key string, val []byte) error {
	return r.PutBatch([]store.Op{{Bucket: bucket, Key: key, Val: val}})
}

func (r *recStore) Delete(bucket, key string) error {
	return r.PutBatch([]store.Op{{Bucket: bucket, Key: key, Delete: true}})
}

func (r *recStore) PutBatch(ops []store.Op) error {
	if err := r.Store.PutBatch(ops); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, op := range ops {
		r.ops = append(r.ops, recOp{op.Bucket, op.Key, op.Patch, op.Delete, op.Off, len(op.Val)})
	}
	return nil
}

// since returns the ops recorded after the first mark.
func (r *recStore) since(mark int) []recOp {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]recOp(nil), r.ops[mark:]...)
}

func (r *recStore) mark() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ops)
}

// localReplicaOf returns a copy of server i's in-memory replica of id's
// major, or nil.
func localReplicaOf(c *testCluster, i int, id SegID, major uint64) *localReplica {
	sg := c.nodes[i].srv.tab.get(id)
	if sg == nil {
		return nil
	}
	sg.mu.Lock()
	defer sg.mu.Unlock()
	rep := sg.local[major]
	if rep == nil {
		return nil
	}
	return &localReplica{data: append([]byte(nil), rep.data...), pair: rep.pair, stable: rep.stable}
}

func sameReplica(a, b *localReplica) bool {
	return a != nil && b != nil && a.pair == b.pair && a.stable == b.stable && bytes.Equal(a.data, b.data)
}

func describe(r *localReplica) string {
	if r == nil {
		return "none"
	}
	return fmt.Sprintf("pair=%v stable=%v len=%d", r.pair, r.stable, len(r.data))
}

// TestPersistedImageMatchesMemory: after a mix of in-place and extending
// writes from both replicas, with stability flips between them, each
// member's persisted image equals its in-memory replica; every data op
// after the checkpoint was a patch; and after both servers restart from
// checkpoint + patch-only log suffix, the recovered replicas equal the
// pre-crash memory.
func TestPersistedImageMatchesMemory(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir()}
	logs := make([]*store.LogStore, 2)
	recs := make([]*recStore, 2)
	stores := make([]store.Store, 2)
	for i, d := range dirs {
		ls, err := store.OpenLog(d, store.LogOptions{CheckpointBytes: -1, NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		logs[i], recs[i] = ls, &recStore{Store: ls}
		stores[i] = recs[i]
	}
	c := newTestClusterOn(t, stores, testISISOpts(), testCoreOpts())
	ctx := ctxT(t, 30*time.Second)
	a, b := c.nodes[0].srv, c.nodes[1].srv

	id, err := a.Create(ctx, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Write(ctx, id, WriteReq{Data: bytes.Repeat([]byte("."), 8<<10)}); err != nil {
		t.Fatal(err)
	}
	if err := a.AddReplica(ctx, id, 0, c.ids[1]); err != nil {
		t.Fatal(err)
	}
	waitStable(t, a, id)
	const major = 1
	marks := make([]int, 2)
	for i, ls := range logs {
		if err := ls.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		marks[i] = recs[i].mark()
	}

	writes := []struct {
		srv  *Server
		off  int
		data string
	}{
		{a, 0, "head"},
		{a, 4000, "middle"},
		{b, 8190, "straddles-the-end"},
		{a, 9000, "past-the-end"},
		{b, 100, "again"},
	}
	for i, w := range writes {
		if _, err := w.srv.Write(ctx, id, WriteReq{Off: int64(w.off), Data: []byte(w.data)}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if i%2 == 1 {
			waitStable(t, a, id)
		}
	}
	waitStable(t, a, id)

	mem := make([]*localReplica, 2)
	for i := range c.nodes {
		waitUntil(t, 5*time.Second, fmt.Sprintf("server %d image matches memory", i), func() bool {
			mem[i] = localReplicaOf(c, i, id, major)
			return sameReplica(c.nodes[i].srv.loadReplica(id, major), mem[i])
		})
		if len(mem[i].data) != 9000+len("past-the-end") {
			t.Fatalf("server %d: replica %s", i, describe(mem[i]))
		}
		for _, op := range recs[i].since(marks[i]) {
			if op.bucket == bucketData && !op.patch {
				t.Fatalf("server %d: data op after checkpoint is not a patch: %+v", i, op)
			}
		}
	}

	// Crash both servers and restart them from their logs.
	for i := range c.nodes {
		c.crash(i)
		logs[i].Close()
	}
	for i, d := range dirs {
		ls, err := store.OpenLog(d, store.LogOptions{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ls.Close() })
		nd := c.restart(i, ls)
		if got := nd.srv.loadReplica(id, major); !sameReplica(got, mem[i]) {
			t.Fatalf("server %d: recovered image %s, memory before crash %s", i, describe(got), describe(mem[i]))
		}
		if got := localReplicaOf(c, i, id, major); !sameReplica(got, mem[i]) {
			t.Fatalf("server %d: recovered replica %s, memory before crash %s", i, describe(got), describe(mem[i]))
		}
	}
}

// TestSmallWritePersistsPatchNotImage: a 512 B write to a 256 KiB replica,
// including the stability flips around it, persists under 4 KiB at each
// member instead of the whole image.
func TestSmallWritePersistsPatchNotImage(t *testing.T) {
	recs := []*recStore{
		{Store: store.NewMemStore(store.WriteSync)},
		{Store: store.NewMemStore(store.WriteSync)},
	}
	c := newTestClusterOn(t, []store.Store{recs[0], recs[1]}, testISISOpts(), testCoreOpts())
	ctx := ctxT(t, 30*time.Second)
	a := c.nodes[0].srv

	id, err := a.Create(ctx, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	const size = 256 << 10
	if _, err := a.Write(ctx, id, WriteReq{Data: make([]byte, size)}); err != nil {
		t.Fatal(err)
	}
	if err := a.AddReplica(ctx, id, 0, c.ids[1]); err != nil {
		t.Fatal(err)
	}
	waitStable(t, a, id)
	marks := []int{recs[0].mark(), recs[1].mark()}

	payload := bytes.Repeat([]byte("w"), 512)
	if _, err := a.Write(ctx, id, WriteReq{Off: 100000, Data: payload}); err != nil {
		t.Fatal(err)
	}
	waitStable(t, a, id)
	for i := range c.nodes {
		waitUntil(t, 5*time.Second, fmt.Sprintf("server %d persists the write and the flip", i), func() bool {
			rep := c.nodes[i].srv.loadReplica(id, 1)
			return rep != nil && rep.stable && len(rep.data) == size && bytes.Equal(rep.data[100000:100512], payload)
		})
		total := 0
		for _, op := range recs[i].since(marks[i]) {
			total += len(op.bucket) + len(op.key) + op.n
		}
		if total >= 4096 {
			t.Fatalf("server %d persisted %d B for a 512 B write: %+v", i, total, recs[i].since(marks[i]))
		}
		t.Logf("server %d persisted %d B", i, total)
	}
}

// TestTransferRacesStabilityFlips adds a replica while the file is
// unstable, so the stability flip lands around the moment the target
// installs the fetched image. Run under -race: the target must persist the
// image under the segment lock (the flip mutates the same replica), and its
// store must end up holding exactly its in-memory replica.
func TestTransferRacesStabilityFlips(t *testing.T) {
	c := newTestClusterCore(t, 2, func(o *Options) { o.StabilityDelay = 3 * time.Millisecond })
	ctx := ctxT(t, 60*time.Second)
	a := c.nodes[0].srv

	id, err := a.Create(ctx, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 6; round++ {
		if _, err := a.Write(ctx, id, WriteReq{Off: int64(round), Data: bytes.Repeat([]byte{byte('a' + round)}, 64<<10)}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Duration(round) * time.Millisecond)
		if err := a.AddReplica(ctx, id, 0, c.ids[1]); err != nil {
			t.Fatalf("round %d: add replica: %v", round, err)
		}
		waitStable(t, a, id)
		waitUntil(t, 5*time.Second, "target image matches memory", func() bool {
			mem := localReplicaOf(c, 1, id, 1)
			return mem != nil && sameReplica(c.nodes[1].srv.loadReplica(id, 1), mem)
		})
		if err := a.RemoveReplica(ctx, id, 0, c.ids[1]); err != nil {
			t.Fatalf("round %d: remove replica: %v", round, err)
		}
		waitUntil(t, 5*time.Second, "target replica removed", func() bool {
			return localReplicaOf(c, 1, id, 1) == nil && c.nodes[1].srv.loadReplica(id, 1) == nil
		})
	}
}
