package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/agent"
)

// span is one timed call across a layer boundary. Client spans (Server -1)
// carry a request ID that the probe spans they caused share; store and
// transport spans cannot see a request from outside the program, so they are
// recorded per server with no request.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Server int    `json:"server"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory while on; they are written out when the run
// ends. A nil *spanLog records nothing.
type spanLog struct {
	t0    time.Time
	on    atomic.Bool
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(s span, start time.Time, d time.Duration) uint64 {
	if l == nil || !l.on.Load() {
		return 0
	}
	s.ID = l.ids.Add(1)
	if s.Req == 0 && s.Server < 0 {
		s.Req = s.ID // a client span roots its own request
	}
	s.Start = start.Sub(l.t0).Nanoseconds()
	s.End = s.Start + d.Nanoseconds()
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
	return s.ID
}

// spanSummary is the per-name roll-up written beside the spans.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
	P50MS   float64 `json:"p50_ms"`
}

// selfTimes rolls spans up by name. A span's self time is its duration minus
// the part of its interval that its child spans cover.
func selfTimes(spans []span) []spanSummary {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	type acc struct {
		total, self int64
		durs        []time.Duration
	}
	by := map[string]*acc{}
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &acc{}
			by[s.Name] = a
		}
		d := s.End - s.Start
		a.total += d
		a.self += d - covered(s, children[s.ID])
		a.durs = append(a.durs, time.Duration(d))
	}
	var out []spanSummary
	for name, a := range by {
		sortDurations(a.durs)
		out = append(out, spanSummary{Name: name, Count: len(a.durs), TotalMS: float64(a.total) / 1e6,
			SelfMS: float64(a.self) / 1e6, P50MS: ms(quantile(a.durs, 0.5))})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns how much of parent's interval the children cover.
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	for _, v := range ivs {
		if v.a < end {
			v.a = end
		}
		if v.a < v.b {
			total += v.b - v.a
			end = v.b
		}
	}
	return total
}

// writeTrace writes the spans as JSON lines and their roll-up as one JSON
// document.
func (l *spanLog) writeTrace(spansPath, summaryPath string) ([]spanSummary, error) {
	f, err := os.Create(spansPath)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return nil, err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	sum := selfTimes(l.spans)
	raw, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return nil, err
	}
	return sum, os.WriteFile(summaryPath, raw, 0o644)
}

// prober calls the envelope and core layers directly, while it is on, at
// probeRate rounds per second whatever the workload's rate. A round takes
// the file and block of the client op that just finished and runs under
// that op's request ID. Rounds cycle through a read round (envelope.Read,
// core.Read, core.Lease), a stamped envelope.Write, and an
// envelope.Getattr, on the server the op's connection is mounted on.
type prober struct {
	d      *load
	c      *cell
	on     atomic.Bool
	next   atomic.Int64 // unix nanoseconds before which no round starts
	rounds atomic.Uint64
	wg     sync.WaitGroup

	mu  sync.Mutex
	lat map[string][]time.Duration
	bad int // probe reads that returned a block that is not a known write
}

const probeRate = 4

func (p *prober) after(r *opRec) {
	req := p.d.spans.add(span{Name: "agent." + r.op.kind.String(), Server: -1}, r.issued, r.finished.Sub(r.issued))
	if req == 0 || !p.on.Load() {
		return
	}
	now, next := time.Now().UnixNano(), p.next.Load()
	if now < next || !p.next.CompareAndSwap(next, now+int64(time.Second/probeRate)) {
		return
	}
	i := p.rounds.Add(1)
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		p.round(r, req, i%3)
	}()
}

func (p *prober) round(r *opRec, req uint64, which uint64) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	w, fs := p.d.w, p.d.fs
	srv := p.c.servers[r.conn]
	h, seg := fs.handles[r.op.file], fs.segs[r.op.file]
	off := uint32(r.op.block * w.block)
	timed := func(name string, fn func() error) {
		t0 := time.Now()
		err := fn()
		d := time.Since(t0)
		p.d.spans.add(span{Name: name, Parent: req, Req: req, Server: r.conn}, t0, d)
		if err == nil {
			p.mu.Lock()
			p.lat[name] = append(p.lat[name], d)
			p.mu.Unlock()
		}
	}
	switch which {
	case 0:
		timed("envelope.read", func() error {
			data, _, err := srv.Envelope().Read(ctx, h, off, uint32(w.block))
			if err == nil {
				p.checkRead(data, r.op.file, r.op.block)
			}
			return err
		})
		timed("core.read", func() error {
			data, _, err := srv.Core().Read(ctx, seg, 0, fs.hdrSize+int64(off), int64(w.block))
			if err == nil {
				p.checkRead(data, r.op.file, r.op.block)
			}
			return err
		})
		timed("core.lease", func() error {
			_, _, err := srv.Core().Lease(ctx, seg)
			return err
		})
	case 1:
		buf := make([]byte, w.block)
		seq := p.d.wlog.begin(r.op.file, r.op.block, time.Now())
		stampBlock(buf, r.op.file, r.op.block, seq)
		timed("envelope.write", func() error {
			_, err := srv.Envelope().Write(ctx, h, off, buf)
			if err == nil {
				p.d.wlog.ack(seq, time.Now())
			}
			return err
		})
	case 2:
		timed("envelope.getattr", func() error {
			_, err := srv.Envelope().Getattr(ctx, h)
			return err
		})
	}
}

func (p *prober) checkRead(data []byte, file, block int) {
	seq, ok := readStamp(data, file, block)
	if !ok || !p.d.wlog.known(file, block, seq) {
		p.mu.Lock()
		p.bad++
		p.mu.Unlock()
	}
}

// snapshot is every layer counter at one instant. Take it only while no op
// is in flight: the agent's counters are plain fields.
type snapshot struct {
	at                             time.Time
	agentCalls, agentHits, agentRV uint64
	sheds                          uint64
	readLocal, readFwd, tokenCasts uint64
	xferBytes                      uint64
	msgs, bytes                    [2]uint64
	sendNs                         int64
	commits, storeBytes            uint64
	busyNs                         int64
	syncs, storeOps                uint64
	checkpoints                    int
	cpu                            time.Duration
	allocs                         uint64
	gcCPU, totalCPU                float64
}

func takeSnapshot(c *cell, ags [2]*agent.Agent) snapshot {
	s := snapshot{at: time.Now()}
	for _, ag := range ags {
		s.agentCalls += ag.Calls
		s.agentHits += ag.CacheHits
		s.agentRV += ag.Revalidations
	}
	for i, srv := range c.servers {
		s.sheds += srv.ShedCount()
		rs, ts := srv.Core().ReadStats(), srv.Core().TransferStats()
		s.readLocal += rs.Local
		s.readFwd += rs.Forwarded
		s.tokenCasts += rs.TokenCasts
		s.xferBytes += ts.BytesOut
		n, st := c.nets[i], c.stores[i]
		for ch := 0; ch < 2; ch++ {
			s.msgs[ch] += n.msgs[ch].Load()
			s.bytes[ch] += n.bytes[ch].Load()
		}
		s.sendNs += n.sendNs.Load()
		s.commits += st.commits.Load()
		s.storeBytes += st.bytes.Load()
		s.busyNs += st.busyNs.Load()
		ls := st.Stats()
		s.syncs += ls.Syncs
		s.storeOps += ls.Ops
		st.mu.Lock()
		s.checkpoints += st.checkpoints
		st.mu.Unlock()
	}
	s.cpu = processCPU()
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	s.allocs = samples[0].Value.Uint64()
	s.gcCPU = samples[1].Value.Float64()
	s.totalCPU = samples[2].Value.Float64()
	return s
}

// processCPU is the user and system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapPeak samples the live heap, as marked by the latest GC, until stop
// closes, and keeps the peak. The live heap, unlike the heap in use, does
// not depend on how far the current GC cycle has run. finish forces one
// more GC, so the state at the end counts however long ago the last GC was.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func watchHeap() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops sampling and returns the peak in MiB.
func (h *heapPeak) finish() float64 {
	close(h.stop)
	<-h.done
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(max(h.peak, s[0].Value.Uint64())) / (1 << 20)
}
