package main

import (
	"errors"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agent"
	"repro/internal/derr"
)

// never stands for the latency of an op that failed or had not finished when
// it was judged: it misses every limit.
const never = time.Duration(math.MaxInt64)

// openLoop issues n arrivals spaced 1/rate apart from t0, calling issue with
// each arrival's index and scheduled time. It never waits for an earlier
// arrival to finish: issue must not block. When it falls behind it issues
// the overdue arrivals at once, so their lateness shows in issue's timing
// and the schedule itself never slips.
func openLoop(t0 time.Time, rate float64, n int, issue func(i int, due time.Time)) {
	for i := 0; i < n; i++ {
		due := t0.Add(time.Duration(float64(i) * float64(time.Second) / rate))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		issue(i, due)
	}
}

// opRec is one arrival. The generator fills it before the op starts; the op
// fills the outcome and then publishes it through done.
type opRec struct {
	op     op
	conn   int
	due    time.Time
	issued time.Time

	finished time.Time
	errClass string // derr category of a failed op; "" on success
	badData  bool   // a read returned a block that is not a known write
	done     atomic.Bool
}

// latency is the op's time from its scheduled arrival to completion, or
// never when it failed or has not completed.
func (r *opRec) latency() time.Duration {
	if !r.done.Load() || r.errClass != "" {
		return never
	}
	return r.finished.Sub(r.due)
}

// writeLog remembers every write issued, acknowledged or not, so any block
// read back can be checked against the writes that could have produced it.
type writeLog struct {
	mu   sync.Mutex
	recs []writeRec // recs[seq-1]
}

type writeRec struct {
	file, block int
	issued      time.Time
	acked       time.Time // zero unless the write returned success
}

func (l *writeLog) begin(file, block int, at time.Time) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.recs = append(l.recs, writeRec{file: file, block: block, issued: at})
	return uint64(len(l.recs))
}

// ack records that write seq returned success at at.
func (l *writeLog) ack(seq uint64, at time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.recs[seq-1].acked = at
}

// known reports whether seq is a write issued to (file, block), counting the
// prepopulated content as sequence 0.
func (l *writeLog) known(file, block int, seq uint64) bool {
	if seq == 0 {
		return true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq > uint64(len(l.recs)) {
		return false
	}
	r := l.recs[seq-1]
	return r.file == file && r.block == block
}

// load runs one workload's ops over the two client connections.
type load struct {
	w     workload
	fs    *fileSet
	ags   [2]*agent.Agent
	wlog  *writeLog
	gen   *opGen
	spans *spanLog
	probe *prober // nil unless tracing

	outstanding [2]atomic.Int64

	// depth samples the calls outstanding on the arrival's connection; only
	// the generator goroutine appends, and only while sampleDepth is set.
	sampleDepth bool
	depth       []int
}

// phase is one fixed-rate stretch of the open loop.
type phase struct {
	rate       float64
	start, end time.Time
	recs       []*opRec
	backlog    []int64 // calls outstanding at each arrival, before it
}

// run issues ops at rate for dur and returns without waiting for them to
// finish.
func (d *load) run(rate float64, dur time.Duration) *phase {
	n := int(math.Round(rate * dur.Seconds()))
	p := &phase{rate: rate, recs: make([]*opRec, 0, n), backlog: make([]int64, 0, n)}
	p.start = time.Now()
	openLoop(p.start, rate, n, func(i int, due time.Time) {
		r := &opRec{op: d.gen.next(), conn: i % 2, due: due}
		p.recs = append(p.recs, r)
		p.backlog = append(p.backlog, d.backlog())
		if d.sampleDepth {
			d.depth = append(d.depth, int(d.outstanding[r.conn].Load()))
		}
		d.outstanding[r.conn].Add(1)
		r.issued = time.Now()
		go d.exec(r)
	})
	p.end = p.start.Add(dur)
	return p
}

func (d *load) backlog() int64 { return d.outstanding[0].Load() + d.outstanding[1].Load() }

// drain waits until every issued op has finished or the deadline passes, and
// reports whether everything finished.
func (d *load) drain(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for d.backlog() > 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return true
}

func (d *load) exec(r *opRec) {
	ag := d.ags[r.conn]
	h := d.fs.handles[r.op.file]
	var err error
	switch r.op.kind {
	case opRead:
		var data []byte
		data, err = ag.Read(h, uint32(r.op.block*d.w.block), uint32(d.w.block))
		if err == nil {
			seq, ok := readStamp(data, r.op.file, r.op.block)
			r.badData = !ok || len(data) != d.w.block || !d.wlog.known(r.op.file, r.op.block, seq)
		}
	case opWrite:
		buf := make([]byte, d.w.block)
		seq := d.wlog.begin(r.op.file, r.op.block, r.issued)
		stampBlock(buf, r.op.file, r.op.block, seq)
		if _, err = ag.Write(h, uint32(r.op.block*d.w.block), buf); err == nil {
			d.wlog.ack(seq, time.Now())
		}
	case opGetattr:
		_, err = ag.Getattr(h)
	case opLookup:
		_, _, err = ag.Lookup(d.fs.dir, fileName(r.op.file))
	case opReaddir:
		_, err = ag.Readdir(d.fs.dir)
	}
	r.finished = time.Now()
	if err != nil {
		r.errClass = errClass(err)
	}
	r.done.Store(true)
	if d.probe != nil {
		d.probe.after(r) // before the op stops counting as outstanding, so drain covers its probes
	}
	d.outstanding[r.conn].Add(-1)
}

// errClass names a failure by its derr category, or by the bare NFS status
// when the server sent no typed error.
func errClass(err error) string {
	var ne *agent.NFSError
	if _, ok := derr.AsError(err); !ok && errors.As(err, &ne) {
		return "nfs-" + ne.Status.String()
	}
	return derr.CategoryOf(err).String()
}

// ---------------------------------------------------------- statistics --

// quantile returns the nearest-rank q-quantile of sorted values.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func ms(d time.Duration) float64 {
	if d == never {
		return math.Inf(1)
	}
	return float64(d) / float64(time.Millisecond)
}

// completedBetween counts ops of recs that finished successfully in [from, to).
func completedBetween(recs []*opRec, from, to time.Time) int {
	n := 0
	for _, r := range recs {
		if r.done.Load() && r.errClass == "" && !r.finished.Before(from) && r.finished.Before(to) {
			n++
		}
	}
	return n
}

// maxStall is the longest stretch in [from, to) without a single completion.
func maxStall(recs []*opRec, from, to time.Time) time.Duration {
	var ts []time.Time
	for _, r := range recs {
		if r.done.Load() && r.finished.After(from) && r.finished.Before(to) {
			ts = append(ts, r.finished)
		}
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].Before(ts[j]) })
	prev, longest := from, time.Duration(0)
	for _, t := range append(ts, to) {
		if g := t.Sub(prev); g > longest {
			longest = g
		}
		prev = t
	}
	return longest
}
