package main

import (
	"math"
	"sync"
	"testing"
	"time"
)

func lats(ms ...int) []time.Duration {
	out := make([]time.Duration, len(ms))
	for i, v := range ms {
		out[i] = time.Duration(v) * time.Millisecond
	}
	sortDurations(out)
	return out
}

// flat returns n latencies of d each.
func flat(n int, d time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = d
	}
	return out
}

func TestJudgeStep(t *testing.T) {
	limit := 100 * time.Millisecond
	slow := append(flat(98, 10*time.Millisecond), lats(150, 200)...)
	cases := []struct {
		name  string
		s     stepStats
		holds bool
	}{
		{"fast", stepStats{rate: 100, lat: flat(100, 10*time.Millisecond)}, true},
		{"p99 exactly at the limit", stepStats{rate: 100, lat: append(flat(99, time.Millisecond), limit)}, true},
		{"two of 100 over the limit", stepStats{rate: 100, lat: slow}, false},
		{"unfinished ops miss the limit", stepStats{rate: 100, lat: append(flat(98, time.Millisecond), never, never)}, false},
		{"1% failed is allowed", stepStats{rate: 200, lat: flat(200, time.Millisecond), failed: 2}, true},
		{"over 1% failed breaks", stepStats{rate: 200, lat: flat(200, time.Millisecond), failed: 3}, false},
		// rate 100 and a 100 ms limit allow the backlog to grow by 5 calls.
		{"backlog growth within bound", stepStats{rate: 100, lat: flat(100, time.Millisecond), growth: 5}, true},
		{"growing backlog breaks", stepStats{rate: 100, lat: flat(100, time.Millisecond), growth: 5.5}, false},
		{"no arrivals", stepStats{rate: 100}, false},
	}
	for _, c := range cases {
		if got := judgeStep(c.s, limit) == ""; got != c.holds {
			t.Errorf("%s: holds=%v, want %v (%q)", c.name, got, c.holds, judgeStep(c.s, limit))
		}
	}
}

// synthCell stands in for the cell in a knee search: a rung holds when its
// rate is at most capacity, except that the first rung at a stall rate
// breaks. Each rung costs one unit of a budget of rungs.
type synthCell struct {
	capacity float64
	stalls   map[float64]bool
	budget   int
	rates    []float64
}

func (c *synthCell) fits(float64) bool { return len(c.rates) < c.budget }

func (c *synthCell) try(rate float64) stepStats {
	c.rates = append(c.rates, rate)
	stall := c.stalls[math.Round(rate)]
	delete(c.stalls, math.Round(rate))
	return synthStep(rate, rate > c.capacity || stall)
}

func synthStep(rate float64, broken bool) stepStats {
	d := time.Millisecond
	if broken {
		d = time.Second
	}
	return stepStats{rate: rate, lat: flat(100, d)}
}

func TestSearchKneeEndsAtConfirmedBreak(t *testing.T) {
	limit := 100 * time.Millisecond
	for _, capacity := range []float64{250, 640, 1000, 5000} {
		c := &synthCell{capacity: capacity, budget: 100}
		k := searchKnee(synthStep(100, false), 200, limit, c.fits, c.try)
		if !k.confirmed || k.knee < 0 {
			t.Fatalf("capacity %v: confirmed=%v knee=%d", capacity, k.confirmed, k.knee)
		}
		got := k.steps[k.knee].rate
		if got > capacity || got < capacity/refineRatio-1e-9 {
			t.Errorf("capacity %v: knee %v, want within %vx below it (rungs %v)", capacity, got, refineRatio, c.rates)
		}
		// Every rung above the knee that was run after it broke.
		for _, s := range k.steps[k.knee+1:] {
			if s.rate > got && judgeStep(s, limit) == "" {
				t.Errorf("capacity %v: rung %v above the knee holds", capacity, s.rate)
			}
		}
	}
}

func TestSearchKneePassesIsolatedBreak(t *testing.T) {
	// 300 is the second bracket rung from 200; a stall breaks it once, and
	// its repeat holds.
	c := &synthCell{capacity: 1000, stalls: map[float64]bool{300: true}, budget: 100}
	k := searchKnee(synthStep(100, false), 200, 100*time.Millisecond, c.fits, c.try)
	if got := k.steps[k.knee].rate; !k.confirmed || got > 1000 || got < 1000/refineRatio {
		t.Errorf("knee %v confirmed=%v, rungs %v", got, k.confirmed, c.rates)
	}
	if c.rates[1] != 300 || c.rates[2] != 300 || c.rates[3] != 450 {
		t.Errorf("the stalled rung was not repeated: rungs %v", c.rates)
	}
}

func TestSearchKneeBreakConfirmedInRefine(t *testing.T) {
	// The bracket breaks at 1012.5, twice. The refine pass climbs from 675
	// by 8.4% a rung; its second rung (794) breaks twice, which ends it.
	c := &synthCell{capacity: 790, budget: 100}
	k := searchKnee(synthStep(100, false), 200, 100*time.Millisecond, c.fits, c.try)
	want := []float64{200, 300, 450, 675, 1013, 1013, 732, 794, 794}
	if len(c.rates) != len(want) {
		t.Fatalf("rungs %v, want %v", c.rates, want)
	}
	for i := range want {
		if math.Round(c.rates[i]) != want[i] {
			t.Fatalf("rungs %v, want %v", c.rates, want)
		}
	}
	if got := k.steps[k.knee].rate; !k.confirmed || math.Round(got) != 732 {
		t.Errorf("knee %v confirmed=%v", got, k.confirmed)
	}
}

func TestSearchKneeOutOfTimeIsLowerBound(t *testing.T) {
	c := &synthCell{capacity: 1e6, budget: 4}
	k := searchKnee(synthStep(100, false), 200, 100*time.Millisecond, c.fits, c.try)
	if k.confirmed || k.knee != 4 || k.steps[k.knee].rate != 200*math.Pow(bracketRatio, 3) {
		t.Errorf("confirmed=%v knee=%d rungs %v", k.confirmed, k.knee, c.rates)
	}
}

func TestSearchKneeNoHold(t *testing.T) {
	c := &synthCell{capacity: 50, budget: 100}
	k := searchKnee(synthStep(100, true), 200, 100*time.Millisecond, c.fits, c.try)
	if k.knee != -1 || !k.confirmed || len(c.rates) != 2 {
		t.Errorf("knee=%d confirmed=%v rungs %v", k.knee, k.confirmed, c.rates)
	}
}

func TestRefineRatesStepAtMostTenPercent(t *testing.T) {
	for _, hi := range []float64{103, 105, 110, 150, 240, 1000} {
		r := append(append([]float64{100}, refineRates(100, hi)...), hi)
		for i := 1; i < len(r); i++ {
			if g := r[i] / r[i-1]; g <= 1 || g > refineRatio+1e-9 {
				t.Fatalf("hi %v: step %d grows by %v (%v)", hi, i, g, r)
			}
		}
	}
}

func TestBacklogGrowth(t *testing.T) {
	var steady, growing []int64
	for i := 0; i < 400; i++ {
		steady = append(steady, int64(i%7)) // in-flight jitter, no queue
		growing = append(growing, int64(i/10))
	}
	if g := backlogGrowth(steady); g < -1 || g > 1 {
		t.Errorf("steady backlog grew by %v", g)
	}
	if g := backlogGrowth(growing); g < 29 || g > 31 {
		t.Errorf("linear backlog grew by %v, want ~30", g)
	}
	if g := backlogGrowth([]int64{5, 9}); g != 0 {
		t.Errorf("too few samples: %v", g)
	}
}

// serialConn stands in for one SunRPC connection: calls run one after
// another, so a slow call delays every call queued behind it.
type serialConn struct {
	mu sync.Mutex
}

func (c *serialConn) call(d time.Duration) {
	c.mu.Lock()
	time.Sleep(d)
	c.mu.Unlock()
}

// TestOpenLoopTimesFromSchedule checks that a stall on the connection shows
// in the latency of every op queued behind it: latency runs from the
// scheduled arrival, and the generator keeps issuing on schedule.
func TestOpenLoopTimesFromSchedule(t *testing.T) {
	const rate, n = 200.0, 40 // one arrival every 5 ms
	stall := 100 * time.Millisecond
	conn := &serialConn{}
	due := make([]time.Time, n)
	issued := make([]time.Time, n)
	finished := make([]time.Time, n)
	var wg sync.WaitGroup
	t0 := time.Now()
	openLoop(t0, rate, n, func(i int, d time.Time) {
		due[i], issued[i] = d, time.Now()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i == 0 {
				conn.call(stall)
			} else {
				conn.call(0)
			}
			finished[i] = time.Now()
		}()
	})
	wg.Wait()
	for i := 0; i < n; i++ {
		if want := t0.Add(time.Duration(i) * 5 * time.Millisecond); !due[i].Equal(want) {
			t.Fatalf("arrival %d due %v after start, want %v", i, due[i].Sub(t0), want.Sub(t0))
		}
		if late := issued[i].Sub(due[i]); late < 0 || late > 30*time.Millisecond {
			t.Errorf("arrival %d issued %v late although the generator never blocked", i, late)
		}
	}
	// Every op due during the stall waited for it: its latency covers the
	// rest of the stall, not just its own (near-zero) service time.
	for i := 1; i < n; i++ {
		offset := due[i].Sub(due[0])
		if offset >= stall {
			break
		}
		if l := finished[i].Sub(due[i]); l < stall-offset-2*time.Millisecond {
			t.Errorf("op %d latency %v, want at least %v", i, l, stall-offset)
		}
	}
}

// TestOpenLoopLateness checks that a generator held up does not slip the
// schedule: the arrivals it could not issue on time go out at once, late,
// with their original due times.
func TestOpenLoopLateness(t *testing.T) {
	const rate, n = 100.0, 20 // one arrival every 10 ms
	due := make([]time.Time, n)
	late := make([]time.Duration, n)
	t0 := time.Now()
	openLoop(t0, rate, n, func(i int, d time.Time) {
		due[i], late[i] = d, time.Since(d)
		if i == 0 {
			time.Sleep(55 * time.Millisecond) // the generator itself stalls
		}
	})
	for i := 1; i <= 5; i++ {
		want := 55*time.Millisecond - time.Duration(i)*10*time.Millisecond
		if late[i] < want-time.Millisecond {
			t.Errorf("arrival %d late by %v, want at least %v", i, late[i], want)
		}
	}
	if end := due[n-1].Sub(t0); end != 190*time.Millisecond {
		t.Errorf("last arrival due at %v, want 190ms: the schedule slipped", end)
	}
}

// TestUnfinishedOpsMissTheLimit checks that a step judged while some of its
// ops are still running counts them as over the limit.
func TestUnfinishedOpsMissTheLimit(t *testing.T) {
	now := time.Now()
	p := &phase{rate: 100}
	for i := 0; i < 100; i++ {
		r := &opRec{op: op{kind: opRead}, due: now, finished: now.Add(time.Millisecond)}
		if i >= 2 {
			r.done.Store(true)
		}
		p.recs = append(p.recs, r)
	}
	if v := judgeStep(statsOfStep(p), 100*time.Millisecond); v == "" {
		t.Fatal("step with 2% unfinished ops holds")
	}
	p.recs[0].done.Store(true)
	if v := judgeStep(statsOfStep(p), 100*time.Millisecond); v != "" {
		t.Fatalf("step with 1%% unfinished ops breaks: %s", v)
	}
}

func TestStampRoundTrip(t *testing.T) {
	buf := make([]byte, 512)
	stampBlock(buf, 7, 3, 42)
	if seq, ok := readStamp(buf, 7, 3); !ok || seq != 42 {
		t.Fatalf("readStamp = %d, %v", seq, ok)
	}
	if _, ok := readStamp(buf, 7, 4); ok {
		t.Fatal("stamp of block 3 accepted as block 4")
	}
	buf[300] ^= 1
	if _, ok := readStamp(buf, 7, 3); ok {
		t.Fatal("corrupted filler accepted")
	}
}

func TestBlockVerdict(t *testing.T) {
	w := workload{files: 1, fileSize: 1024, block: 512}
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	l := &writeLog{recs: []writeRec{
		{file: 0, block: 0, issued: at(0), acked: at(10)},  // 1
		{file: 0, block: 0, issued: at(20), acked: at(30)}, // 2, strictly after 1
		{file: 0, block: 0, issued: at(25)},                // 3, failed: may or may not apply
		{file: 0, block: 0, issued: at(28), acked: at(40)}, // 4, concurrent with 2
	}}
	h := newBlockHistory(w, l)
	block := func(seq uint64) []byte {
		b := make([]byte, 512)
		stampBlock(b, 0, 0, seq)
		return b
	}
	for seq, ok := range map[uint64]bool{0: false, 1: false, 2: true, 3: true, 4: true, 5: false} {
		if got := h.verdict(block(seq), 0, 0) == ""; got != ok {
			t.Errorf("block holding write %d: allowed=%v, want %v (%s)", seq, got, ok, h.verdict(block(seq), 0, 0))
		}
	}
	// Block 1 was never written: only the prepopulated content is allowed.
	b := make([]byte, 512)
	stampBlock(b, 0, 1, 0)
	if v := h.verdict(b, 0, 1); v != "" {
		t.Errorf("prepopulated block rejected: %s", v)
	}
	stampBlock(b, 0, 1, 1)
	if v := h.verdict(b, 0, 1); v == "" {
		t.Error("block 1 accepted a write issued to block 0")
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{Name: "agent.read", ID: 1, Start: 0, End: 100},
		{Name: "envelope.read", ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "core.read", ID: 3, Parent: 1, Start: 30, End: 60},   // overlaps the first child
		{Name: "core.lease", ID: 4, Parent: 1, Start: 90, End: 130}, // runs past the parent
	}
	got := map[string]spanSummary{}
	for _, s := range selfTimes(spans) {
		got[s.Name] = s
	}
	// Children cover [10,60) and [90,100) of the parent: 60 of its 100 ns.
	if self := got["agent.read"].SelfMS * 1e6; self < 39.9 || self > 40.1 {
		t.Errorf("agent.read self time %v ns, want 40", self)
	}
	if self := got["core.lease"].SelfMS * 1e6; self < 39.9 || self > 40.1 {
		t.Errorf("core.lease self time %v ns, want its whole 40", self)
	}
}
