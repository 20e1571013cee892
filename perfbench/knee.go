package main

import (
	"fmt"
	"math"
	"time"
)

// The knee search brackets the knee and then refines it. Every pass offers
// rates open loop, one rung at a time, and drains each rung before the next
// starts, so a stall is charged to the rung it happened in and does not spill
// into the next. A rung that breaks is run again at the same rate, and the
// break is confirmed when the repeat breaks too; one isolated break, such
// as a single stall, does not end a pass and stays visible in the ladder
// report. Repeating the rate, rather than confirming one step higher, keeps
// the search from driving the cell far past its knee, where a rung's
// backlog outlasts the drain and spills into the next rung.
//
//  1. Bracket: from the workload's ladder start, rates grow by bracketRatio
//     until a break is confirmed.
//  2. Refine: from the last rung that held below that break, rates grow by
//     at most refineRatio towards it, until a break is confirmed; the
//     bracket's confirmed break ends the pass if none of the new rungs does.
//
// The knee is the last rung that held below the refine pass's confirmed
// break, so it is known to within refineRatio. The search ends at a
// confirmed break, not at a rate cap; only when the time runs out first is
// the knee a lower bound.
const (
	bracketRatio  = 1.5
	refineRatio   = 1.1
	maxFailedFrac = 0.01
	minStepOps    = 50
	// stepDrain bounds the wait for a rung's ops before the next rung
	// starts; ops still running then are over the limit anyway.
	stepDrain = 2 * time.Second
)

// stepStats is what the knee rule needs to know about one ladder step.
type stepStats struct {
	rate   float64
	lat    []time.Duration // sorted; failed or unfinished ops are never
	failed int
	growth float64 // backlog growth from the first quarter to the last
}

// A step's backlog grows when the mean number of calls outstanding over its
// last quarter exceeds that over its first quarter by more than half a
// latency limit's worth of arrivals: a queue that alone would spend half the
// limit. Means over quarters, not two instants, so ops merely in flight at a
// boundary do not read as a queue; a slower growth is caught by the p99 rule
// once it has accumulated over several steps.
func backlogLimit(rate float64, limit time.Duration) float64 {
	return rate * limit.Seconds() / 2
}

func statsOfStep(p *phase) stepStats {
	s := stepStats{rate: p.rate, growth: backlogGrowth(p.backlog)}
	for _, r := range p.recs {
		s.lat = append(s.lat, r.latency())
		if r.done.Load() && r.errClass != "" {
			s.failed++
		}
	}
	sortDurations(s.lat)
	return s
}

// judgeStep applies the knee rule: p99 within the limit, at most 1% failed,
// and a backlog that does not grow. It returns "" when the step holds, else
// which part broke.
func judgeStep(s stepStats, limit time.Duration) string {
	n := len(s.lat)
	if n == 0 {
		return "no arrivals"
	}
	if p99 := quantile(s.lat, 0.99); p99 > limit {
		return fmt.Sprintf("p99 %.1f ms over the %.0f ms limit", ms(p99), ms(limit))
	}
	if float64(s.failed) > maxFailedFrac*float64(n) {
		return fmt.Sprintf("%d of %d ops failed", s.failed, n)
	}
	if s.growth > backlogLimit(s.rate, limit) {
		return fmt.Sprintf("backlog grew by %.1f calls", s.growth)
	}
	return ""
}

// backlogGrowth is the mean of the last quarter of samples minus the mean
// of the first quarter.
func backlogGrowth(samples []int64) float64 {
	q := len(samples) / 4
	if q == 0 {
		return 0
	}
	mean := func(v []int64) float64 {
		t := int64(0)
		for _, x := range v {
			t += x
		}
		return float64(t) / float64(len(v))
	}
	return mean(samples[len(samples)-q:]) - mean(samples[:q])
}

// kneeResult is the outcome of a knee search.
type kneeResult struct {
	steps     []stepStats // every rung in the order run, the base rung first
	knee      int         // index in steps of the knee rung; -1 when no rung held
	confirmed bool        // false when the time ran out before a confirmed break
}

// searchKnee runs the knee search above base, a rung already run. try runs
// one rung at a rate; fits reports whether a rung at a rate still fits in
// the time left.
func searchKnee(base stepStats, start float64, limit time.Duration,
	fits func(rate float64) bool, try func(rate float64) stepStats) kneeResult {
	res := kneeResult{steps: []stepStats{base}, knee: -1}
	if judgeStep(base, limit) == "" {
		res.knee = 0
	}
	// climb runs the rates in order until a break is confirmed, and returns
	// the index of its first rung, -1 when every rate held, or ok=false when
	// the time runs out.
	climb := func(rates []float64) (brk int, ok bool) {
		pending := -1 // index of an unconfirmed break
		for i := 0; i < len(rates); {
			if !fits(rates[i]) {
				return -1, false
			}
			s := try(rates[i])
			res.steps = append(res.steps, s)
			switch n := len(res.steps) - 1; {
			case judgeStep(s, limit) == "":
				res.knee, pending = n, -1
				i++
			case pending >= 0:
				return pending, true
			default:
				pending = n // run the same rate again
			}
		}
		return -1, true
	}
	brk, ok := climb(geometric(start, bracketRatio, 64))
	if !ok || brk < 0 {
		return res
	}
	res.confirmed = true
	if res.knee < 0 {
		return res
	}
	_, res.confirmed = climb(refineRates(res.steps[res.knee].rate, res.steps[brk].rate))
	return res
}

// geometric returns n rates from start, each ratio times the one before.
func geometric(start, ratio float64, n int) []float64 {
	out := make([]float64, n)
	r := start
	for i := range out {
		out[i] = r
		r *= ratio
	}
	return out
}

// refineRates returns the rates strictly between lo and hi that split the
// range into equal ratios of at most refineRatio.
func refineRates(lo, hi float64) []float64 {
	if hi <= lo {
		return nil
	}
	n := int(math.Ceil(math.Log(hi/lo)/math.Log(refineRatio) - 1e-9))
	if n < 2 {
		return nil
	}
	return geometric(lo*math.Pow(hi/lo, 1/float64(n)), math.Pow(hi/lo, 1/float64(n)), n-1)
}

// ladder runs the knee search above the nominal phase within budget. It
// returns each rung's phase, the nominal phase first, and the search result.
func (d *load) ladder(nominal *phase, budget time.Duration) ([]*phase, kneeResult) {
	t0 := time.Now()
	phases := []*phase{nominal}
	fits := func(rate float64) bool { return time.Since(t0)+stepLength(rate) <= budget }
	try := func(rate float64) stepStats {
		p := d.run(rate, stepLength(rate))
		d.drain(stepDrain)
		phases = append(phases, p)
		return statsOfStep(p)
	}
	return phases, searchKnee(statsOfStep(nominal), d.w.ladderStart, d.w.limit, fits, try)
}

// stepLength is how long a ladder step lasts at rate: a second, or long
// enough for minStepOps arrivals.
func stepLength(rate float64) time.Duration {
	return max(time.Second, time.Duration(minStepOps/rate*float64(time.Second)))
}
