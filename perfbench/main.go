// Command perfbench is the repository's benchmark. It boots the cell
// deceitd ships (three servers, TCP between them, a fsyncing LogStore each),
// drives it open loop from exactly two client connections on two servers,
// and reports end-to-end metrics, or with -trace 1 per-layer metrics. Every
// run checks the data it read back and what the stores made durable. See
// README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/agent"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string
	commit   string
}

// metric is one reported number.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
}

type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metric
	reported  []metric // printed beside the metrics but not part of the result
	problems  []string
	details   map[string]any
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: read-mostly, write-contended or large-file")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&cfg.seconds, "seconds", 30, "measured seconds: nominal, ladder and overload phases together")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.StringVar(&cfg.root, "root", ".", "checkout root; every file a run writes goes under <root>/.bench_build")
	flag.StringVar(&cfg.commit, "commit", "unknown", "source commit, recorded with the result")
	flag.Parse()
	cfg.trace = trace == 1
	if trace != 0 && trace != 1 || cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1 and -seconds at least 1")
		os.Exit(2)
	}
	// A run takes well under a minute; one that has not ended by
	// runDeadline is wedged, and ends itself rather than hang its caller.
	time.AfterFunc(runDeadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runDeadline)
		os.Exit(1)
	})
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, m := range res.metrics {
		fmt.Printf("%-28s %14.4f %-6s n=%d\n", m.name, m.value, m.unit, m.samples)
	}
	for _, m := range res.reported {
		fmt.Printf("%-28s %14.4f %-6s n=%d (reported, not a metric)\n", m.name, m.value, m.unit, m.samples)
	}
	for _, p := range res.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	report, _ := json.Marshal(map[string]any{"report": res.details})
	fmt.Println(string(report))
	ms := map[string]any{}
	for _, m := range res.metrics {
		ms[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	last, _ := json.Marshal(map[string]any{
		"correct": res.correct, "attempted": res.attempted, "failed": res.failed, "metrics": ms,
	})
	fmt.Println(string(last))
	if !res.correct {
		os.Exit(1)
	}
}

// bench is one booted, prepopulated and warmed cell with its two clients.
type bench struct {
	dir string
	c   *cell
	fs  *fileSet
	ags [2]*agent.Agent
}

// setUp boots the cell, prepopulates the workload's files and warms both
// clients. Its duration is what setup_s reports.
func setUp(ctx context.Context, dir string, w workload, spans *spanLog) (*bench, time.Duration, error) {
	ctx, cancel := context.WithTimeout(ctx, stageTimeout)
	defer cancel()
	t0 := time.Now()
	c, err := bootCell(dir, spans)
	if err != nil {
		return nil, 0, err
	}
	b := &bench{dir: dir, c: c}
	tBoot := time.Now()
	if b.fs, err = prepopulate(ctx, c, w); err != nil {
		b.tearDown()
		return nil, 0, fmt.Errorf("prepopulate: %w", err)
	}
	for i := range b.ags {
		// One connection per client, each on its own server, caches on.
		if b.ags[i], err = agent.Mount([]string{c.nfs[i]}, agent.Options{Cache: true}); err != nil {
			b.tearDown()
			return nil, 0, fmt.Errorf("mount: %w", err)
		}
	}
	tPrep := time.Now()
	if err := warm(b, w); err != nil {
		b.tearDown()
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: set-up: boot %.2fs, prepopulate %.2fs, warm-up %.2fs\n",
		tBoot.Sub(t0).Seconds(), tPrep.Sub(tBoot).Seconds(), time.Since(tPrep).Seconds())
	return b, time.Since(t0), nil
}

// warm resolves every name through both clients and reads every block of
// the small-file workloads (one block per file of large-file), so the
// timed phases start with the clients' caches in their steady state.
func warm(b *bench, w workload) error {
	blocks := w.blocksPerFile()
	if w.fileSize > 64<<10 {
		blocks = 1
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2*4)
	for _, ag := range b.ags {
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for f := g; f < w.files; f += 4 {
					if _, _, err := ag.Lookup(b.fs.dir, fileName(f)); err != nil {
						errs <- err
						return
					}
					for blk := 0; blk < blocks; blk++ {
						data, err := ag.Read(b.fs.handles[f], uint32(blk*w.block), uint32(w.block))
						if err != nil {
							errs <- err
							return
						}
						if seq, ok := readStamp(data, f, blk); !ok || seq != 0 {
							errs <- fmt.Errorf("%s block %d: prepopulated content wrong", fileName(f), blk)
							return
						}
					}
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	return <-errs
}

func (b *bench) closeClients() {
	for _, ag := range b.ags {
		if ag != nil {
			ag.Close()
		}
	}
}

func (b *bench) tearDown() {
	b.closeClients()
	b.c.stop()
	b.c.closeStores()
	_ = os.RemoveAll(b.dir)
}

const (
	drainTimeout = 30 * time.Second
	stageTimeout = time.Minute // bounds set-up and the output check, so a wedged cell cannot hang the run
	setups       = 3           // setup_s is the median of this many set-ups
	runDeadline  = 170 * time.Second
)

func run(cfg config) (*result, error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return nil, err
	}
	workdir := filepath.Join(cfg.root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(workdir)
	ctx := context.Background()
	env := recordEnvironment(workdir, cfg.commit)

	var spans *spanLog
	if cfg.trace {
		spans = &spanLog{t0: time.Now()}
	}
	b, setup1, err := setUp(ctx, filepath.Join(workdir, "cell0"), w, spans)
	if err != nil {
		return nil, err
	}
	// The measured phases start right after a GC. So the heap peak covers
	// them and not set-up's transient buffers, which a GC during set-up
	// may or may not have caught live; and whether a GC cycle falls inside
	// the CPU window depends on what the ops allocate, not on when the last
	// one ran.
	runtime.GC()
	heap := watchHeap()
	d := &load{w: w, fs: b.fs, ags: b.ags, wlog: &writeLog{}, gen: newOpGen(w, cfg.seed), spans: spans}
	if cfg.trace {
		d.probe = &prober{d: d, c: b.c, lat: map[string][]time.Duration{}}
	}

	total := time.Duration(cfg.seconds) * time.Second
	nominalDur, ladderMax, overDur := total*40/100, total/2, total/10
	if cfg.trace {
		// The traced run has no knee search: its per-layer numbers come from
		// the nominal phase, so that phase gets the search's time too.
		nominalDur += ladderMax
	}
	res := &result{details: map[string]any{"workload": w.name, "seed": cfg.seed, "seconds": cfg.seconds,
		"trace": cfg.trace, "environment": env}}
	var all []*opRec
	collect := func(p *phase) *phase { all = append(all, p.recs...); return p }

	// Phase 1, nominal. The traced run splits it in three windows: untraced,
	// the baseline for the tracing overhead; traced without probes, for the
	// layer counters, so probe calls do not count as the cost of client ops;
	// and traced with probes, for the envelope and core latencies.
	var nominal, untraced, probed *phase
	var snapA, snapB snapshot
	if cfg.trace {
		untraced = collect(d.run(w.nominal, nominalDur/3))
		d.drain(drainTimeout)
		runtime.GC()
		snapA = takeSnapshot(b.c, b.ags)
		spans.on.Store(true)
		d.sampleDepth = true
		b.c.record(true)
		nominal = collect(d.run(w.nominal, nominalDur/3))
		d.drain(drainTimeout)
		b.c.record(false)
		snapB = takeSnapshot(b.c, b.ags)
		d.sampleDepth = false
		d.probe.on.Store(true)
		probed = collect(d.run(w.nominal, nominalDur/3))
		d.drain(drainTimeout)
		d.probe.wg.Wait()
		d.probe.on.Store(false)
		spans.on.Store(false)
	} else {
		cpu0 := processCPU()
		nominal = collect(d.run(w.nominal, nominalDur))
		d.drain(drainTimeout)
		res.metrics = append(res.metrics, metric{name: "cpu_ms_per_op",
			value: ms(processCPU()-cpu0) / float64(len(nominal.recs)), unit: "ms", samples: len(nominal.recs)})
	}
	// The heap peak covers the nominal phase, the cell's steady state; past
	// it, the heap grows with how far the knee search climbs.
	heapMB := heap.finish()

	if !cfg.trace {
		// Phase 2, the knee search. The nominal phase is its bottom rung.
		phases, k := d.ladder(nominal, ladderMax)
		for _, p := range phases[1:] {
			collect(p)
		}
		d.drain(drainTimeout)
		var ladderReport []map[string]any
		for _, st := range k.steps {
			v := judgeStep(st, w.limit)
			if v == "" {
				v = "holds"
			}
			ladderReport = append(ladderReport, map[string]any{"rate": math.Round(st.rate*10) / 10,
				"p99_ms": finiteMS(quantile(st.lat, 0.99)), "n": len(st.lat), "verdict": v})
		}
		res.details["ladder"] = ladderReport
		res.details["knee_is_lower_bound"] = !k.confirmed
		res.reported = append(res.reported, kneeMetric(phases, k.knee))
	}

	// Phase 3, overload.
	over := collect(d.run(w.overload, overDur))
	drained := d.drain(drainTimeout)
	end := time.Now()
	if d.probe != nil {
		d.probe.wg.Wait()
	}

	// Outcomes over every phase.
	failedBy := map[string]int{}
	badReads := 0
	for _, r := range all {
		switch {
		case !r.done.Load():
			failedBy["timeout"]++
		case r.errClass != "":
			failedBy[r.errClass]++
		case r.badData:
			badReads++
		}
	}
	for _, n := range failedBy {
		res.failed += n
	}
	res.attempted = len(all)
	res.details["failed_by_category"] = failedBy
	res.details["drained"] = drained
	if badReads > 0 {
		res.problems = append(res.problems, fmt.Sprintf("%d reads returned a block that no write produced", badReads))
	}
	if d.probe != nil && d.probe.bad > 0 {
		res.problems = append(res.problems, fmt.Sprintf("%d probe reads returned a block that no write produced", d.probe.bad))
	}

	if cfg.trace {
		res.metrics = layerMetrics(d, b, untraced, nominal, probed, over, all, snapA, snapB, end)
		sum, err := spans.writeTrace(
			filepath.Join(cfg.root, ".bench_build", fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, cfg.seed)),
			filepath.Join(cfg.root, ".bench_build", fmt.Sprintf("trace-%s-seed%d-summary.json", w.name, cfg.seed)))
		if err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		res.details["self_time"] = sum
	} else {
		metrics, reported := endToEndMetrics(nominal, over, all, end)
		res.metrics = append(res.metrics, metrics...)
		res.reported = append(res.reported, reported...)
	}

	// Output and durability checks.
	hist := newBlockHistory(w, d.wlog)
	checkCtx, cancel := context.WithTimeout(ctx, stageTimeout)
	res.problems = append(res.problems, checkOutput(checkCtx, b.c, b.fs, hist)...)
	cancel()
	b.closeClients()
	b.c.stop()
	res.problems = append(res.problems, checkDurable(b.c, b.fs, hist, workdir)...)
	b.c.closeStores()

	if !cfg.trace {
		setupTimes := []float64{setup1.Seconds()}
		for i := 1; i < setups; i++ {
			b2, t, err := setUp(ctx, filepath.Join(workdir, fmt.Sprintf("cell%d", i)), w, nil)
			if err != nil {
				return nil, err
			}
			b2.tearDown()
			setupTimes = append(setupTimes, t.Seconds())
		}
		res.details["setup_s"] = setupTimes
		res.metrics = append(res.metrics,
			metric{name: "heap_peak_mb", value: heapMB, unit: "MB", samples: 1},
			metric{name: "setup_s", value: median(setupTimes), unit: "s", samples: len(setupTimes)})
	}
	if len(res.problems) > 20 {
		n := len(res.problems)
		res.problems = append(res.problems[:20], fmt.Sprintf("... and %d more", n-20))
	}
	res.correct = len(res.problems) == 0
	return res, nil
}

// record turns commit-latency recording on or off in every store wrapper.
func (c *cell) record(on bool) {
	for _, s := range c.stores {
		s.mu.Lock()
		s.recording = on
		s.mu.Unlock()
	}
}

// endToEndMetrics computes what a user of the cell sees. Latencies come
// from the nominal phase; an op that failed or never finished counts with
// the time it had waited when the run ended. The latencies and the
// overload throughput are reported but are not metrics: on the reference
// box their run-to-run spread is wider than any bound the benchmark may
// set.
func endToEndMetrics(nominal, over *phase, all []*opRec, end time.Time) (metrics, reported []metric) {
	lat := nominalLatencies(nominal, end)
	metrics = []metric{{name: "ok_frac", value: 1 - float64(failedOps(all))/float64(len(all)), unit: "frac", samples: len(all)}}
	return metrics, append(ungatedLatencies(lat, ""), overloadMetric(over, ""))
}

// kneeMetric is the rate at which the knee rung's ops succeeded: its
// successful ops over its length. A rung that holds has drained, so an op
// that finished after the rung ended still counts.
func kneeMetric(phases []*phase, knee int) metric {
	rate, n := 0.0, 0
	if knee >= 0 {
		p := phases[knee]
		n = len(p.recs) - failedOps(p.recs)
		rate = float64(n) / p.end.Sub(p.start).Seconds()
	}
	return metric{name: "knee_ops_s", value: rate, unit: "ops/s", samples: n}
}

// overloadMetric is the rate at which ops completed during the overload
// phase: whether throughput holds past saturation or collapses.
func overloadMetric(over *phase, prefix string) metric {
	n := completedBetween(over.recs, over.start, over.end)
	return metric{name: prefix + "overload_ops_s", value: float64(n) / over.end.Sub(over.start).Seconds(), unit: "ops/s", samples: n}
}

// nominalLatencies returns each class's latencies over a nominal phase,
// sorted, with failed or unfinished ops counted as waiting until end.
func nominalLatencies(p *phase, end time.Time) map[string][]time.Duration {
	lat := map[string][]time.Duration{}
	for _, r := range p.recs {
		c := r.op.kind.class()
		lat[c] = append(lat[c], r.latencyAt(end))
	}
	for _, v := range lat {
		sortDurations(v)
	}
	return lat
}

// ungatedLatencies are the nominal-rate latencies, all too noisy to gate
// on: the medians, p99 for reads and writes, and p90 for the fewer meta
// ops.
func ungatedLatencies(lat map[string][]time.Duration, prefix string) []metric {
	var out []metric
	for _, t := range []struct {
		class string
		q     float64
		name  string
	}{{"read", 0.5, "read_p50_ms"}, {"write", 0.5, "write_p50_ms"}, {"meta", 0.5, "meta_p50_ms"},
		{"read", 0.99, "read_p99_ms"}, {"write", 0.99, "write_p99_ms"}, {"meta", 0.9, "meta_p90_ms"}} {
		out = append(out, metric{name: prefix + t.name, value: ms(quantile(lat[t.class], t.q)), unit: "ms", samples: len(lat[t.class])})
	}
	return out
}

func failedOps(recs []*opRec) int {
	n := 0
	for _, r := range recs {
		if !r.done.Load() || r.errClass != "" {
			n++
		}
	}
	return n
}

// latencyAt is latency for reporting: an op that failed or is still
// unfinished counts with the time it had waited by end.
func (r *opRec) latencyAt(end time.Time) time.Duration {
	if l := r.latency(); l != never {
		return l
	}
	return end.Sub(r.due)
}

func sortDurations(v []time.Duration) { sort.Slice(v, func(i, j int) bool { return v[i] < v[j] }) }

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// layerMetrics computes the traced run's per-layer numbers. Counters and
// per-op ratios cover the traced window without probes (nominal), probe
// latencies the window with them (probed), and the client latencies the
// untraced window, except where a metric says it covers the whole run.
func layerMetrics(d *load, b *bench, untraced, nominal, probed, over *phase, all []*opRec, a, z snapshot, end time.Time) []metric {
	w := d.w
	ops := float64(len(nominal.recs))
	per := func(v float64) float64 { return ratio(v, ops) }
	var out []metric
	add := func(name string, v float64, unit string, n int) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out = append(out, metric{name: name, value: v, unit: unit, samples: n})
	}
	n := int(ops)

	// generator / agent
	var late []time.Duration
	kinds := map[opKind]int{}
	for _, r := range nominal.recs {
		late = append(late, r.issued.Sub(r.due))
		kinds[r.op.kind]++
	}
	sortDurations(late)
	add("gen.late_p99_ms", ms(quantile(late, 0.99)), "ms", len(late))
	add("agent.rpcs_per_op", per(float64(z.agentCalls-a.agentCalls)), "count", n)
	add("agent.cache_hit_frac", ratio(float64(z.agentHits-a.agentHits), float64(kinds[opRead]+kinds[opGetattr])), "frac",
		kinds[opRead]+kinds[opGetattr])
	add("agent.revalidations_per_op", per(float64(z.agentRV-a.agentRV)), "count", n)
	depth := make([]time.Duration, len(d.depth))
	for i, v := range d.depth {
		depth[i] = time.Duration(v)
	}
	sortDurations(depth)
	add("agent.queue_depth_p50", float64(quantile(depth, 0.5)), "calls", len(depth))
	add("agent.queue_depth_max", float64(quantile(depth, 1)), "calls", len(depth))
	add("client.stall_max_s", maxStall(all, untraced.start, end).Seconds(), "s", len(all))
	add("client.failed_frac", ratio(float64(failedOps(all)), float64(len(all))), "frac", len(all))
	for _, m := range ungatedLatencies(nominalLatencies(untraced, end), "client.") {
		add(m.name, m.value, m.unit, m.samples)
	}
	good := 0
	for _, r := range over.recs {
		if r.latency() <= w.limit {
			good++
		}
	}
	add("client.overload_goodput_ops_s", float64(good)/over.end.Sub(over.start).Seconds(), "ops/s", len(over.recs))
	m := overloadMetric(over, "client.")
	add(m.name, m.value, m.unit, m.samples)

	// sunrpc / server
	reads := nominalLatencies(nominal, end)["read"]
	baseReads := nominalLatencies(untraced, end)["read"]
	probedReads := nominalLatencies(probed, end)["read"]
	probe := d.probe.lat
	for _, v := range probe {
		sortDurations(v)
	}
	add("sunrpc.read_overhead_p50_ms", ms(quantile(probedReads, 0.5))-ms(quantile(probe["envelope.read"], 0.5)), "ms", len(probedReads))
	add("server.sheds_per_op", ratio(float64(z.sheds), float64(len(all))), "count", len(all))

	// envelope and core probes
	for _, p := range []struct {
		name, span string
		q          float64
	}{
		{"envelope.read_p50_ms", "envelope.read", 0.5}, {"envelope.read_p99_ms", "envelope.read", 0.99},
		{"envelope.write_p50_ms", "envelope.write", 0.5}, {"envelope.write_p99_ms", "envelope.write", 0.99},
		{"envelope.getattr_p50_ms", "envelope.getattr", 0.5},
		{"core.read_p50_ms", "core.read", 0.5}, {"core.read_p99_ms", "core.read", 0.99},
		{"core.lease_p50_ms", "core.lease", 0.5},
	} {
		add(p.name, ms(quantile(probe[p.span], p.q)), "ms", len(probe[p.span]))
	}
	add("core.local_read_frac", ratio(float64(z.readLocal-a.readLocal), float64(z.readLocal-a.readLocal+z.readFwd-a.readFwd)), "frac",
		int(z.readLocal-a.readLocal+z.readFwd-a.readFwd))
	add("core.token_casts_per_op", per(float64(z.tokenCasts-a.tokenCasts)), "count", n)
	add("core.xfer_bytes_per_op", per(float64(z.xferBytes-a.xferBytes)), "B", n)

	// isis / simnet
	add("isis.msgs_per_op", per(float64(z.msgs[0]-a.msgs[0])), "count", n)
	add("isis.bytes_per_op", per(float64(z.bytes[0]-a.bytes[0])), "B", n)
	add("direct.msgs_per_op", per(float64(z.msgs[1]-a.msgs[1])), "count", n)
	add("direct.bytes_per_op", per(float64(z.bytes[1]-a.bytes[1])), "B", n)
	add("net.send_us_per_op", per(float64(z.sendNs-a.sendNs)/1e3), "us", n)

	// store
	var commits []time.Duration
	for _, s := range b.c.stores {
		commits = append(commits, s.lat...)
	}
	sortDurations(commits)
	syncs := float64(z.syncs - a.syncs)
	storeBytes := float64(z.storeBytes - a.storeBytes)
	userBytes := float64(kinds[opWrite] * w.block)
	add("store.commits_per_op", per(float64(z.commits-a.commits)), "count", n)
	add("store.fsyncs_per_op", per(syncs), "count", n)
	add("store.ops_per_fsync", ratio(float64(z.storeOps-a.storeOps), syncs), "count", int(syncs))
	add("store.commit_p50_ms", ms(quantile(commits, 0.5)), "ms", len(commits))
	add("store.commit_p99_ms", ms(quantile(commits, 0.99)), "ms", len(commits))
	add("store.bytes_per_op", per(storeBytes), "B", n)
	add("store.bytes_per_user_byte", ratio(storeBytes, userBytes), "ratio", int(userBytes))
	add("store.busy_frac", ratio(float64(z.busyNs-a.busyNs), float64(cellSize)*float64(z.at.Sub(a.at))), "frac", n)
	add("store.checkpoints", float64(z.checkpoints-a.checkpoints), "count", n)

	// process
	add("proc.cpu_ms_per_op", per(float64(z.cpu-a.cpu)/1e6), "ms", n)
	add("proc.allocs_per_op", per(float64(z.allocs-a.allocs)), "count", n)
	add("proc.gc_cpu_frac", ratio(z.gcCPU-a.gcCPU, z.totalCPU-a.totalCPU), "frac", n)

	// tracing itself
	add("trace.overhead_frac", ratio(ms(quantile(reads, 0.5)), ms(quantile(baseReads, 0.5)))-1, "frac", len(reads))
	rounds := d.probe.rounds.Load()
	add("trace.probe_frac", ratio(float64(rounds), float64(len(probed.recs))), "frac", int(rounds))
	return out
}

// finiteMS is ms for reports, which cannot hold an infinity: a latency that
// is never (failed or unfinished) reads -1.
func finiteMS(d time.Duration) float64 {
	if d == never {
		return -1
	}
	return ms(d)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
