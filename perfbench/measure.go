package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync/atomic"
	"time"
)

// repResult is what one repetition of a workload measured. Workloads fill
// the simulation-side fields; runRep adds the process-side ones.
type repResult struct {
	wall    time.Duration   // host time of the whole repetition, set-up included
	setup   time.Duration   // host time of the workload's deploy calls
	simHost time.Duration   // host time of the simulation the counts below cover
	commits float64         // simulated committed transactions within simHost
	virt    time.Duration   // virtual time simulated within simHost
	cells   []time.Duration // host time per cell (one evaluator call or SUT run)

	checks   int      // correctness checks run
	failures []string // one line per failed check
	digest   string   // hash of every simulated result of the repetition

	// layer holds per-layer counters and the host-time spans the workload
	// recorded around its own calls into each layer.
	layer map[string]float64

	traced     bool
	allocBytes uint64
	gcCycles   uint64
	peakLive   uint64
	goroutines uint64
}

// check records one correctness check; a false ok counts as a failure.
func (r *repResult) check(ok bool, format string, args ...any) {
	r.checks++
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// add accumulates a per-layer counter.
func (r *repResult) add(name string, v float64) {
	if r.layer == nil {
		r.layer = make(map[string]float64)
	}
	r.layer[name] += v
}

// repEnv is what a workload sees of the measuring harness.
type repEnv struct {
	traced bool
	probe  *heapProbe
}

// measurement is every repetition of one run plus the run-level checks.
type measurement struct {
	reps        []repResult
	attempted   int
	failed      int
	failures    []string
	digest      string
	tailPct     int
	cellsPerRep int
	buckets     map[string]float64 // CPU-profile seconds over all traced reps
	sched       *metrics.Float64Histogram
}

// measure repeats w until the budget is spent (at least three times, or
// four when traced so that traced and untraced repetitions alternate with
// two of each), stopping before a repetition that would overrun it.
func measure(w *workload, sc scale, budget time.Duration, traced bool, out io.Writer) measurement {
	probe := newHeapProbe()
	defer probe.stop()
	minReps := 3
	if traced {
		minReps = 4
	}
	m := measurement{buckets: make(map[string]float64)}
	start := time.Now()
	for {
		tr := traced && len(m.reps)%2 == 1
		r := runRep(w, sc, repEnv{traced: tr, probe: probe}, &m)
		m.reps = append(m.reps, r)
		fmt.Fprintf(out, "rep %d: traced=%t wall=%.3fs setup=%.3fs sim=%.3fs commits=%.0f virt=%.3fs alloc=%.1fMB live=%.1fMB checks=%d failed=%d digest=%s\n",
			len(m.reps), r.traced, r.wall.Seconds(), r.setup.Seconds(), r.simHost.Seconds(), r.commits,
			r.virt.Seconds(), float64(r.allocBytes)/1e6, float64(r.peakLive)/1e6, r.checks, len(r.failures), r.digest)
		if len(m.reps) >= minReps && time.Since(start)+medianDur(walls(m.reps)) > budget {
			break
		}
	}

	m.finish()
	return m
}

// finish folds the per-repetition checks into the run's totals and adds one
// check per repetition after the first: every repetition runs the same
// seeded inputs, traced or not, so each must reproduce the first digest.
func (m *measurement) finish() {
	m.digest = m.reps[0].digest
	for i, r := range m.reps {
		m.attempted += r.checks
		m.failed += len(r.failures)
		for _, f := range r.failures {
			m.failures = append(m.failures, fmt.Sprintf("rep %d: %s", i+1, f))
		}
		if i > 0 {
			m.attempted++
			if r.digest != m.digest {
				m.failed++
				m.failures = append(m.failures, fmt.Sprintf("rep %d: sim_digest %s differs from rep 1's %s", i+1, r.digest, m.digest))
			}
		}
	}
	m.cellsPerRep = len(m.reps[0].cells)
	m.tailPct = tailPercentile(m.cellsPerRep)
}

// runRep runs one repetition from a collected heap, recording allocation,
// GC cycles and the live-heap peak around it, and a CPU profile when traced.
func runRep(w *workload, sc scale, env repEnv, m *measurement) repResult {
	runtime.GC()
	env.probe.reset()
	before := readRuntime()
	var prof bytes.Buffer
	if env.traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			panic("perfbench: start CPU profile: " + err.Error())
		}
	}
	t0 := time.Now()
	r := w.run(sc, env)
	r.wall = time.Since(t0)
	if env.traced {
		pprof.StopCPUProfile()
	}
	after := readRuntime()
	r.traced = env.traced
	r.allocBytes = after.allocBytes - before.allocBytes
	r.gcCycles = after.gcCycles - before.gcCycles
	r.peakLive = env.probe.peakLive()
	r.goroutines = env.probe.peakGoroutines.Load()
	if env.traced {
		buckets, err := profileBuckets(prof.Bytes())
		if err != nil {
			panic("perfbench: read CPU profile: " + err.Error())
		}
		for k, v := range buckets {
			m.buckets[k] += v
		}
		m.sched = addHist(m.sched, subHist(after.schedLat, before.schedLat))
	}
	return r
}

// endToEnd returns the end-to-end metrics: the median over untraced
// repetitions of each per-repetition value.
func (m measurement) endToEnd() map[string]metric {
	var wall, setup, txnRate, virtRate, p50, tail, alloc, live []float64
	for _, r := range m.reps {
		if r.traced {
			continue
		}
		cells := durSeconds(r.cells)
		sort.Float64s(cells)
		wall = append(wall, r.wall.Seconds())
		setup = append(setup, r.setup.Seconds())
		txnRate = append(txnRate, r.commits/r.simHost.Seconds())
		virtRate = append(virtRate, r.virt.Seconds()/r.simHost.Seconds())
		p50 = append(p50, nearestRank(cells, 50))
		tail = append(tail, nearestRank(cells, m.tailPct))
		alloc = append(alloc, float64(r.allocBytes)/1e6)
		live = append(live, float64(r.peakLive)/1e6)
	}
	return map[string]metric{
		"wall_s":            {median(wall), "s"},
		"setup_s":           {median(setup), "s"},
		"sim_txn_per_s":     {median(txnRate), "1/s"},
		"virt_s_per_host_s": {median(virtRate), "s/s"},
		"cell_s_p50":        {median(p50), "s"},
		"cell_s_tail":       {median(tail), "s"},
		"alloc_mb":          {median(alloc), "MB"},
		"peak_live_heap_mb": {median(live), "MB"},
	}
}

// perLayer returns the per-layer metrics of the traced repetitions:
// counters and spans as their median, CPU-profile buckets as seconds per
// repetition, and the tracing overhead as traced minus untraced median wall.
func (m measurement) perLayer() map[string]metric {
	var traced, untraced []repResult
	for _, r := range m.reps {
		if r.traced {
			traced = append(traced, r)
		} else {
			untraced = append(untraced, r)
		}
	}
	out := make(map[string]metric)
	for _, d := range layerMetrics {
		vals := make([]float64, len(traced))
		for i, r := range traced {
			vals[i] = r.layer[d.name]
		}
		out[d.name] = metric{median(vals), d.unit}
	}
	n := float64(len(traced))
	total := 0.0
	for _, b := range profileBucketNames() {
		out[b] = metric{m.buckets[b] / n, "s"}
		total += m.buckets[b]
	}
	out["profile.total_s"] = metric{total / n, "s"}

	var gc, perTxn, gor []float64
	for _, r := range traced {
		gc = append(gc, float64(r.gcCycles))
		perTxn = append(perTxn, float64(r.allocBytes)/math.Max(r.layer["core.commits"], 1))
		gor = append(gor, float64(r.goroutines))
	}
	sort.Float64s(gor)
	out["runtime.gc_cycles"] = metric{median(gc), "count"}
	out["runtime.alloc_bytes_per_txn"] = metric{median(perTxn), "B"}
	out["runtime.goroutines_peak"] = metric{gor[len(gor)-1], "count"}
	out["runtime.sched_latency_p99_us"] = metric{histQuantile(m.sched, 0.99) * 1e6, "us"}
	out["trace.overhead_s"] = metric{medianDur(walls(traced)).Seconds() - medianDur(walls(untraced)).Seconds(), "s"}
	return out
}

// layerDef names one per-layer counter or span a workload reports.
type layerDef struct{ name, unit string }

// layerMetrics lists the per-layer counters and spans every workload
// reports (a layer a workload does not reach, or cannot observe through the
// evaluator entry point it calls, reads 0).
var layerMetrics = []layerDef{
	{"core.commits", "count"},
	{"core.errors", "count"},
	{"core.terminals", "count"},
	{"engine.aborts", "count"},
	{"engine.lock_waits", "count"},
	{"engine.lock_timeouts", "count"},
	{"node.cpu_busy_vcore_s", "s"},
	{"node.page_reads", "count"},
	{"node.page_writes", "count"},
	{"storage.buf_hit_ratio", "ratio"},
	{"storage.buf_evictions", "count"},
	{"storage.wal_records", "count"},
	{"storage.wal_bytes_per_commit", "B"},
	{"replication.shipped", "count"},
	{"replication.applied", "count"},
	{"replication.mean_update_lag_ms", "ms"},
	{"cluster.recovery_records_scanned", "count"},
	{"cluster.redo_records", "count"},
	{"cluster.losers_undone", "count"},
	{"cluster.torn_cuts", "count"},
	{"cluster.recovery_virt_ms", "ms"},
	{"check.verdicts_run", "count"},
	{"check.verdicts_failed", "count"},
	{"check.run_s", "s"},
	{"cdb.deploy_s", "s"},
	{"sim.run_s", "s"},
	{"evaluator.warm_requests", "count"},
	{"evaluator.warm_computed", "count"},
	{"obs.cpu_virt_us_per_txn", "us"},
	{"obs.lock_wait_virt_us_per_txn", "us"},
	{"obs.latch_virt_us_per_txn", "us"},
	{"obs.page_read_virt_us_per_txn", "us"},
	{"obs.page_write_virt_us_per_txn", "us"},
	{"obs.wal_append_virt_us_per_txn", "us"},
	{"obs.net_hop_virt_us_per_txn", "us"},
	{"obs.replication_ship_virt_us_per_txn", "us"},
	{"obs.checkpoint_stall_virt_us_per_txn", "us"},
}

// heapProbe tracks the live heap and the goroutine count. Its primary
// readings come after a forced GC at points the benchmark controls (the end
// of a measured window, the end of a sweep); a workload whose simulation runs
// entirely inside one evaluator call has no such point, so the probe also
// keeps the live heap marked by every natural GC cycle, observed through a
// finalizer that re-arms itself each cycle.
type heapProbe struct {
	forcedLive     atomic.Uint64
	naturalLive    atomic.Uint64
	peakGoroutines atomic.Uint64
	stopped        atomic.Bool
}

type gcSentinel struct{ _ [64]byte }

func newHeapProbe() *heapProbe {
	h := &heapProbe{}
	h.arm()
	return h
}

func (h *heapProbe) arm() {
	runtime.SetFinalizer(&gcSentinel{}, func(*gcSentinel) {
		if !h.stopped.Load() {
			h.observe(&h.naturalLive)
			h.arm()
		}
	})
}

func (h *heapProbe) stop() { h.stopped.Store(true) }

func (h *heapProbe) reset() {
	h.forcedLive.Store(0)
	h.naturalLive.Store(0)
	h.peakGoroutines.Store(0)
}

// peakLive is the highest forced reading, or the highest natural one when
// the repetition forced none.
func (h *heapProbe) peakLive() uint64 {
	if v := h.forcedLive.Load(); v > 0 {
		return v
	}
	return h.naturalLive.Load()
}

// observe folds the live heap marked by the last GC cycle into peak and the
// current goroutine count into peakGoroutines.
func (h *heapProbe) observe(peak *atomic.Uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/sched/goroutines:goroutines"}}
	metrics.Read(s)
	raiseTo(peak, s[0].Value.Uint64())
	raiseTo(&h.peakGoroutines, s[1].Value.Uint64())
}

func raiseTo(peak *atomic.Uint64, v uint64) {
	for old := peak.Load(); v > old && !peak.CompareAndSwap(old, v); old = peak.Load() {
	}
}

// force collects garbage and observes the resulting live heap.
func (h *heapProbe) force() {
	runtime.GC()
	h.observe(&h.forcedLive)
}

// runtimeReading is a snapshot of the process-wide runtime counters.
type runtimeReading struct {
	allocBytes uint64
	gcCycles   uint64
	schedLat   *metrics.Float64Histogram
}

func readRuntime() runtimeReading {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/sched/latencies:seconds"},
	}
	metrics.Read(s)
	return runtimeReading{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		schedLat:   s[2].Value.Float64Histogram(),
	}
}

func subHist(a, b *metrics.Float64Histogram) *metrics.Float64Histogram {
	out := &metrics.Float64Histogram{Buckets: a.Buckets, Counts: make([]uint64, len(a.Counts))}
	for i := range a.Counts {
		out.Counts[i] = a.Counts[i] - b.Counts[i]
	}
	return out
}

func addHist(acc, h *metrics.Float64Histogram) *metrics.Float64Histogram {
	if acc == nil {
		return h
	}
	for i := range h.Counts {
		acc.Counts[i] += h.Counts[i]
	}
	return acc
}

// histQuantile returns the upper bound of the bucket holding quantile q
// (its lower bound when the upper one is infinite), or 0 for no samples.
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	if h == nil {
		return 0
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	need := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= need {
			if hi := h.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return h.Buckets[i]
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}

// tailPercentile is the highest whole percentile whose nearest-rank cell
// still has at least ten cells beyond it, or 100 (the slowest cell) when
// there are too few cells for any.
func tailPercentile(n int) int {
	for p := 99; p >= 1; p-- {
		idx := int(math.Ceil(float64(p)/100*float64(n))) - 1
		if n-1-idx >= 10 {
			return p
		}
	}
	return 100
}

// nearestRank returns the p-th percentile of sorted values by nearest rank.
func nearestRank(sorted []float64, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(float64(p)/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianDur(ds []time.Duration) time.Duration {
	return time.Duration(median(durSeconds(ds)) * float64(time.Second))
}

func durSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func walls(reps []repResult) []time.Duration {
	out := make([]time.Duration, len(reps))
	for i, r := range reps {
		out[i] = r.wall
	}
	return out
}
