package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"

	"cloudybench/internal/cdb"
	"cloudybench/internal/core"
	"cloudybench/internal/engine"
	"cloudybench/internal/patterns"
)

// testScale shrinks every workload so the tests run in seconds; the
// workload code paths are the benchmark's own.
func testScale(seed int64) scale {
	sc := defaultScale(seed)
	sc.Kinds = []cdb.Kind{cdb.RDS, cdb.CDB4}
	sc.Clients = 200
	sc.Warmup = 50 * time.Millisecond
	sc.Measure = 100 * time.Millisecond
	sc.CrashSpan = 3 * time.Second
	sc.Sweep = sweepScale{
		Mixes:         []core.Mix{core.MixReadWrite},
		Concurrency:   []int{20, 40},
		Warmup:        50 * time.Millisecond,
		Measure:       50 * time.Millisecond,
		TableVConc:    40,
		TableVMeasure: 80 * time.Millisecond,
		BufferKinds:   []cdb.Kind{cdb.RDS},
		Buffers:       []int64{32 << 20, 512 << 20},
		BufferConc:    20,
		ElasticKinds:  []cdb.Kind{cdb.CDB3},
		Elastic:       []patterns.Elastic{patterns.ZeroValley},
		ElasticSlot:   100 * time.Millisecond,
		CostSlots:     4,
		Tau:           20,
		Tenancy:       []patterns.TenancyKind{patterns.LowContention},
		TenancySlot:   50 * time.Millisecond,
	}
	return sc
}

// measureReps runs one repetition per entry of traced (true = traced) and
// folds them like the command does.
func measureReps(t *testing.T, name string, sc scale, traced ...bool) measurement {
	t.Helper()
	probe := newHeapProbe()
	defer probe.stop()
	m := measurement{buckets: make(map[string]float64)}
	for _, tr := range traced {
		m.reps = append(m.reps, runRep(workloads[name], sc, repEnv{traced: tr, probe: probe}, &m))
	}
	m.finish()
	return m
}

func TestDigestRepeatsAndTracingDoesNotPerturb(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			m := measureReps(t, name, testScale(3), false, false, true)
			if m.failed != 0 {
				t.Fatalf("%d of %d checks failed: %v", m.failed, m.attempted, m.failures)
			}
			for i, r := range m.reps {
				if r.digest != m.digest {
					t.Errorf("rep %d (traced=%t) digest %s, rep 1 %s", i+1, r.traced, r.digest, m.digest)
				}
			}
			other := measureReps(t, name, testScale(4), false)
			if other.digest == m.digest {
				t.Errorf("seeds 3 and 4 gave the same digest %s", m.digest)
			}
		})
	}
}

func TestSweepStartsColdEveryRepetition(t *testing.T) {
	m := measureReps(t, "artifact-sweep", testScale(2), false, false)
	a, b := m.reps[0].layer, m.reps[1].layer
	if a["evaluator.warm_computed"] == 0 || a["evaluator.warm_computed"] != b["evaluator.warm_computed"] {
		t.Fatalf("warm_computed %v then %v, want equal and non-zero", a["evaluator.warm_computed"], b["evaluator.warm_computed"])
	}
	if a["evaluator.warm_requests"] <= a["evaluator.warm_computed"] {
		t.Errorf("no warm-up was shared: %v requests, %v computed", a["evaluator.warm_requests"], a["evaluator.warm_computed"])
	}
}

// reportOf renders m and returns the exit code, the check_fail_ratio line's
// value and the decoded result line.
func reportOf(t *testing.T, m measurement, traced bool) (int, float64, resultLine) {
	t.Helper()
	var out bytes.Buffer
	code := report(m, traced, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.String())
	}
	ratio := -1.0
	for _, l := range lines {
		if v, ok := strings.CutPrefix(l, "check_fail_ratio: "); ok {
			ratio, _ = strconv.ParseFloat(strings.Fields(v)[0], 64)
		}
	}
	return code, ratio, res
}

func TestCrashGateBitesWithBrokenRecovery(t *testing.T) {
	sc := testScale(1)
	sc.Kinds = []cdb.Kind{cdb.RDS}
	sc.CrashSpan = 10 * time.Second
	sc.Recovery = engine.RecoveryOpts{SkipUndo: true, SkipTornCheck: true}
	m := measureReps(t, "crash-durable", sc, false)
	var durability bool
	for _, f := range m.failures {
		if strings.Contains(f, "durability/rw") || strings.Contains(f, "no-resurrection/rw") {
			durability = true
		}
	}
	if !durability {
		t.Fatalf("no durability or no-resurrection verdict failed: %v", m.failures)
	}
	code, ratio, res := reportOf(t, m, false)
	if code == 0 || ratio <= 0 || res.Correct || res.Failed == 0 {
		t.Fatalf("exit %d, check_fail_ratio %v, result %+v: the gate did not bite", code, ratio, res)
	}
}

func TestOLTPGateBitesWithDroppedReplication(t *testing.T) {
	sc := testScale(1)
	sc.Kinds = []cdb.Kind{cdb.RDS}
	sc.Profile = func(k cdb.Kind) cdb.Profile {
		p := cdb.ProfileFor(k)
		p.Replication.DropEveryNth = 7
		return p
	}
	m := measureReps(t, "oltp-crowd", sc, false)
	var convergence bool
	for _, f := range m.failures {
		if strings.Contains(f, "convergence") {
			convergence = true
		}
	}
	if !convergence {
		t.Fatalf("convergence did not fail: %v", m.failures)
	}
	code, ratio, res := reportOf(t, m, false)
	if code == 0 || ratio <= 0 || res.Correct {
		t.Fatalf("exit %d, check_fail_ratio %v, result %+v: the gate did not bite", code, ratio, res)
	}
}

// TestReportMatchesBenchmarkJSON checks that both modes print exactly the
// metrics BENCHMARK.json declares, with its units.
func TestReportMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	m := measureReps(t, "oltp-crowd", testScale(5), false, true)
	for _, mode := range []struct {
		traced bool
		want   []struct{ Name, Unit string }
	}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
		code, _, res := reportOf(t, m, mode.traced)
		if code != 0 || !res.Correct || res.Attempted < 1 {
			t.Fatalf("traced=%t: exit %d, result %+v", mode.traced, code, res)
		}
		if len(res.Metrics) != len(mode.want) {
			t.Errorf("traced=%t: %d metrics printed, BENCHMARK.json declares %d", mode.traced, len(res.Metrics), len(mode.want))
		}
		for _, w := range mode.want {
			got, ok := res.Metrics[w.Name]
			if !ok || got.Unit != w.Unit {
				t.Errorf("traced=%t: metric %s = %+v (present %t), want unit %s", mode.traced, w.Name, got, ok, w.Unit)
			}
		}
	}
	_, _, res := reportOf(t, m, true)
	var sum float64
	for _, b := range profileBucketNames() {
		sum += res.Metrics[b].Value
	}
	if total := res.Metrics["profile.total_s"].Value; total <= 0 || sum < total*0.999 || sum > total*1.001 {
		t.Errorf("profile buckets sum to %v, total %v", sum, total)
	}
}

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"}, gcBucket},
		{[]string{"runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.mallocgc", "cloudybench/internal/engine.(*Txn).Commit"}, gcBucket},
		{[]string{"runtime.futex", "runtime.stopm", "runtime.findRunnable", "runtime.schedule", "runtime.park_m",
			"runtime.mcall", "runtime.gopark", "runtime.chanrecv1", "cloudybench/internal/sim.(*Proc).Sleep"}, schedBucket},
		{[]string{"runtime.mallocgc", "cloudybench/internal/engine.(*Txn).Commit", "cloudybench/internal/node.(*Tx).Commit"}, "engine.self_s"},
		{[]string{"cloudybench/internal/storage.(*BufferPool).Admit", "cloudybench/internal/node.(*Node).chargeCPU"}, "storage.self_s"},
		{[]string{"cloudybench/internal/pricing.PerMinuteBreakdown", "cloudybench/internal/evaluator.RunOLTP"}, otherBucket},
		{[]string{"main.runRep"}, otherBucket},
	} {
		if got := classify(c.frames); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}

func TestProfileBucketsDecodeARealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(nil)
	for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
		sum = sha256.Sum256(sum[:])
	}
	pprof.StopCPUProfile()
	buckets, err := profileBuckets(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range buckets {
		total += v
	}
	if total < 0.05 || buckets[otherBucket] < total/2 {
		t.Fatalf("buckets %v: want most of about 0.3 CPU seconds in other", buckets)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "oltp-crowd", "--trace", "2"},
		{"--workload", "oltp-crowd", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with output %q, want 2 and none", args, code, out.String())
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for n, want := range map[int]int{5: 100, 10: 100, 11: 9, 20: 50, 62: 83, 100: 90} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %d, want %d", n, got, want)
		}
	}
}
