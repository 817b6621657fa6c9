package evaluator

import (
	"fmt"
	"sort"
	"time"

	"cloudybench/internal/cdb"
	"cloudybench/internal/chaos"
	"cloudybench/internal/check"
	"cloudybench/internal/core"
	"cloudybench/internal/engine"
	"cloudybench/internal/sim"
	"cloudybench/internal/storage"
)

// sortedNames fixes the walk order over a table map so summed planner
// stats accumulate deterministically.
func sortedNames(m map[string]*engine.Table) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Gauntlet selects the fault gauntlet a suite run composes with.
type Gauntlet int

const (
	// GauntletPlain runs the suite with no injected faults.
	GauntletPlain Gauntlet = iota
	// GauntletChaos runs the suite under the standard chaos schedule.
	GauntletChaos
	// GauntletPartition runs the suite under the gray-partition schedule
	// (fail-over or await-heal restart, lease fencing, resilient client).
	GauntletPartition
)

// String names the gauntlet as the reports print it.
func (g Gauntlet) String() string {
	switch g {
	case GauntletChaos:
		return "chaos"
	case GauntletPartition:
		return "partition"
	}
	return "plain"
}

// SuiteConfig parameterizes one registered workload suite's run on one SUT.
// Suites compose with the same gauntlets as the Table II mix — the standard
// chaos schedule or the gray-partition fail-over — so secondary-index
// maintenance is exercised under exactly the conditions the invariants
// judge.
type SuiteConfig struct {
	// Suite is a registered suite name (core.SuiteNames()).
	Suite string
	Kind  cdb.Kind
	SF    int
	// Concurrency is the client count (default 8).
	Concurrency int
	// Span is the traffic window (default 10s).
	Span time.Duration
	Seed int64
	// Gauntlet selects the fault schedule the suite runs under (default
	// GauntletPlain).
	Gauntlet Gauntlet
	// ScanOverride intercepts every read-only suite scan — the differential
	// harness's dual-plan hook. Nil scans through the planner normally.
	ScanOverride core.ScanFunc
}

func (c SuiteConfig) withDefaults() SuiteConfig {
	if c.SF < 1 {
		c.SF = 1
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 8
	}
	if c.Span <= 0 {
		c.Span = 10 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// SuiteResult is one suite × SUT verdict sheet plus planner and index-WAL
// accounting.
type SuiteResult struct {
	Suite string
	Kind  cdb.Kind

	Commits   int64
	Errors    int64
	Terminals int64
	TPS       float64
	// Ops is the per-operation commit breakdown, sorted by op name.
	Ops []core.OpCount

	// IndexScans / FullScans total the planner's choices across every node
	// and table (the selectivity sweep shows up as a split between them).
	IndexScans int64
	FullScans  int64
	// IndexWALPuts / IndexWALDels count the RecIndexPut / RecIndexDelete
	// records across all node logs — proof that index maintenance flows
	// through the WAL (and therefore through fencing and replication).
	IndexWALPuts int64
	IndexWALDels int64

	Fenced int64
	Epoch  uint64

	Verdicts []check.Verdict
	Applied  []chaos.Applied
}

// Passed reports whether every invariant held.
func (r SuiteResult) Passed() bool { return check.AllPassed(r.Verdicts) }

// RunSuite drives one registered suite against one SUT, optionally under
// the chaos or partition gauntlet, then judges IndexCoherent on every node
// and Convergence on every replica. Deterministic: the same config yields
// the same verdicts and metrics.
func RunSuite(cfg SuiteConfig) SuiteResult {
	cfg = cfg.withDefaults()
	suite := core.SuiteByName(cfg.Suite)
	if suite == nil {
		panic(fmt.Sprintf("evaluator: unknown suite %q (have %v)", cfg.Suite, core.SuiteNames()))
	}
	partition := cfg.Gauntlet == GauntletPartition
	s := sim.New(simEpoch)
	d := gauntletDeploy(s, cdb.ProfileFor(cfg.Kind), cdb.Options{
		SF: cfg.SF, Seed: cfg.Seed,
		ExtraSchema: func(db *engine.DB) error { return suite.Tables(db, cfg.SF, cfg.Seed) },
	})

	var inj *chaos.Injector
	injectAt := cfg.Span
	switch cfg.Gauntlet {
	case GauntletChaos:
		inj = startSchedule(s, d, chaos.Standard(cfg.Span), chaos.Targets{Seed: cfg.Seed})
	case GauntletPartition:
		d.Fence.SetRecording(true)
		sched := PartitionSchedule(cfg.Span)
		injectAt = firstAt(sched, cfg.Span, chaos.Partition, chaos.AsymPartition)
		inj = startSchedule(s, d, sched, chaos.Targets{Seed: cfg.Seed})
		d.StartDetector()
	}

	col := core.NewCollector()
	r := core.NewRunner(s, core.Config{
		Name: "suite/" + cfg.Suite, Seed: cfg.Seed,
		Write:          d.RW,
		Read:           d.ReadNode,
		ReadCandidates: d.ReadCandidates,
		Reachable:      d.ClientReachable,
		Collector:      col,
		Ops:            suite.Ops(cfg.SF),
		ScanOverride:   cfg.ScanOverride,
	})

	runControl(s, "suite", func(p *sim.Proc) {
		trafficWindow(p, r, cfg.Concurrency, cfg.Span)
		if partition {
			// Judge the post-fail-over index state, not the mid-outage one.
			awaitRecovery(p, func() bool { return recoveredAfter(d.Cluster.Timeline(), injectAt) })
		}
		drainReplication(p, d, 10*time.Millisecond)
		d.Shutdown()
	})

	res := SuiteResult{
		Suite:     cfg.Suite,
		Kind:      cfg.Kind,
		Commits:   col.Commits(),
		Errors:    col.Errors(),
		Terminals: col.Terminals(),
		TPS:       col.TPS(0, cfg.Span),
		Ops:       col.OpCounts(),
		Fenced:    d.Fence.Rejects(),
		Epoch:     d.Fence.Epoch(),
	}
	if inj != nil {
		res.Applied = inj.Applied()
	}
	for _, n := range d.Nodes() {
		tables := n.DB.Tables()
		for _, name := range sortedNames(tables) {
			ix, full := tables[name].ScanStats()
			res.IndexScans += ix
			res.FullScans += full
		}
		for _, rec := range n.DB.Log().Read(0, 0) {
			switch rec.Type {
			case storage.RecIndexPut:
				res.IndexWALPuts++
			case storage.RecIndexDelete:
				res.IndexWALDels++
			}
		}
	}

	// Verdicts: the lease trio (partition only), index coherence on every
	// node, convergence on every replica.
	if partition {
		res.Verdicts = append(res.Verdicts, check.FenceVerdicts(d.Fence)...)
	}
	res.Verdicts = append(res.Verdicts, memberVerdicts(d, true)...)
	return res
}
