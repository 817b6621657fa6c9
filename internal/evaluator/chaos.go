package evaluator

import (
	"time"

	"cloudybench/internal/cdb"
	"cloudybench/internal/chaos"
	"cloudybench/internal/check"
	"cloudybench/internal/core"
	"cloudybench/internal/obs"
	"cloudybench/internal/sim"
)

// ChaosConfig parameterizes one SUT's run through the chaos gauntlet.
type ChaosConfig struct {
	Kind cdb.Kind
	SF   int
	// Concurrency is the client count (default 16).
	Concurrency int
	// Span is the traffic window the fault schedule is compiled onto
	// (default 20s; must leave room for the replica restart, which takes up
	// to ~5s of virtual time depending on the SUT).
	Span time.Duration
	// Mix defaults to an all-four-transaction blend so every invariant has
	// work to judge (T1 inserts, T2 payments, T3 reads, T4 deletes).
	Mix  core.Mix
	Seed int64
	// Schedule overrides the standard gauntlet (nil = chaos.Standard(Span)).
	Schedule *chaos.Schedule
	// BreakReplayEveryNth deliberately breaks the replica's replay by
	// dropping every n-th shipped record — the convergence checker must
	// FAIL. Test-only: proves the harness has teeth.
	BreakReplayEveryNth int
	// Tracer, if non-nil, records per-transaction stage traces through the
	// gauntlet. Attaching it must not change the verdict sheet: the chaos
	// determinism test asserts byte-identical reports with tracing on/off.
	Tracer *obs.Tracer
}

func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.SF < 1 {
		c.SF = 1
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 16
	}
	if c.Span <= 0 {
		c.Span = 20 * time.Second
	}
	if c.Mix == (core.Mix{}) {
		c.Mix = core.Mix{T1: 30, T2: 20, T3: 40, T4: 10}
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// ChaosResult is one SUT's verdict sheet plus recovery metrics.
type ChaosResult struct {
	Kind cdb.Kind

	Verdicts []check.Verdict
	Applied  []chaos.Applied // faults actually injected, in firing order

	Commits int64
	Aborts  int64
	Errors  int64 // client-visible request failures (down node, IO fault)
	TPS     float64

	// InjectedFaults counts requests the IO-error burst rejected.
	InjectedFaults int64
	// QuiesceTime is how long after traffic stopped the replication
	// backlog took to drain — the recovery tail the faults left behind.
	QuiesceTime time.Duration
}

// Passed reports whether every invariant held.
func (r ChaosResult) Passed() bool { return check.AllPassed(r.Verdicts) }

// RunChaos drives one SUT through the standard fault schedule while the
// invariant recorder watches every transaction, then quiesces replication
// and passes judgement. Deterministic: the same config yields the same
// verdicts, metrics, and fault log.
func RunChaos(cfg ChaosConfig) ChaosResult {
	cfg = cfg.withDefaults()
	s := sim.New(simEpoch)
	prof := cdb.ProfileFor(cfg.Kind)
	prof.Replication.DropEveryNth = cfg.BreakReplayEveryNth
	d := gauntletDeploy(s, prof, cdb.Options{SF: cfg.SF, Seed: cfg.Seed, Tracer: cfg.Tracer})

	// The recorder watches the RW only: chaos never promotes, so every
	// write transaction runs there.
	rec := check.NewRecorder()
	d.RW().DB.SetObserver(rec)

	sched := chaos.Standard(cfg.Span)
	if cfg.Schedule != nil {
		sched = *cfg.Schedule
	}
	inj := startSchedule(s, d, sched, chaos.Targets{Seed: cfg.Seed})

	col := core.NewCollector()
	r := core.NewRunner(s, core.Config{
		Name: "chaos", Seed: cfg.Seed, Mix: cfg.Mix,
		Write: d.RW, Read: d.ReadNode,
		Collector: col,
		Tracer:    cfg.Tracer,
	})

	var quiesce time.Duration
	runControl(s, "chaos", func(p *sim.Proc) {
		trafficWindow(p, r, cfg.Concurrency, cfg.Span)
		stopAt := p.Elapsed()
		drainReplication(p, d, 10*time.Millisecond)
		quiesce = p.Elapsed() - stopAt
		d.Shutdown()
	})

	res := ChaosResult{
		Kind:        cfg.Kind,
		Applied:     inj.Applied(),
		Errors:      col.Errors(),
		TPS:         col.TPS(0, cfg.Span),
		QuiesceTime: quiesce,
	}
	res.Commits, res.Aborts = rec.Counts()
	for _, n := range d.Nodes() {
		res.InjectedFaults += n.InjectedFaults()
	}
	res.Verdicts = append(res.Verdicts,
		check.Conservation(rec),
		check.RowBalance(rec, d.RW().DB),
		check.ReadCommitted(rec),
	)
	res.Verdicts = append(res.Verdicts, memberVerdicts(d, false)...)
	return res
}
