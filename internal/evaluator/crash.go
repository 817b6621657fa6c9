package evaluator

import (
	"time"

	"cloudybench/internal/cdb"
	"cloudybench/internal/chaos"
	"cloudybench/internal/check"
	"cloudybench/internal/cluster"
	"cloudybench/internal/core"
	"cloudybench/internal/engine"
	"cloudybench/internal/node"
	"cloudybench/internal/sim"
	"cloudybench/internal/storage"
)

// CrashConfig parameterizes one SUT's run through the durability gauntlet:
// steady mixed traffic, node kills at adversarial virtual instants (mid-burst
// with in-flight transactions, torn WAL tails, a replica resync, a repeat
// crash shortly after recovery), and a post-quiesce judgement of the two
// contracts a crash must not break — no acknowledged commit lost, no
// unacknowledged write resurrected.
type CrashConfig struct {
	Kind cdb.Kind
	SF   int
	// Concurrency is the client count (default 12).
	Concurrency int
	// Span is the traffic window the crash schedule is compiled onto
	// (default 20s; see CrashSchedule for the kill instants).
	Span time.Duration
	// Mix defaults to the all-four blend so the log carries inserts,
	// updates, and deletes when the crashes land.
	Mix  core.Mix
	Seed int64
	// Schedule overrides the standard crash schedule (nil =
	// CrashSchedule(Span)).
	Schedule *chaos.Schedule
	// Recovery deliberately breaks every crash recovery in the run (the
	// teeth knobs: skip undo, trust torn tails). Test-only: the durability
	// verdicts must then FAIL, proving the gauntlet bites. Zero value =
	// honest ARIES recovery.
	Recovery engine.RecoveryOpts
}

func (c CrashConfig) withDefaults() CrashConfig {
	if c.SF < 1 {
		c.SF = 1
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 12
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

// CrashSchedule is the canonical durability gauntlet scaled onto a run
// window: the primary is killed mid-traffic at 25% with a torn WAL tail
// (recovery must detect the mangled record by checksum and cut it), the
// replica is killed at 45% (its volatile apply state dies; it resyncs from
// the primary's durable log), the primary again at 65% (clean tail, redo
// window grown since the last checkpoint), and once more at 85% with a
// second torn tail — landing close enough to the previous recovery that
// architectures with slow restarts take it while still ramping.
func CrashSchedule(span time.Duration) chaos.Schedule {
	frac := func(f float64) time.Duration { return time.Duration(float64(span) * f) }
	return chaos.Schedule{Events: []chaos.Event{
		{At: frac(0.25), Kind: chaos.NodeCrash, Target: "rw", Torn: storage.TornFlip},
		{At: frac(0.45), Kind: chaos.NodeCrash, Target: "ro0"},
		{At: frac(0.65), Kind: chaos.NodeCrash, Target: "rw"},
		{At: frac(0.85), Kind: chaos.NodeCrash, Target: "rw", Torn: storage.TornFlip},
	}}
}

// CrashResult is one SUT's durability report card.
type CrashResult struct {
	Kind cdb.Kind

	BaselineTPS float64

	Commits   int64
	Errors    int64
	Terminals int64 // transactions abandoned after the retry budget
	Reroutes  int64 // reads served by a fallback node
	Fenced    int64 // stale-epoch commits refused by the lease
	Epoch     uint64

	// Crashes carries each fired kill's recovery outcome: the ARIES stats
	// (records scanned, redo window, losers rolled back, torn tail cut) of
	// the pass that restored the node. Recovery time is emergent from these
	// inputs, not scripted.
	Crashes []chaos.CrashOutcome

	Verdicts []check.Verdict
	Timeline []cluster.PhaseEvent
	Applied  []chaos.Applied
}

// Passed reports whether every invariant held.
func (r CrashResult) Passed() bool { return check.AllPassed(r.Verdicts) }

// RunCrash drives one SUT through the durability gauntlet. One recorder is
// attached to every member's engine (observer hooks fire only on the node
// running write transactions, and recovery carries the observer onto each
// rebuilt instance), so the acknowledged-commit history spans every crash
// and promotion in the run. Deterministic: the same config yields the same
// verdicts, recovery stats, and timeline.
func RunCrash(cfg CrashConfig) CrashResult {
	cfg = cfg.withDefaults()
	s := sim.New(simEpoch)
	d := gauntletDeploy(s, cdb.ProfileFor(cfg.Kind), cdb.Options{SF: cfg.SF, Seed: cfg.Seed})

	rec := check.NewRecorder()
	for _, m := range d.Cluster.Members() {
		m.Node.DB.SetObserver(rec)
	}
	d.Fence.SetRecording(true)

	sched := CrashSchedule(cfg.Span)
	if cfg.Schedule != nil {
		sched = *cfg.Schedule
	}
	injectAt := firstAt(sched, cfg.Span, chaos.NodeCrash)
	inj := startSchedule(s, d, sched, chaos.Targets{Seed: cfg.Seed, CrashRecovery: cfg.Recovery})
	d.StartDetector()

	col := core.NewCollector()
	r := core.NewRunner(s, core.Config{
		Name: "crash", Seed: cfg.Seed, Mix: cfg.Mix,
		Write:          d.RW,
		Read:           d.ReadNode,
		ReadCandidates: d.ReadCandidates,
		Reachable:      d.ClientReachable,
		Collector:      col,
	})

	runControl(s, "crash", func(p *sim.Proc) {
		trafficWindow(p, r, cfg.Concurrency, cfg.Span)
		// The last kill lands near the end of the traffic window: keep the
		// cluster running until every member is back in service.
		awaitRecovery(p, func() bool {
			for _, m := range d.Cluster.Members() {
				if m.Node.State() != node.Running {
					return false
				}
			}
			return true
		})
		// Quiesce replication: the resynced replica drains any backlog that
		// accumulated while it was down.
		drainReplication(p, d, 10*time.Millisecond)
		d.Shutdown()
	})

	res := CrashResult{
		Kind:      cfg.Kind,
		Commits:   col.Commits(),
		Errors:    col.Errors(),
		Terminals: col.Terminals(),
		Reroutes:  r.Reroutes(),
		Fenced:    d.Fence.Rejects(),
		Epoch:     d.Fence.Epoch(),
		Crashes:   inj.Crashes(),
		Timeline:  d.Cluster.Timeline(),
		Applied:   inj.Applied(),
	}
	res.BaselineTPS = col.TPS(0, injectAt)

	// Verdicts. Durability and NoResurrection judge the full cross-crash
	// history against the surviving primary's state; the commit path is
	// crash-atomic after the durability wait (engine commit, client ack, and
	// replication publish run in one runnable slice), so the acknowledged set
	// the recorder saw is exactly the durable set recovery must restore.
	rwDB := d.RW().DB
	res.Verdicts = append(res.Verdicts, check.FenceVerdicts(d.Fence)...)
	res.Verdicts = append(res.Verdicts,
		check.Durability("rw", rec, rwDB),
		check.NoResurrection("rw", rec, rwDB),
		check.Conservation(rec),
		check.ReadCommitted(rec),
	)
	res.Verdicts = append(res.Verdicts, memberVerdicts(d, true)...)
	return res
}
