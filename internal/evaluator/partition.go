package evaluator

import (
	"strings"
	"time"

	"cloudybench/internal/cdb"
	"cloudybench/internal/chaos"
	"cloudybench/internal/check"
	"cloudybench/internal/cluster"
	"cloudybench/internal/core"
	"cloudybench/internal/sim"
	"cloudybench/internal/storage"
)

// PartitionConfig parameterizes one SUT's run through the partition
// gauntlet: a gray network partition (clients still reach the old primary,
// the control plane and the replica do not), the profile's failure detector
// reacting with a lease-fenced fail-over (or await-heal restart), and the
// resilient client riding through on backoff, breakers, and reroutes.
type PartitionConfig struct {
	Kind cdb.Kind
	SF   int
	// Concurrency is the client count (default 12).
	Concurrency int
	// Span is the traffic window the partition schedule is compiled onto
	// (default 20s: cut at 25%, heal at 60%).
	Span time.Duration
	// Mix defaults to the all-four blend so writes hit the fence and reads
	// exercise the reroute path.
	Mix  core.Mix
	Seed int64
	// Schedule overrides the standard partition schedule (nil =
	// PartitionSchedule(Span)).
	Schedule *chaos.Schedule
	// DisableFencing deliberately breaks the write lease: stale-epoch
	// commits are acknowledged instead of rejected. Test-only: the
	// no-split-brain checker must then FAIL, proving it has teeth.
	DisableFencing bool
}

func (c PartitionConfig) withDefaults() PartitionConfig {
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

// PartitionSchedule is the canonical partition gauntlet scaled onto a run
// window: at 25% of the span the primary is cut from the control plane and
// the replica — but NOT from clients (a gray partition: the old primary
// keeps taking writes, which is exactly what the lease must fence). The cut
// heals at 60%.
func PartitionSchedule(span time.Duration) chaos.Schedule {
	frac := func(f float64) time.Duration { return time.Duration(float64(span) * f) }
	groupA, groupB := []string{"rw"}, []string{"ctrl", "ro0"}
	return chaos.Schedule{Events: []chaos.Event{
		{At: frac(0.25), Kind: chaos.Partition, GroupA: groupA, GroupB: groupB},
		{At: frac(0.60), Kind: chaos.Heal, GroupA: groupA, GroupB: groupB},
	}}
}

// PartitionResult is one SUT's partition-tolerance report card.
type PartitionResult struct {
	Kind cdb.Kind

	BaselineTPS float64
	// MTTD is detection: partition injection until the detector suspects
	// the primary.
	MTTD time.Duration
	// MTTR is repair: partition injection until write service is restored
	// (promotion completing, or the healed primary restarting).
	MTTR time.Duration
	// Unavailable totals the whole-second buckets inside the observation
	// window whose commit rate fell below the availability threshold.
	Unavailable time.Duration

	Commits   int64
	Errors    int64
	Terminals int64 // transactions abandoned after the retry budget
	Reroutes  int64 // reads served by a fallback node
	Fenced    int64 // stale-epoch commits refused by the lease
	Epoch     uint64

	Verdicts []check.Verdict
	Timeline []cluster.PhaseEvent
	Applied  []chaos.Applied
}

// Passed reports whether every invariant held.
func (r PartitionResult) Passed() bool { return check.AllPassed(r.Verdicts) }

// recoveredAfter reports whether the timeline shows write service restored
// after the given instant (promotion completing or a restart finishing).
func recoveredAfter(tl []cluster.PhaseEvent, at time.Duration) bool {
	return firstMarkAfter(tl, at, "RW' serving requests") > 0 ||
		firstMarkAfter(tl, at, "RW service restored") > 0
}

// firstMarkAfter returns the time of the first timeline event after `at`
// whose phase starts with the prefix (0 = none).
func firstMarkAfter(tl []cluster.PhaseEvent, at time.Duration, prefix string) time.Duration {
	for _, ev := range tl {
		if ev.At > at && strings.HasPrefix(ev.Phase, prefix) {
			return ev.At
		}
	}
	return 0
}

// RunPartition drives one SUT through the partition gauntlet and measures
// detection, repair, unavailability, and the lease invariants. Deterministic:
// the same config yields the same verdicts, metrics, and timeline.
func RunPartition(cfg PartitionConfig) PartitionResult {
	cfg = cfg.withDefaults()
	s := sim.New(simEpoch)
	d := gauntletDeploy(s, cdb.ProfileFor(cfg.Kind), cdb.Options{SF: cfg.SF, Seed: cfg.Seed})

	rec := check.NewRecorder()
	d.RW().DB.SetObserver(rec)
	d.Fence.SetRecording(true)
	if cfg.DisableFencing {
		d.Fence.Disable()
	}

	sched := PartitionSchedule(cfg.Span)
	if cfg.Schedule != nil {
		sched = *cfg.Schedule
	}
	injectAt := firstAt(sched, cfg.Span, chaos.Partition, chaos.AsymPartition)
	inj := startSchedule(s, d, sched, chaos.Targets{Seed: cfg.Seed})
	d.StartDetector()

	col := core.NewCollector()
	r := core.NewRunner(s, core.Config{
		Name: "partition", Seed: cfg.Seed, Mix: cfg.Mix,
		Write:          d.RW,
		Read:           d.ReadNode,
		ReadCandidates: d.ReadCandidates,
		Reachable:      d.ClientReachable,
		Collector:      col,
	})

	runControl(s, "partition", func(p *sim.Proc) {
		trafficWindow(p, r, cfg.Concurrency, cfg.Span)
		// An RDS-style restart waits out the heal and then replays for tens
		// of seconds: keep the cluster running until the timeline shows
		// service restored.
		awaitRecovery(p, func() bool { return recoveredAfter(d.Cluster.Timeline(), injectAt) })
		// Quiesce replication: the healed side drains its backlog (the
		// stopped pre-promotion stream is already balanced and stays so).
		drainReplication(p, d, 10*time.Millisecond)
		d.Shutdown()
	})

	res := PartitionResult{
		Kind:      cfg.Kind,
		Commits:   col.Commits(),
		Errors:    col.Errors(),
		Terminals: col.Terminals(),
		Reroutes:  r.Reroutes(),
		Fenced:    d.Fence.Rejects(),
		Epoch:     d.Fence.Epoch(),
		Timeline:  d.Cluster.Timeline(),
		Applied:   inj.Applied(),
	}
	res.BaselineTPS = col.TPS(0, injectAt)

	// Detection and repair, from the cluster's own marks.
	if at := firstMarkAfter(res.Timeline, injectAt, "partition: RW suspected"); at > 0 {
		res.MTTD = at - injectAt
	}
	if at := firstMarkAfter(res.Timeline, injectAt, "RW' serving requests"); at > 0 {
		res.MTTR = at - injectAt
	} else if at := firstMarkAfter(res.Timeline, injectAt, "RW service restored"); at > 0 {
		res.MTTR = at - injectAt
	}

	// Unavailability: whole-second buckets below a small fraction of the
	// baseline (raw zero would be fooled by stragglers draining lock
	// queues), counted across the traffic window after injection.
	threshold := availabilityFloor(res.BaselineTPS)
	for _, b := range col.TPSBuckets(injectAt, cfg.Span) {
		if b < threshold {
			res.Unavailable += time.Second
		}
	}

	// Verdicts. The lease trio judges the fence event log directly. The
	// history invariants are judged on the pre-fail-over prefix: after the
	// old primary rejoins as a replica, replay mutates its DB beneath the
	// recorder (Apply fires no observer hooks), so post-advance events would
	// be judged against state the history cannot see.
	res.Verdicts = append(res.Verdicts, check.FenceVerdicts(d.Fence)...)
	hist := rec
	if advanceAt := firstAdvance(d.Fence.Events()); advanceAt > 0 {
		hist = rec.Before(advanceAt)
	}
	res.Verdicts = append(res.Verdicts,
		check.Conservation(hist),
		check.ReadCommitted(hist),
	)
	// Convergence: after quiesce every member must match the current RW.
	res.Verdicts = append(res.Verdicts, memberVerdicts(d, false)...)
	return res
}

// firstAdvance returns the time of the first epoch advance in a fence log
// (0 = the lease never moved).
func firstAdvance(events []storage.FenceEvent) time.Duration {
	for _, ev := range events {
		if ev.Kind == storage.FenceAdvance {
			return ev.At
		}
	}
	return 0
}
