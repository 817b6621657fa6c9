package evaluator

import (
	"time"

	"cloudybench/internal/cdb"
	"cloudybench/internal/chaos"
	"cloudybench/internal/check"
	"cloudybench/internal/core"
	"cloudybench/internal/sim"
)

// The steps below are the skeleton every fault gauntlet (RunChaos,
// RunCrash, RunPartition, RunSuite, RunSoak) is assembled from: deploy,
// start the fault schedule, drive a traffic window, wait out recovery,
// drain replication, judge the members. Each Run function keeps its own
// sequence and verdict list; only the shared mechanics live here.

// gauntletDeploy deploys the gauntlets' cluster shape — 1 RW + 1 RO at the
// provisioned (fixed) size, buffer pools pre-warmed. opts carries SF, Seed,
// and any per-gauntlet extras (Tracer, ExtraSchema).
func gauntletDeploy(s *sim.Sim, prof cdb.Profile, opts cdb.Options) *cdb.Deployment {
	opts.Replicas = 1
	opts.PreWarm = true
	opts.Serverless = cdb.Bool(false)
	return cdb.MustDeploy(s, prof, opts)
}

// startSchedule compiles sched onto the deployment's cluster, links, and
// endpoint registry and starts injecting; t carries the rest of the targets
// (Seed, CrashRecovery). A schedule that fails validation is a bug in the
// gauntlet, so it panics.
func startSchedule(s *sim.Sim, d *cdb.Deployment, sched chaos.Schedule, t chaos.Targets) *chaos.Injector {
	t.Cluster, t.Links, t.Net = d.Cluster, d.Links(), d.Net
	inj, err := chaos.NewInjector(s, sched, t)
	if err != nil {
		panic("evaluator: gauntlet schedule: " + err.Error())
	}
	inj.Start()
	return inj
}

// firstAt returns the injection time of the schedule's first event of one
// of the given kinds, or span (past the traffic window) if there is none.
func firstAt(sched chaos.Schedule, span time.Duration, kinds ...chaos.Kind) time.Duration {
	for _, ev := range sched.Events {
		for _, k := range kinds {
			if ev.Kind == k {
				return ev.At
			}
		}
	}
	return span
}

// trafficWindow runs r at conc clients for span of virtual time, then
// stops it and waits for every in-flight transaction to finish.
func trafficWindow(p *sim.Proc, r *core.Runner, conc int, span time.Duration) {
	r.SetConcurrency(conc)
	p.Sleep(span)
	r.Stop()
	r.Wait(p)
}

// awaitRecovery keeps the cluster running until done reports that service
// is restored. Recovery may land past the traffic window (a restart waits
// out the heal, then replays), so the wait is bounded by a virtual deadline
// that keeps a wedged recovery from hanging the run.
func awaitRecovery(p *sim.Proc, done func() bool) {
	deadline := p.Elapsed() + 2*time.Minute
	for p.Elapsed() < deadline && !done() {
		p.Sleep(500 * time.Millisecond)
	}
}

// drainReplication waits, polling every poll, until every replication
// stream has an empty backlog and has applied everything it shipped.
func drainReplication(p *sim.Proc, d *cdb.Deployment, poll time.Duration) {
	for _, st := range d.Streams() {
		for {
			shipped, applied := st.Counts()
			if st.Backlog() == 0 && shipped == applied {
				break
			}
			p.Sleep(poll)
		}
	}
}

// memberVerdicts judges every cluster member against the current RW after
// quiesce: IndexCoherent on every member (when indexes is set) and
// Convergence on every member other than the RW.
func memberVerdicts(d *cdb.Deployment, indexes bool) []check.Verdict {
	var vs []check.Verdict
	rw := d.RW()
	for _, m := range d.Cluster.Members() {
		name := cdb.ShortName(m.Node)
		if indexes {
			vs = append(vs, check.IndexCoherent(name, m.Node.DB))
		}
		if m.Node != rw {
			vs = append(vs, check.Convergence(name, rw.DB, m.Node.DB))
		}
	}
	return vs
}

// availabilityFloor is the commit rate below which a one-second bucket
// counts as unavailable: 5% of the baseline, at least 2 — raw zero would
// be fooled by stragglers draining lock queues mid-outage.
func availabilityFloor(baselineTPS float64) float64 {
	floor := baselineTPS * 0.05
	if floor < 2 {
		floor = 2
	}
	return floor
}

// runControl runs the simulation with fn as its control process; a
// kernel error (deadlock) is a bug in the run, so it panics.
func runControl(s *sim.Sim, what string, fn func(p *sim.Proc)) {
	s.Go("ctl", fn)
	if err := s.Run(); err != nil {
		panic("evaluator: " + what + " run: " + err.Error())
	}
}
