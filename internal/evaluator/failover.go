package evaluator

import (
	"time"

	"cloudybench/internal/cdb"
	"cloudybench/internal/cluster"
	"cloudybench/internal/core"
	"cloudybench/internal/node"
	"cloudybench/internal/sim"
)

// FailoverConfig parameterizes one fail-over run (paper §II-E, Table VIII,
// Figure 7): steady read-write traffic, a restart-model failure injection
// on the RW or an RO node, and two-phase recovery measurement.
type FailoverConfig struct {
	Kind cdb.Kind
	// Role selects the failed node (cluster.RW or cluster.RO).
	Role cluster.Role
	// Concurrency is the total worker count (paper: 150), split between a
	// write stream against the RW node and a read stream pinned to the
	// replica so each role's recovery is observable.
	Concurrency int
	// Baseline is the steady period before injection (default 10s).
	Baseline time.Duration
	// Timeout bounds the post-injection observation (default 120s).
	Timeout time.Duration
	SF      int
	Seed    int64
}

func (c FailoverConfig) withDefaults() FailoverConfig {
	if c.Concurrency <= 0 {
		c.Concurrency = 150
	}
	if c.Baseline <= 0 {
		c.Baseline = 10 * time.Second
	}
	if c.Timeout <= 0 {
		c.Timeout = 120 * time.Second
	}
	if c.SF < 1 {
		c.SF = 1
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// FailoverResult reports the two recovery phases.
type FailoverResult struct {
	Kind cdb.Kind
	Role cluster.Role

	BaselineTPS float64
	// F is phase one: failure injection until the service accepts
	// requests again (first TPS bucket above a small fraction of the
	// baseline — raw non-zero would be fooled by in-flight transactions
	// draining lock queues during the outage).
	F time.Duration
	// R is phase two: service recovery until TPS regains the pre-failure
	// level (first bucket at >= 90% of baseline).
	R time.Duration
	// Timeline is the cluster's phase trace (Figure 7 for CDB4).
	Timeline []cluster.PhaseEvent
}

// RunFailover injects one failure and measures recovery.
func RunFailover(cfg FailoverConfig) FailoverResult {
	cfg = cfg.withDefaults()
	s := sim.New(simEpoch)
	d := gauntletDeploy(s, cdb.ProfileFor(cfg.Kind), cdb.Options{SF: cfg.SF, Seed: cfg.Seed})

	// Write stream to the current RW (follows promotion); read stream
	// pinned to the first replica member (whichever node fills that role).
	writeCol, readCol := core.NewCollector(), core.NewCollector()
	retry := core.RetryPolicy{BackoffBase: 200 * time.Millisecond}
	writeRunner := core.NewRunner(s, core.Config{
		Name: "writes", Seed: cfg.Seed, Mix: core.MixReadWrite,
		Write: d.RW, Read: d.RW,
		Collector: writeCol, Retry: retry,
	})
	replicaNode := func() *node.Node { return d.Cluster.Replica(0).Node }
	readRunner := core.NewRunner(s, core.Config{
		Name: "reads", Seed: cfg.Seed + 1, Mix: core.MixReadOnly,
		Write: replicaNode, Read: replicaNode,
		Collector: readCol, Retry: retry,
	})

	writeCon := cfg.Concurrency / 3
	readCon := cfg.Concurrency - writeCon
	injectAt := cfg.Baseline
	end := injectAt + cfg.Timeout

	runControl(s, "failover", func(p *sim.Proc) {
		writeRunner.SetConcurrency(writeCon)
		readRunner.SetConcurrency(readCon)
		p.Sleep(injectAt)
		var target *cluster.Member
		if cfg.Role == cluster.RW {
			target = d.Cluster.RWMember()
		} else {
			target = d.Cluster.Replica(0)
		}
		d.Cluster.InjectRestart(p, target)
		// Observe recovery, terminating early once throughput holds at
		// the baseline for a few consecutive buckets.
		col := writeCol
		if cfg.Role == cluster.RO {
			col = readCol
		}
		baseline := col.TPS(0, injectAt)
		for p.Elapsed() < end {
			p.Sleep(5 * time.Second)
			now := p.Elapsed()
			if now < injectAt+15*time.Second {
				continue
			}
			if col.TPS(now-3*time.Second, now) >= baseline*0.9 {
				break
			}
		}
		writeRunner.Stop()
		readRunner.Stop()
		writeRunner.Wait(p)
		readRunner.Wait(p)
		d.Shutdown()
	})

	col := writeCol
	if cfg.Role == cluster.RO {
		col = readCol
	}
	res := FailoverResult{
		Kind:        cfg.Kind,
		Role:        cfg.Role,
		BaselineTPS: col.TPS(0, injectAt),
		Timeline:    d.Cluster.Timeline(),
	}
	counter := col.CommitCounter()
	// Stragglers draining lock queues commit a handful of transactions
	// mid-outage, so both phase boundaries use a small baseline fraction
	// rather than raw zero/non-zero.
	serviceThreshold := availabilityFloor(res.BaselineTPS)
	buckets := counter.Buckets(injectAt, end)
	outage, serviceBack := -1, -1
	for i, b := range buckets {
		if outage < 0 {
			if b < serviceThreshold {
				outage = i
			}
			continue
		}
		if b >= serviceThreshold {
			serviceBack = i
			break
		}
	}
	if outage >= 0 && serviceBack > 0 {
		backAt := injectAt + time.Duration(serviceBack)*time.Second
		res.F = backAt - injectAt
		// Phase two: TPS back to >= 90% of baseline.
		if recovered, ok := counter.FirstBucketReaching(backAt, res.BaselineTPS*0.9); ok {
			res.R = recovered - backAt
		} else {
			res.R = end - backAt // never fully recovered in window
		}
	} else if outage >= 0 {
		// Service never came back inside the observation window: the whole
		// window is phase one. Without this, a total outage would report
		// F=0/R=0 — indistinguishable from a perfect run.
		res.F = end - injectAt
		res.R = 0
	}
	return res
}
