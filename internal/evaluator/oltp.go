// Package evaluator contains CloudyBench's experiment drivers: the OLTP,
// elasticity, multi-tenancy, fail-over, and lag-time evaluators of paper
// Figure 1, plus the overall PERFECT aggregation. Each Run function builds
// a self-contained simulation, executes the experiment, and returns a
// result struct that the report layer renders into the paper's tables and
// figures.
package evaluator

import (
	"time"

	"cloudybench/internal/cdb"
	"cloudybench/internal/core"
	"cloudybench/internal/metrics"
	"cloudybench/internal/obs"
	"cloudybench/internal/pricing"
	"cloudybench/internal/sim"
)

// simEpoch anchors every evaluator simulation at a fixed virtual date so
// runs are reproducible.
var simEpoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// OLTPConfig parameterizes one throughput cell of Figure 5 / Table V.
type OLTPConfig struct {
	Kind        cdb.Kind
	SF          int
	Mix         core.Mix
	Concurrency int
	// Distribution is "uniform" (default) or "latest".
	Distribution string
	// Replicas defaults to 1 (the paper deploys 1 RW + 1 RO); pass
	// NoReplicas for a single-node deployment.
	Replicas int
	// Warmup runs before measurement begins; Measure is the measured
	// window. Defaults: 2s / 8s.
	Warmup  time.Duration
	Measure time.Duration
	// BufferBytes overrides the profile buffer (Figure 8).
	BufferBytes int64
	Seed        int64
	// Tracer, if non-nil, records per-transaction stage traces during the
	// run (both warmup and measure windows). Nil runs untraced at zero cost.
	Tracer *obs.Tracer
	// Warm, if non-nil, memoizes the warm-up phase across cells sharing a
	// WarmKey: the first cell runs the warm-up and snapshots the quiescent
	// cluster; later cells fork the measurement phase straight from the
	// snapshot. Results are byte-identical with or without a cache (a traced
	// run bypasses it so warm-up spans are recorded).
	Warm *WarmCache
}

// NoReplicas requests a deployment without read-only nodes.
const NoReplicas = -1

func (c OLTPConfig) withDefaults() OLTPConfig {
	if c.SF < 1 {
		c.SF = 1
	}
	if c.Replicas == 0 {
		c.Replicas = 1
	} else if c.Replicas < 0 {
		c.Replicas = 0
	}
	if c.Warmup <= 0 {
		c.Warmup = 2 * time.Second
	}
	if c.Measure <= 0 {
		c.Measure = 8 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// OLTPResult is one measured cell.
type OLTPResult struct {
	Kind        cdb.Kind
	SF          int
	Mix         core.Mix
	Concurrency int

	TPS        float64
	P50        time.Duration
	P99        time.Duration
	HitRatio   float64 // RW-node buffer hit ratio over the whole run
	CostPerMin pricing.Breakdown
	PScore     float64
}

// warmKey builds the memoization key for this configuration's warm-up.
func (c OLTPConfig) warmKey() WarmKey {
	return WarmKey{
		Kind: c.Kind, SF: c.SF, Mix: c.Mix, Concurrency: c.Concurrency,
		Distribution: c.Distribution, Replicas: c.Replicas,
		Warmup: c.Warmup, BufferBytes: c.BufferBytes, Seed: c.Seed,
	}
}

// oltpDeploy builds one OLTP cluster for cfg. Both phases deploy through it
// so the catalogs line up for the snapshot restore.
func oltpDeploy(s *sim.Sim, cfg OLTPConfig, preWarm bool) *cdb.Deployment {
	return cdb.MustDeploy(s, cdb.ProfileFor(cfg.Kind), cdb.Options{
		SF: cfg.SF, Seed: cfg.Seed, Replicas: cfg.Replicas,
		BufferBytes: cfg.BufferBytes, PreWarm: preWarm,
		// Throughput evaluation uses the provisioned (fixed) size.
		Serverless: cdb.Bool(false),
		Tracer:     cfg.Tracer,
	})
}

// runWarmup executes the warm-up phase in its own simulation: load the
// cluster for cfg.Warmup, drain the clients, wait for every replication
// stream to go quiet, and snapshot the resulting state. cfg must carry its
// defaults already.
func runWarmup(cfg OLTPConfig) *WarmSnapshot {
	s := sim.New(simEpoch)
	d := oltpDeploy(s, cfg, true)
	col := core.NewCollector()
	r := core.NewRunner(s, core.Config{
		Name: "oltp", Seed: cfg.Seed, Mix: cfg.Mix,
		Distribution: cfg.Distribution,
		Write:        d.RW, Read: d.ReadNode,
		Collector: col,
		Tracer:    cfg.Tracer,
	})
	snap := &WarmSnapshot{}
	runControl(s, "oltp warmup", func(p *sim.Proc) {
		trafficWindow(p, r, cfg.Concurrency, cfg.Warmup)
		// Quiesce replication: the snapshot must capture every warm-up
		// commit applied on every replica, or forked cells would start with
		// records in flight that no stream remembers.
		drainReplication(p, d, time.Millisecond)
		snap.offset = p.Elapsed()
		d.Shutdown()
	})
	for _, n := range d.Nodes() {
		snap.nodes = append(snap.nodes, nodeWarmState{db: n.DB.Snapshot(), buf: n.Buf.Snapshot()})
	}
	if d.Remote != nil {
		rs := d.Remote.Snapshot()
		snap.remote = &rs
	}
	snap.col = col.Snapshot()
	return snap
}

// RunOLTP measures steady-state throughput for one configuration. It always
// runs two phases — warm-up (possibly memoized via cfg.Warm) and measurement
// forked from the warm-up snapshot — so a cached and an uncached run produce
// byte-identical results.
func RunOLTP(cfg OLTPConfig) OLTPResult {
	cfg = cfg.withDefaults()
	var snap *WarmSnapshot
	if cfg.Warm != nil && cfg.Tracer == nil {
		snap = cfg.Warm.get(cfg.warmKey(), func() *WarmSnapshot { return runWarmup(cfg) })
	} else {
		snap = runWarmup(cfg)
	}

	// Measurement phase: a fresh cluster restored from the snapshot, on a
	// virtual clock pre-advanced to the snapshot offset so every window and
	// timestamp reads as if the warm-up had run in this simulation.
	s := sim.NewAt(simEpoch, snap.offset)
	d := oltpDeploy(s, cfg, false)
	nodes := d.Nodes()
	if len(nodes) != len(snap.nodes) {
		panic("evaluator: oltp restore: node count mismatch")
	}
	for i, n := range nodes {
		if err := n.DB.Restore(snap.nodes[i].db); err != nil {
			panic("evaluator: oltp restore: " + err.Error())
		}
		n.Buf.Restore(snap.nodes[i].buf)
	}
	if d.Remote != nil && snap.remote != nil {
		d.Remote.Restore(*snap.remote)
	}
	col := core.NewCollector()
	col.Restore(snap.col)
	r := core.NewRunner(s, core.Config{
		Name: "oltp", Seed: cfg.Seed, Mix: cfg.Mix,
		Distribution: cfg.Distribution,
		Write:        d.RW, Read: d.ReadNode,
		Collector: col,
		Tracer:    cfg.Tracer,
	})
	runControl(s, "oltp", func(p *sim.Proc) {
		trafficWindow(p, r, cfg.Concurrency, cfg.Measure)
		d.Shutdown()
	})

	from, to := snap.offset, snap.offset+cfg.Measure
	perMin := pricing.PerMinuteBreakdown(d.ClusterPackage())
	res := OLTPResult{
		Kind: cfg.Kind, SF: cfg.SF, Mix: cfg.Mix, Concurrency: cfg.Concurrency,
		TPS:        col.TPS(from, to),
		P50:        col.Latency().Quantile(0.50),
		P99:        col.Latency().Quantile(0.99),
		HitRatio:   d.RW().Buf.HitRatio(),
		CostPerMin: perMin,
	}
	res.PScore = metrics.PScore(res.TPS, perMin.Total())
	return res
}

// E2Config parameterizes the scale-out elasticity measurement: throughput
// as RO nodes are added (equation 5, Table IX's E2-Score).
type E2Config struct {
	Kind        cdb.Kind
	SF          int
	Mix         core.Mix
	Concurrency int
	MaxReplicas int // λ; default 1
	Delta       float64
	Warmup      time.Duration
	Measure     time.Duration
	Seed        int64
	// Warm forwards to OLTPConfig.Warm (each replica count is its own
	// WarmKey, so cells memoize per deployment shape).
	Warm *WarmCache
}

// E2Result holds TPS per replica count and the resulting score.
type E2Result struct {
	Kind    cdb.Kind
	TPS     []float64 // TPS[i] with i RO nodes
	E2Score float64
}

// RunE2 measures the scale-out elasticity score.
func RunE2(cfg E2Config) E2Result {
	if cfg.MaxReplicas < 1 {
		cfg.MaxReplicas = 1
	}
	if cfg.Delta <= 0 {
		cfg.Delta = 1000 // δ calibrated so RDS's 17k->36k jump scores ~20
	}
	res := E2Result{Kind: cfg.Kind}
	for replicas := 0; replicas <= cfg.MaxReplicas; replicas++ {
		n := replicas
		if n == 0 {
			n = NoReplicas
		}
		r := RunOLTP(OLTPConfig{
			Kind: cfg.Kind, SF: cfg.SF, Mix: cfg.Mix,
			Concurrency: cfg.Concurrency, Replicas: n,
			Warmup: cfg.Warmup, Measure: cfg.Measure, Seed: cfg.Seed,
			Warm: cfg.Warm,
		})
		res.TPS = append(res.TPS, r.TPS)
	}
	res.E2Score = metrics.E2Score(res.TPS, cfg.Delta)
	return res
}
