package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"cloudybench/internal/cdb"
	"cloudybench/internal/check"
	"cloudybench/internal/core"
	"cloudybench/internal/engine"
	"cloudybench/internal/evaluator"
	"cloudybench/internal/node"
	"cloudybench/internal/obs"
	"cloudybench/internal/patterns"
	"cloudybench/internal/sim"
	"cloudybench/internal/storage"
)

// epoch anchors the benchmark's own simulations, like the evaluator's.
var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// workload is one named benchmark workload.
type workload struct {
	name     string
	describe func(sc scale) string
	pool     func(sc scale) int // simulations run at once
	run      func(sc scale, env repEnv) repResult
}

var workloads = map[string]*workload{
	"oltp-crowd": {
		name: "oltp-crowd",
		describe: func(sc scale) string {
			return fmt.Sprintf("suts=%v sf=1 topology=1rw+1ro mix=%v distribution=latest-k(k=10) clients=%d (closed loop) warmup=%v measure=%v seed=%d",
				sc.Kinds, core.MixReadWrite, sc.Clients, sc.Warmup, sc.Measure, sc.Seed)
		},
		pool: func(scale) int { return 1 },
		run:  runOLTPCrowd,
	},
	"crash-durable": {
		name: "crash-durable",
		describe: func(sc scale) string {
			return fmt.Sprintf("suts=%v sf=1 topology=1rw+1ro mix=all-four(30:20:40:10) clients=%d (closed loop) span=%v schedule=canonical four kills (torn 25%%, replica 45%%, clean 65%%, torn 85%%) seed=%d",
				sc.Kinds, sc.CrashClients, sc.CrashSpan, sc.Seed)
		},
		pool: func(scale) int { return 1 },
		run:  runCrashDurable,
	},
	"artifact-sweep": {
		name: "artifact-sweep",
		describe: func(sc scale) string {
			w := sc.Sweep
			return fmt.Sprintf("cells=%d: fig5 suts=%v x mixes=%v x concurrency=%v (warmup=%v measure=%v); tableV concurrency=%d measure=%v (shares fig5 warm-ups); fig8 suts=%v x buffers=%vMB at concurrency %d; elasticity suts=%v x %v slot=%v cost_slots=%d tau=%d; tenancy suts=%v x %v slot=%v; fresh WarmCache per repetition; seed=%d",
				len(sweepCells(sc)), sc.Kinds, w.Mixes, w.Concurrency, w.Warmup, w.Measure, w.TableVConc, w.TableVMeasure,
				w.BufferKinds, mb(w.Buffers), w.BufferConc, w.ElasticKinds, elasticNames(w.Elastic), w.ElasticSlot, w.CostSlots, w.Tau,
				sc.Kinds, w.Tenancy, w.TenancySlot, sc.Seed)
		},
		pool: func(sc scale) int { return sc.Pool },
		run:  runArtifactSweep,
	},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// scale holds every generated workload parameter.
type scale struct {
	Seed  int64 // derived from --seed; never 0 (0 selects the evaluators' default)
	Kinds []cdb.Kind

	// oltp-crowd.
	Clients         int
	Warmup, Measure time.Duration
	// Profile builds each SUT's profile; a test breaks replication through
	// it to prove the convergence check bites.
	Profile func(cdb.Kind) cdb.Profile

	// crash-durable.
	CrashClients int
	CrashSpan    time.Duration
	// Recovery is forwarded to every crash recovery; a test sets the teeth
	// knobs to prove the durability verdicts bite.
	Recovery engine.RecoveryOpts

	// artifact-sweep.
	Sweep sweepScale
	Pool  int // cell pool width, at most nproc
}

type sweepScale struct {
	Mixes           []core.Mix
	Concurrency     []int
	Warmup, Measure time.Duration
	TableVConc      int
	TableVMeasure   time.Duration
	BufferKinds     []cdb.Kind
	Buffers         []int64
	BufferConc      int
	ElasticKinds    []cdb.Kind
	Elastic         []patterns.Elastic
	ElasticSlot     time.Duration
	CostSlots       int
	Tau             int
	Tenancy         []patterns.TenancyKind
	TenancySlot     time.Duration
}

// defaultScale is the benchmark's workload definition for a seed.
func defaultScale(seed int64) scale {
	pool := runtime.NumCPU()
	if g := runtime.GOMAXPROCS(0); g < pool {
		pool = g
	}
	return scale{
		Seed:    deriveSeed(seed),
		Kinds:   cdb.Kinds,
		Clients: 2000,
		Warmup:  250 * time.Millisecond,
		Measure: 750 * time.Millisecond,
		Profile: cdb.ProfileFor,

		CrashClients: 6,
		CrashSpan:    6 * time.Second,

		Sweep: sweepScale{
			Mixes:         []core.Mix{core.MixReadOnly, core.MixReadWrite, core.MixWriteOnly},
			Concurrency:   []int{50, 150},
			Warmup:        100 * time.Millisecond,
			Measure:       150 * time.Millisecond,
			TableVConc:    150,
			TableVMeasure: 250 * time.Millisecond,
			BufferKinds:   []cdb.Kind{cdb.RDS, cdb.CDB1, cdb.CDB4},
			// SF1 is about 194 MB raw: 32 MB cannot hold the working set,
			// 512 MB holds all of it.
			Buffers:      []int64{32 << 20, 512 << 20},
			BufferConc:   100,
			ElasticKinds: []cdb.Kind{cdb.CDB1, cdb.CDB2, cdb.CDB3},
			Elastic:      []patterns.Elastic{patterns.ZeroValley, patterns.SingleValley},
			ElasticSlot:  300 * time.Millisecond,
			CostSlots:    4,
			Tau:          110,
			Tenancy:      []patterns.TenancyKind{patterns.LowContention},
			TenancySlot:  150 * time.Millisecond,
		},
		Pool: pool,
	}
}

// deriveSeed maps the command-line seed through splitmix64 to a positive,
// non-zero simulation seed, so neighbouring seeds give unrelated inputs.
func deriveSeed(seed int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z>>1) | 1
}

// digest hashes simulated results in the order they are written.
type digest struct{ h hash.Hash }

func newDigest() digest { return digest{sha256.New()} }

func (d digest) add(format string, args ...any) { fmt.Fprintf(d.h, format+"\n", args...) }

func (d digest) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

// runOLTPCrowd runs one closed-loop OLTP cell per SUT, one simulation at a
// time, composed like examples/quickstart: sim.New, cdb.MustDeploy,
// core.NewRunner, sim.Run. Each cell warms up, measures, forces a GC from
// its control process at the end of the measured window, drains
// replication, and checks commits and replica convergence.
func runOLTPCrowd(sc scale, env repEnv) repResult {
	var r repResult
	dg := newDigest()
	var spans [obsKinds]time.Duration
	var commitsAll float64
	var hits, misses int64
	var lagSum time.Duration
	var lagN int
	var walBytes int64
	for _, kind := range sc.Kinds {
		cellStart := time.Now()
		var tr *obs.Tracer
		if env.traced {
			tr = obs.NewTracer(string(kind), nil)
		}
		s := sim.New(epoch)
		t := time.Now()
		d := cdb.MustDeploy(s, sc.Profile(kind), cdb.Options{
			SF: 1, Seed: sc.Seed, Replicas: 1, PreWarm: true,
			Serverless: cdb.Bool(false), Tracer: tr,
		})
		r.setup += time.Since(t)
		col := core.NewCollector()
		runner := core.NewRunner(s, core.Config{
			Name: "crowd", Seed: sc.Seed, Mix: core.MixReadWrite, Distribution: "latest",
			Write: d.RW, Read: d.ReadNode, Collector: col, Tracer: tr,
		})
		var winHost time.Duration
		var winCommits int64
		s.Go("ctl", func(p *sim.Proc) {
			runner.SetConcurrency(sc.Clients)
			p.Sleep(sc.Warmup)
			c0, h0 := col.Commits(), time.Now()
			p.Sleep(sc.Measure)
			winHost, winCommits = time.Since(h0), col.Commits()-c0
			env.probe.force()
			runner.Stop()
			runner.Wait(p)
			quiesce(p, d)
			d.Shutdown()
		})
		t = time.Now()
		err := s.Run()
		r.add("sim.run_s", time.Since(t).Seconds())
		r.check(err == nil, "%s: sim.Run: %v", kind, err)

		r.simHost += winHost
		r.commits += float64(winCommits)
		r.virt += sc.Measure
		r.check(winCommits > 0, "%s: no commits in the measured window", kind)

		t = time.Now()
		rw := d.RW()
		var verdicts []check.Verdict
		for _, n := range d.Nodes() {
			if n != rw {
				verdicts = append(verdicts, check.Convergence(n.Name, rw.DB, n.DB))
			}
		}
		r.add("check.run_s", time.Since(t).Seconds())
		for _, v := range verdicts {
			r.check(v.Passed, "%s %s: %s", kind, v.Name, v)
			r.add("check.verdicts_run", 1)
			if !v.Passed {
				r.add("check.verdicts_failed", 1)
			}
		}

		commits := float64(col.Commits())
		commitsAll += commits
		r.add("core.commits", commits)
		r.add("core.errors", float64(col.Errors()))
		r.add("core.terminals", float64(col.Terminals()))
		dg.add("%s elapsed=%v commits=%d window=%d errors=%d terminals=%d p50=%v p99=%v reroutes=%d",
			kind, s.Elapsed(), col.Commits(), winCommits, col.Errors(), col.Terminals(),
			col.Latency().Quantile(0.5), col.Latency().Quantile(0.99), runner.Reroutes())
		for _, n := range d.Nodes() {
			commits, aborts := n.DB.Stats()
			waits, timeouts := n.DB.Locks().Stats()
			used, _ := n.CPU().Integrals()
			reads, writes := n.PageStats()
			h, m, ev, fl := n.Buf.Stats()
			hits += h
			misses += m
			r.add("engine.aborts", float64(aborts))
			r.add("engine.lock_waits", float64(waits))
			r.add("engine.lock_timeouts", float64(timeouts))
			r.add("node.cpu_busy_vcore_s", used/node.MilliPerCore)
			r.add("node.page_reads", float64(reads))
			r.add("node.page_writes", float64(writes))
			r.add("storage.buf_evictions", float64(ev))
			dg.add("  node %s commits=%d aborts=%d waits=%d timeouts=%d cpu=%g reads=%d writes=%d buf=%d/%d/%d/%d log=%d/%d",
				n.Name, commits, aborts, waits, timeouts, used, reads, writes, h, m, ev, fl, n.DB.Log().Len(), n.DB.Log().Bytes())
		}
		r.add("storage.wal_records", float64(rw.DB.Log().Len()))
		walBytes += rw.DB.Log().Bytes()
		for _, st := range d.Streams() {
			shipped, applied := st.Counts()
			lag := st.MeanLag(storage.RecUpdate)
			r.add("replication.shipped", float64(shipped))
			r.add("replication.applied", float64(applied))
			lagSum += lag
			lagN++
			dg.add("  stream shipped=%d applied=%d lag=%v/%v/%v", shipped, applied,
				st.MeanLag(storage.RecInsert), lag, st.MeanLag(storage.RecDelete))
		}
		for _, v := range verdicts {
			dg.add("  verdict %+v", v)
		}
		if tr != nil {
			for _, row := range tr.Agg().Rows() {
				if int(row.Kind) < obsKinds {
					spans[row.Kind] += row.Total
				}
			}
		}
		r.cells = append(r.cells, time.Since(cellStart))
	}
	if hits+misses > 0 {
		r.add("storage.buf_hit_ratio", float64(hits)/float64(hits+misses))
	}
	r.add("storage.wal_bytes_per_commit", float64(walBytes)/math.Max(commitsAll, 1))
	if lagN > 0 {
		r.add("replication.mean_update_lag_ms", float64(lagSum)/float64(time.Millisecond)/float64(lagN))
	}
	r.add("cdb.deploy_s", r.setup.Seconds())
	if env.traced {
		for k := 0; k < obsKinds; k++ {
			name := "obs." + strings.ReplaceAll(obs.Kind(k).String(), "-", "_") + "_virt_us_per_txn"
			r.add(name, float64(spans[k])/float64(time.Microsecond)/math.Max(commitsAll, 1))
		}
	}
	r.digest = dg.sum()
	return r
}

// obsKinds bounds the span kinds reported per transaction: cpu through
// checkpoint-stall (fault-retry, breaker-open and reroute are client-side
// fault handling, absent from a fault-free run).
const obsKinds = int(obs.KindCheckpointStall) + 1

// quiesce waits until every replication stream has applied all it shipped.
func quiesce(p *sim.Proc, d *cdb.Deployment) {
	for _, st := range d.Streams() {
		for {
			shipped, applied := st.Counts()
			if st.Backlog() == 0 && shipped == applied {
				break
			}
			p.Sleep(time.Millisecond)
		}
	}
}

// runCrashDurable runs evaluator.RunCrash on every SUT, one at a time. The
// evaluator deploys internally, so set-up is the same deploy call with the
// same options, timed by the benchmark itself before the runs.
func runCrashDurable(sc scale, env repEnv) repResult {
	var r repResult
	dg := newDigest()
	for _, kind := range sc.Kinds {
		r.setup += timeDeploy(func(s *sim.Sim) func() {
			return cdb.MustDeploy(s, cdb.ProfileFor(kind), cdb.Options{
				SF: 1, Seed: sc.Seed, Replicas: 1, PreWarm: true, Serverless: cdb.Bool(false),
			}).Shutdown
		})
	}
	r.add("cdb.deploy_s", r.setup.Seconds())
	for _, kind := range sc.Kinds {
		t := time.Now()
		res := evaluator.RunCrash(evaluator.CrashConfig{
			Kind: kind, Concurrency: sc.CrashClients, Span: sc.CrashSpan,
			Seed: sc.Seed, Recovery: sc.Recovery,
		})
		el := time.Since(t)
		r.cells = append(r.cells, el)
		r.simHost += el
		r.add("sim.run_s", el.Seconds())
		r.commits += float64(res.Commits)
		r.virt += sc.CrashSpan

		for _, v := range res.Verdicts {
			r.check(v.Passed, "%s %s: %s", kind, v.Name, v)
			r.add("check.verdicts_run", 1)
			if !v.Passed {
				r.add("check.verdicts_failed", 1)
			}
		}
		for _, c := range res.Crashes {
			r.check(c.Err == "", "%s: recovery of %s at %v: %s", kind, c.Target, c.At, c.Err)
			r.add("cluster.recovery_records_scanned", float64(c.Stats.Records))
			r.add("cluster.redo_records", float64(c.Stats.RedoRecords))
			r.add("cluster.losers_undone", float64(c.Stats.Losers))
			if c.Stats.TornDetected {
				r.add("cluster.torn_cuts", 1)
			}
		}
		r.add("cluster.recovery_virt_ms", float64(recoveryTime(res))/float64(time.Millisecond))
		r.add("core.commits", float64(res.Commits))
		r.add("core.errors", float64(res.Errors))
		r.add("core.terminals", float64(res.Terminals))
		dg.add("%+v", res)
	}
	r.digest = dg.sum()
	return r
}

// timeDeploy times one deploy call in a fresh simulation, then shuts the
// deployment down and runs the simulation until its background processes
// exit, so a deployment made only to time set-up leaves nothing behind.
func timeDeploy(deploy func(s *sim.Sim) (shutdown func())) time.Duration {
	s := sim.New(epoch)
	t := time.Now()
	shutdown := deploy(s)
	el := time.Since(t)
	s.Go("ctl", func(*sim.Proc) { shutdown() })
	if err := s.Run(); err != nil {
		panic("perfbench: drain set-up deployment: " + err.Error())
	}
	return el
}

// recoveryTime sums, over the crash marks of a run's timeline, the virtual
// time from each kill to the next mark that puts a serving node back.
func recoveryTime(res evaluator.CrashResult) time.Duration {
	var total time.Duration
	for i, ev := range res.Timeline {
		if !strings.HasSuffix(ev.Phase, "crash injected") {
			continue
		}
		for _, next := range res.Timeline[i+1:] {
			if strings.HasSuffix(next.Phase, "service restored") || strings.HasSuffix(next.Phase, "serving requests") {
				total += next.At - ev.At
				break
			}
		}
	}
	return total
}

// sweepCell is one evaluator call of the artifact sweep.
type sweepCell struct {
	label  string
	run    func(wc *evaluator.WarmCache) cellOut
	deploy func(s *sim.Sim) (shutdown func()) // the evaluator's deploy call, with the cell's options
}

// cellOut is what the sweep keeps of one cell.
type cellOut struct {
	result  any           // the evaluator's result, for the digest
	commits float64       // committed transactions, from the measured rate
	virt    time.Duration // virtual time simulated (OLTP warm-ups added later)
	ok      bool          // TPS > 0 and every score finite
	hit     float64       // RW-node buffer hit ratio (OLTP cells)
	oltp    bool
}

func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// sweepCells builds the artifact sweep's grid in declaration order: the
// long elasticity and tenancy cells first so the pool's tail is short.
func sweepCells(sc scale) []sweepCell {
	w := sc.Sweep
	var cells []sweepCell
	for _, kind := range w.ElasticKinds {
		for _, pat := range w.Elastic {
			cfg := evaluator.ElasticityConfig{
				Kind: kind, Pattern: pat, Mix: core.MixReadWrite, Tau: w.Tau,
				SlotLength: w.ElasticSlot, CostSlots: w.CostSlots, Seed: sc.Seed,
			}
			slots := time.Duration(pat.Slots())
			costEnd := time.Duration(max(w.CostSlots, pat.Slots())) * w.ElasticSlot
			cells = append(cells, sweepCell{
				label: fmt.Sprintf("elasticity %s %s", kind, pat.Name),
				run: func(*evaluator.WarmCache) cellOut {
					res := evaluator.RunElasticity(cfg)
					return cellOut{
						result: res, commits: res.AvgTPS * (slots * w.ElasticSlot).Seconds(), virt: costEnd,
						ok: res.AvgTPS > 0 && finite(res.E1Score, res.TotalCost, res.ActualCost),
					}
				},
				deploy: func(s *sim.Sim) func() {
					return cdb.MustDeploy(s, cdb.ProfileFor(cfg.Kind), cdb.Options{
						SF: 1, Seed: cfg.Seed, Replicas: -1, PreWarm: true,
						CadenceScale: float64(time.Minute) / float64(cfg.SlotLength),
					}).Shutdown
				},
			})
		}
	}
	for _, kind := range sc.Kinds {
		for _, tk := range w.Tenancy {
			cfg := evaluator.TenancyConfig{
				Kind: kind, Pattern: patterns.PaperTenancy(tk), Mix: core.MixReadWrite,
				SlotLength: w.TenancySlot, Seed: sc.Seed,
			}
			total := time.Duration(cfg.Pattern.Slots()) * w.TenancySlot
			cells = append(cells, sweepCell{
				label: fmt.Sprintf("tenancy %s %s", kind, tk),
				run: func(*evaluator.WarmCache) cellOut {
					res := evaluator.RunTenancy(cfg)
					return cellOut{
						result: res, commits: res.TotalTPS * total.Seconds(), virt: total,
						ok: res.TotalTPS > 0 && finite(res.TScore, res.TScoreStar, res.CostPerMin),
					}
				},
				deploy: func(s *sim.Sim) func() {
					return cdb.MustDeployTenants(s, cdb.ProfileFor(cfg.Kind), cfg.Pattern.Tenants(), cdb.Options{
						SF: 1, Seed: cfg.Seed, PreWarm: true,
					}).Shutdown
				},
			})
		}
	}
	oltp := func(label string, cfg evaluator.OLTPConfig) sweepCell {
		return sweepCell{
			label: label,
			run: func(wc *evaluator.WarmCache) cellOut {
				c := cfg
				c.Warm = wc
				res := evaluator.RunOLTP(c)
				return cellOut{
					result: res, commits: res.TPS * cfg.Measure.Seconds(), virt: cfg.Measure,
					ok:  res.TPS > 0 && finite(res.PScore, res.HitRatio),
					hit: res.HitRatio, oltp: true,
				}
			},
			deploy: func(s *sim.Sim) func() {
				return cdb.MustDeploy(s, cdb.ProfileFor(cfg.Kind), cdb.Options{
					SF: 1, Seed: cfg.Seed, Replicas: 1, BufferBytes: cfg.BufferBytes,
					PreWarm: true, Serverless: cdb.Bool(false),
				}).Shutdown
			},
		}
	}
	for _, kind := range w.BufferKinds {
		for _, buf := range w.Buffers {
			cells = append(cells, oltp(fmt.Sprintf("fig8 %s %dMB", kind, buf>>20), evaluator.OLTPConfig{
				Kind: kind, Mix: core.MixReadWrite, Concurrency: w.BufferConc, BufferBytes: buf,
				Warmup: w.Warmup, Measure: w.Measure, Seed: sc.Seed,
			}))
		}
	}
	for _, mix := range w.Mixes {
		for _, kind := range sc.Kinds {
			for _, con := range w.Concurrency {
				cells = append(cells, oltp(fmt.Sprintf("fig5 %s %v c%d", kind, mix, con), evaluator.OLTPConfig{
					Kind: kind, Mix: mix, Concurrency: con,
					Warmup: w.Warmup, Measure: w.Measure, Seed: sc.Seed,
				}))
			}
		}
	}
	for _, kind := range sc.Kinds {
		for _, mix := range w.Mixes {
			cells = append(cells, oltp(fmt.Sprintf("tableV %s %v", kind, mix), evaluator.OLTPConfig{
				Kind: kind, Mix: mix, Concurrency: w.TableVConc,
				Warmup: w.Warmup, Measure: w.TableVMeasure, Seed: sc.Seed,
			}))
		}
	}
	return cells
}

// runArtifactSweep runs the paper-artifact grid on a pool of sc.Pool
// workers with a fresh warm-up cache. Set-up is the deploy call each cell's
// evaluator makes, timed by the benchmark itself before the sweep.
func runArtifactSweep(sc scale, env repEnv) repResult {
	var r repResult
	cells := sweepCells(sc)
	for _, c := range cells {
		r.setup += timeDeploy(c.deploy)
	}
	r.add("cdb.deploy_s", r.setup.Seconds())

	wc := evaluator.NewWarmCache()
	outs := make([]cellOut, len(cells))
	times := make([]time.Duration, len(cells))
	next := make(chan int, len(cells)) // holds every cell index; workers drain it
	for i := range cells {
		next <- i
	}
	close(next)
	t := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < sc.Pool; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				t0 := time.Now()
				outs[i] = cells[i].run(wc)
				times[i] = time.Since(t0)
			}
		}()
	}
	wg.Wait()
	r.simHost = time.Since(t)
	r.add("sim.run_s", r.simHost.Seconds())
	env.probe.force() // the warm-up cache is still live here
	requests, computed := wc.Stats()
	r.add("evaluator.warm_requests", float64(requests))
	r.add("evaluator.warm_computed", float64(computed))
	r.virt += time.Duration(computed) * sc.Sweep.Warmup

	dg := newDigest()
	var hitSum float64
	var nOLTP int
	for i, o := range outs {
		r.check(o.ok, "%s: zero TPS or a non-finite score: %+v", cells[i].label, o.result)
		r.commits += o.commits
		r.virt += o.virt
		if o.oltp {
			hitSum += o.hit
			nOLTP++
		}
		dg.add("%s %+v", cells[i].label, o.result)
	}
	r.cells = times
	r.add("core.commits", r.commits)
	if nOLTP > 0 {
		r.add("storage.buf_hit_ratio", hitSum/float64(nOLTP))
	}
	r.digest = dg.sum()
	return r
}

func mb(bs []int64) []int64 {
	out := make([]int64, len(bs))
	for i, b := range bs {
		out[i] = b >> 20
	}
	return out
}

func elasticNames(ps []patterns.Elastic) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}
