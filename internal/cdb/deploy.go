package cdb

import (
	"fmt"
	"strings"
	"time"

	"cloudybench/internal/autoscale"
	"cloudybench/internal/cluster"
	"cloudybench/internal/core"
	"cloudybench/internal/engine"
	"cloudybench/internal/netsim"
	"cloudybench/internal/node"
	"cloudybench/internal/obs"
	"cloudybench/internal/pricing"
	"cloudybench/internal/replication"
	"cloudybench/internal/sim"
	"cloudybench/internal/storage"
)

// Options configures a deployment.
type Options struct {
	// SF is the CloudyBench scale factor (default 1).
	SF int
	// Seed drives data generation (default 42).
	Seed int64
	// Replicas is the number of RO nodes (default 1, matching the paper's
	// "one RW node and one RO node" throughput setup).
	Replicas int
	// BufferBytes overrides the profile's buffer size (Figure 8 sweep).
	BufferBytes int64
	// Serverless overrides the profile default: nil keeps it, a value
	// force-enables/disables the autoscaler (Figure 6 contrasts serverless
	// with fixed configurations).
	Serverless *bool
	// PreWarm fills buffer pools with base pages so experiments start at
	// steady-state hit ratios instead of measuring a cold ramp.
	PreWarm bool
	// NoDataset skips creating the CloudyBench sales tables, letting the
	// caller install its own schema (the Figure 9 baselines deploy
	// SysBench and TPC-C tables on the same SUT profile).
	NoDataset bool
	// ExtraSchema, if set, installs additional tables and secondary indexes
	// on every node after the dataset (suite schemas). It must run
	// identically on the RW and each replica: replicas re-derive index
	// contents from the replicated row stream, so catalogs must line up.
	ExtraSchema func(db *engine.DB) error
	// CadenceScale compresses the autoscaler's reaction cadences (tick,
	// down-hold, pause-after-idle, resume delay) by the given factor.
	// Experiments that shrink the paper's one-minute slots to seconds set
	// this to slot compression so scaling behaviour keeps its shape; 0 or
	// 1 leaves the profile cadences untouched.
	CadenceScale float64
	// Tracer, if non-nil, attaches the observability tracer to every node,
	// network link, replication stream, and the cluster's fail-over path.
	// Nil (the default) deploys with tracing compiled out of the hot path.
	Tracer *obs.Tracer
}

// Bool is a helper for Options.Serverless.
func Bool(v bool) *bool { return &v }

func (o Options) withDefaults() Options {
	if o.SF < 1 {
		o.SF = 1
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Replicas < 0 {
		o.Replicas = 0
	}
	return o
}

// Deployment is a live SUT cluster inside a simulation.
type Deployment struct {
	Profile Profile
	Opts    Options
	S       *sim.Sim
	Dataset core.Dataset
	Cluster *cluster.Cluster
	Scaler  *autoscale.Autoscaler
	// Remote is the shared remote buffer pool (CDB4 only).
	Remote *storage.BufferPool
	// Net is the deployment's endpoint registry: "client", "ctrl", and every
	// node short name ("rw", "ro0", ...), with the replication links
	// registered on their node-to-node paths. Partition chaos events and the
	// reachability oracles route through it.
	Net *netsim.Net
	// Fence is the deployment-wide epoch-numbered write lease: every node's
	// commit path checks it, and fail-overs advance it before promoting.
	Fence *storage.Fence

	nodes      []*node.Node
	storeQueue *sim.Queue
	streams    []*replication.Stream
	links      []*netsim.Link
}

// Deploy instantiates a profile.
func Deploy(s *sim.Sim, prof Profile, opts Options) (*Deployment, error) {
	opts = opts.withDefaults()
	d := &Deployment{
		Profile: prof,
		Opts:    opts,
		S:       s,
		Dataset: core.NewDataset(opts.SF, opts.Seed),
		Net:     netsim.NewNet(),
	}
	d.Net.AddEndpoint("client")
	d.Net.AddEndpoint("ctrl")
	bufBytes := prof.MemoryBytes
	if opts.BufferBytes > 0 {
		bufBytes = opts.BufferBytes
	}
	if prof.RemoteBufBytes > 0 {
		d.Remote = storage.NewBufferPool(int(prof.RemoteBufBytes / storage.PageSize))
	}
	// The storage service (and its IOPS) is shared across the cluster's
	// compute nodes for disaggregated SUTs; RDS nodes get private volumes.
	if !prof.LocalStorage {
		d.storeQueue = sim.NewQueue(s, prof.DeviceIOPS)
	}

	serverless := prof.Autoscale != nil
	if opts.Serverless != nil {
		serverless = *opts.Serverless && prof.Autoscale != nil
	}

	makeNode := func(name string, checkpoint bool) (*node.Node, error) {
		backend := d.makeBackend(name)
		cfg := node.Config{
			Name:        fmt.Sprintf("%s/%s", prof.Kind, name),
			VCores:      prof.VCores,
			MemoryBytes: bufBytes,
			OpCPU:       prof.OpCPU,
			TxnCPU:      prof.TxnCPU,
			Recovery:    prof.Recovery,
			Trace:       opts.Tracer,
		}
		if serverless {
			// A serverless instance idles at its minimum allocation and
			// scales up only after the autoscaler reacts — the source of
			// the performance degradation the paper measures when
			// enabling serverless (§III-C).
			cfg.VCores = prof.Autoscale.MinVCores
			if prof.Autoscale.MemBytesPerCore > 0 {
				mem := int64(cfg.VCores * float64(prof.Autoscale.MemBytesPerCore))
				if mem < cfg.MemoryBytes {
					cfg.MemoryBytes = mem
				}
			}
		}
		if checkpoint {
			cfg.CheckpointInterval = prof.CheckpointEvery
		}
		n := node.New(s, cfg, backend)
		d.Net.AddEndpoint(name)
		if !opts.NoDataset {
			if err := d.Dataset.CreateTables(n.DB); err != nil {
				return nil, err
			}
		}
		if opts.ExtraSchema != nil {
			if err := opts.ExtraSchema(n.DB); err != nil {
				return nil, err
			}
		}
		// Crash recovery rebuilds the catalog on a fresh engine exactly as
		// it was built here; the setup already succeeded once, so a failure
		// on replay is a bug, not an input error.
		n.RebuildSchema = func(db *engine.DB) {
			if !opts.NoDataset {
				if err := d.Dataset.CreateTables(db); err != nil {
					panic("cdb: schema rebuild: " + err.Error())
				}
			}
			if opts.ExtraSchema != nil {
				if err := opts.ExtraSchema(db); err != nil {
					panic("cdb: schema rebuild: " + err.Error())
				}
			}
		}
		d.nodes = append(d.nodes, n)
		return n, nil
	}

	rw, err := makeNode("rw", true)
	if err != nil {
		return nil, err
	}
	var replicas []*node.Node
	for i := 0; i < opts.Replicas; i++ {
		ro, err := makeNode(fmt.Sprintf("ro%d", i), false)
		if err != nil {
			return nil, err
		}
		replicas = append(replicas, ro)
	}

	factory := func(target *node.Node) *replication.Stream {
		cfg := prof.Replication
		cfg.Name = fmt.Sprintf("%s->%s", prof.Kind, target.Name)
		cfg.Tracer = opts.Tracer
		if cfg.Link == nil {
			// Every replication path gets a real link — RDS's coupled
			// in-box path included (Local fabric, negligible latency) — so
			// partition chaos can sever any SUT's replication.
			cfg.Link = netsim.NewLink(s, prof.Fabric, prof.NetGbps)
			cfg.Link.SetTracer(opts.Tracer)
			d.links = append(d.links, cfg.Link)
			from := "rw"
			if d.Cluster != nil {
				from = ShortName(d.Cluster.RW())
			}
			d.Net.Register(from, ShortName(target), cfg.Link)
		}
		st := replication.NewStream(s, cfg, target)
		if d.Remote != nil {
			// Memory-disaggregated cache coherency: applying a change
			// invalidates the replica's local copy of the page; the fresh
			// version is fetched from the shared remote buffer on demand.
			buf := target.Buf
			st.OnApply = func(rec storage.Record) { buf.Invalidate(rec.Page) }
		}
		d.streams = append(d.streams, st)
		return st
	}
	d.Cluster = cluster.New(s, string(prof.Kind), prof.Failover, rw, replicas, factory)
	d.Cluster.SetTracer(opts.Tracer)

	// The write lease: every node's commit path checks the fence; the
	// initial RW holds the initial epoch, and fail-overs advance it. The
	// control plane's reachability oracle rides the "ctrl" network path.
	d.Fence = storage.NewFence()
	for _, n := range d.nodes {
		n.SetFence(d.Fence)
	}
	rw.GrantEpoch(d.Fence.Epoch())
	d.Cluster.SetFence(d.Fence)
	d.Cluster.SetReachable(func(n *node.Node) bool {
		sn := ShortName(n)
		return d.Net.Reachable("ctrl", sn) && d.Net.Reachable(sn, "ctrl")
	})
	if opts.Tracer != nil {
		for _, l := range d.links {
			l.SetTracer(opts.Tracer)
		}
	}

	if serverless {
		cfg := *prof.Autoscale
		if opts.CadenceScale > 1 {
			cfg.Tick = time.Duration(float64(cfg.Tick) / opts.CadenceScale)
			cfg.DownHold = time.Duration(float64(cfg.DownHold) / opts.CadenceScale)
			cfg.DownEvery = time.Duration(float64(cfg.DownEvery) / opts.CadenceScale)
			cfg.PauseAfterIdle = time.Duration(float64(cfg.PauseAfterIdle) / opts.CadenceScale)
			cfg.ResumeDelay = time.Duration(float64(cfg.ResumeDelay) / opts.CadenceScale)
		}
		d.Scaler = autoscale.New(s, rw, cfg)
	}
	if opts.PreWarm {
		d.PreWarm()
	}
	return d, nil
}

// MustDeploy is Deploy that panics on error (experiment setup).
func MustDeploy(s *sim.Sim, prof Profile, opts Options) *Deployment {
	d, err := Deploy(s, prof, opts)
	if err != nil {
		panic(err)
	}
	return d
}

func (d *Deployment) makeBackend(name string) node.StorageBackend {
	prof := d.Profile
	if prof.LocalStorage {
		disk := node.NewLocalDisk(d.S, prof.DeviceIOPS)
		disk.ReadLatency = prof.StorageLatency
		disk.WriteLatency = prof.StorageLatency
		disk.LogLatency = prof.LogAckLatency
		return disk
	}
	store := &node.DisaggStore{
		Link:            netsim.NewLink(d.S, prof.Fabric, prof.NetGbps),
		Store:           d.storeQueue,
		PageServiceTime: prof.StorageLatency,
		LogAckLatency:   prof.LogAckLatency,
		RedoPushdown:    prof.RedoPushdown,
	}
	d.links = append(d.links, store.Link)
	if d.Remote != nil {
		rb := &node.RemoteBuffer{
			Remote:   d.Remote,
			RDMA:     netsim.NewLink(d.S, netsim.RDMA, prof.NetGbps),
			Fallback: store,
		}
		d.links = append(d.links, rb.RDMA)
		return rb
	}
	return store
}

// ShortName strips the profile prefix from a node name ("rds/rw" -> "rw"),
// matching the deployment's netsim endpoint names.
func ShortName(n *node.Node) string {
	name := n.Name
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return name
}

// RW returns the current read-write node.
func (d *Deployment) RW() *node.Node { return d.Cluster.RW() }

// ReadNode returns a node for read traffic.
func (d *Deployment) ReadNode() *node.Node { return d.Cluster.ReadNode() }

// Nodes returns every compute node.
func (d *Deployment) Nodes() []*node.Node { return d.nodes }

// Streams returns the replication streams (one per replica).
func (d *Deployment) Streams() []*replication.Stream { return d.streams }

// Links returns every network link the deployment created (storage paths,
// RDMA fabrics, replication channels) — the chaos injector's link-degrade
// target set. RDS deployments, being local-storage, have none.
func (d *Deployment) Links() []*netsim.Link { return d.links }

// StartDetector launches the profile's partition failure detector (a no-op
// for profiles that don't configure one).
func (d *Deployment) StartDetector() {
	d.Cluster.StartDetector(d.Profile.Detector)
}

// ClientReachable reports whether client traffic currently reaches a node —
// the resilient client's reachability hook (core.Config.Reachable).
func (d *Deployment) ClientReachable(n *node.Node) bool {
	sn := ShortName(n)
	return d.Net.Reachable("client", sn) && d.Net.Reachable(sn, "client")
}

// ReadCandidates returns every compute node — the resilient client's reroute
// pool (the client itself filters by state, breaker, and reachability).
func (d *Deployment) ReadCandidates() []*node.Node { return d.nodes }

// Shutdown stops all background processes so the simulation can drain. Any
// still-cut network path is healed first: senders blocked mid-partition must
// wake, and the failure detector must stop, before the drain check runs.
func (d *Deployment) Shutdown() {
	if d.Scaler != nil {
		d.Scaler.Stop()
	}
	d.Net.HealAll()
	d.Cluster.Shutdown()
}

// PreWarm fills each node's buffer pool (and the remote pool) with base
// pages, approximating the steady-state cache of a warmed-up service.
func (d *Deployment) PreWarm() {
	for _, n := range d.nodes {
		d.warmPool(n.Buf, n)
	}
	if d.Remote != nil {
		d.warmPool(d.Remote, d.nodes[0])
	}
}

func (d *Deployment) warmPool(buf *storage.BufferPool, n *node.Node) {
	capacity := buf.Capacity()
	if capacity <= 0 {
		return
	}
	admitted := 0
	for _, name := range []string{core.TableOrderline, core.TableOrders, core.TableCustomer} {
		tbl := n.DB.Table(name)
		if tbl == nil {
			continue
		}
		pages := tbl.Pages()
		for pg := uint64(0); pg < pages && admitted < capacity; pg++ {
			buf.Admit(storage.PageID{Table: tbl.ID, Num: pg})
			admitted++
		}
		if admitted >= capacity {
			return
		}
	}
}

// memGBPerCore returns the instance-memory-to-vCore ratio used to scale the
// memory cost of serverless allocations.
func (d *Deployment) memGBPerCore() float64 {
	if d.Profile.VCores == 0 {
		return 0
	}
	return d.Profile.PackageNode.MemoryGB / d.Profile.VCores
}

// RUCBreakdown itemizes the resource-unit cost over [from, to): CPU and
// memory follow the allocation series (so serverless scaling changes cost);
// storage scales with node count; IOPS and network are provisioned once.
func (d *Deployment) RUCBreakdown(from, to time.Duration) pricing.Breakdown {
	if to <= from {
		return pricing.Breakdown{}
	}
	hours := (to - from).Hours()
	var coreHours float64
	for _, n := range d.nodes {
		coreHours += n.Cores.Integral(from, to) / 3600
	}
	memGBHours := coreHours * d.memGBPerCore()
	p := d.Profile.PackageNode
	return pricing.Breakdown{
		CPU:     coreHours * pricing.CPUPerVCoreHour,
		Memory:  memGBHours * pricing.MemPerGBHour,
		Storage: p.StorageGB * float64(len(d.nodes)) * pricing.StoragePerGBHour * hours,
		IOPS:    p.IOPS / 100 * pricing.IOPSPer100Hour * hours,
		Network: pricing.HourlyBreakdown(pricing.Package{NetGbps: p.NetGbps, Fabric: p.Fabric}).Network * hours,
	}
}

// RUCCost returns the total resource-unit cost over [from, to).
func (d *Deployment) RUCCost(from, to time.Duration) float64 {
	return d.RUCBreakdown(from, to).Total()
}

// ActualCost returns the vendor-priced cost over [from, to), applying the
// vendor's minimum billing window to the duration (§III-G).
func (d *Deployment) ActualCost(from, to time.Duration) float64 {
	if to <= from {
		return 0
	}
	a := d.Profile.Actual
	billed := a.BillableDuration(to - from)
	scale := billed.Hours() / (to - from).Hours()
	var coreHours float64
	for _, n := range d.nodes {
		coreHours += n.Cores.Integral(from, to) / 3600
	}
	coreHours *= scale
	memGBHours := coreHours * d.memGBPerCore()
	p := d.Profile.PackageNode
	hours := billed.Hours()
	return coreHours*a.PerVCoreHour +
		memGBHours*a.PerGBMemHour +
		p.StorageGB*float64(len(d.nodes))*a.PerGBStorageHour*hours +
		p.IOPS/100*a.PerIOPS100Hour*hours +
		p.NetGbps*a.PerGbpsHour*hours
}

// ClusterPackage returns the provisioned package across compute nodes, as
// Table V totals it.
func (d *Deployment) ClusterPackage() pricing.Package {
	return pricing.ClusterPackage(d.Profile.PackageNode, len(d.nodes))
}
