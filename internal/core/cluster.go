package core

import (
	"fmt"

	"dclue/internal/db"
	"dclue/internal/disk"
	"dclue/internal/faults"
	"dclue/internal/iscsi"
	"dclue/internal/netsim"
	"dclue/internal/platform"
	"dclue/internal/rng"
	"dclue/internal/sim"
	"dclue/internal/stats"
	"dclue/internal/tcp"
	"dclue/internal/telemetry"
	"dclue/internal/tpcc"
	"dclue/internal/trace"
)

// Well-known ports on server nodes.
const (
	PortIPC    = 5001
	PortClient = 8000
)

// DataDrivesPerNode is the per-node data spindle count (log disk separate).
// Real 50 K tpm-C nodes of the era ran wide disk farms; 16 scaled spindles
// keep random-read capacity from becoming the artificial bottleneck the
// paper's calibration avoids.
const DataDrivesPerNode = 16

// node bundles one server's components. A crash-restart rebuilds the
// volatile fields (cpu, initiator, target, dbn, transport) in place on the
// same *node, so closures holding the pointer — listener callbacks, fault
// registrations — resolve to the rebuilt engine; the stack, drives and log
// disk persist (NICs and enclosures survive an OS crash).
type node struct {
	idx       int
	cpu       *platform.CPU
	stack     *tcp.Stack
	drives    []*disk.Drive
	logDisk   *disk.LogDisk
	initiator *iscsi.Initiator
	target    *iscsi.Target
	dbn       *db.Node
	transport *ipcTransport
	workerRnd *rng.Stream

	// tracked collects this node's dynamically-spawned processes (workers,
	// heartbeats, recovery drivers) so a crash can kill them in spawn order;
	// finished entries are compacted away as it grows.
	tracked []*sim.Proc
}

// spawnOn spawns a process owned by node i, tracked for crash teardown.
func (c *Cluster) spawnOn(i int, name string, fn func(*sim.Proc)) *sim.Proc {
	n := c.nodes[i]
	if len(n.tracked) >= 1024 {
		live := n.tracked[:0]
		for _, p := range n.tracked {
			if !p.Done() {
				live = append(live, p)
			}
		}
		n.tracked = live
	}
	p := c.Sim.Spawn(name, fn)
	n.tracked = append(n.tracked, p)
	return p
}

// Cluster is one assembled simulation instance.
type Cluster struct {
	P    Params
	Sim  *sim.Sim
	Topo *netsim.Topology
	Dom  *tcp.Domain
	Cat  *db.Catalog
	Eng  *tpcc.Engine

	nodes       []*node
	clientStack *tcp.Stack
	ftp         *ftpApp
	san         *db.SANArray
	inj         *faults.Injector

	// rec is the crash-recovery subsystem, armed only when the fault
	// schedule contains crash/restart events (nil otherwise — fault-free
	// runs stay event-for-event identical to builds without it).
	rec *recState

	// frames and opCosts are kept for rebuilding a node's engine on restart.
	frames  int
	opCosts *db.OpCosts

	// Post-warmup counters.
	commits   [tpcc.NumTxnTypes]uint64
	rollbacks uint64
	retries   uint64
	failures  uint64
	respTally respTimes
	respHist  *stats.Histogram // client-observed response times, scaled ms
	measuring bool

	// tr is the trace sink when Params.Trace is set (nil otherwise); spans
	// of this run land there.
	tr *trace.Run

	// telReg is this run's telemetry registry when Params.Telemetry is set
	// (nil otherwise). The instrument handles are kept so collect can
	// cross-check attribution and attachEngine can re-attach across node
	// restarts; see cluster_telemetry.go.
	telReg   *telemetry.Registry
	telLinks []telLink
	telCPU   []*telemetry.CPUTel
	telGCS   []*telemetry.GCSTel
	telDisks []*telemetry.DiskTel
	telLogs  []*telemetry.DiskTel

	// allCommits counts every commit from t=0 (warmup included) so the
	// throughput timeline can show degradation and recovery around fault
	// windows that straddle the warmup boundary.
	allCommits      uint64
	timeline        []TimelinePoint
	timelineCommits uint64

	// runErr records a fatal condition detected mid-run (setup dial failure,
	// kernel deadlock); Run stops the simulation and returns it.
	runErr error
}

type respTimes struct {
	n   uint64
	sum sim.Time
}

// New builds a cluster per the parameters. Run must be called to simulate.
// It returns an error when the parameters are unusable — today that means a
// fault schedule that does not parse or names an unknown target.
func New(p Params) (*Cluster, error) {
	if p.Scale <= 0 {
		panic("core: Params.Scale must be positive; start from DefaultParams")
	}
	s := sim.New()
	c := &Cluster{P: p, Sim: s}
	c.respHist = newRespHist()
	if p.Trace != nil {
		c.tr = p.Trace.NewRun(p.label())
	}
	if p.Telemetry != nil {
		c.initTelemetry()
	}

	// Network.
	var portSetup func(*netsim.Qdisc)
	if p.WFQRouters {
		portSetup = func(q *netsim.Qdisc) { q.SetDiscipline(netsim.DiscWFQ, nil) }
	}
	c.Topo = netsim.BuildTopology(s, netsim.TopologyConfig{
		NodesPerLata:          p.LataLayout(),
		NodeLinkBps:           p.NodeLinkBps,
		InterLataBps:          p.InterLataBps,
		ClientBps:             p.ClientLinkBps,
		NodeProp:              p.NodePropDelay,
		InterProp:             p.InterPropDelay,
		ExtraInterLataLatency: p.ExtraLatency,
		InnerFwdRate:          p.RouterFwdRate,
		OuterFwdRate:          p.RouterFwdRate,
		FwdLatency:            p.RouterFwdLat,
		WithExtraHosts:        p.CrossTrafficBps > 0,
		PortSetup:             portSetup,
	})
	tcpCfg := tcp.DefaultConfig(p.Scale)
	if p.DisableECN {
		tcpCfg.ECN = false
	}
	c.Dom = tcp.NewDomain(c.Topo.Net, tcpCfg)

	// Database catalog + TPC-C population.
	c.Cat = db.NewCatalog(p.Nodes)
	c.Eng = tpcc.New(c.Cat, p.tpccConfig(), p.Seed)

	// Per-node buffer sizing: a fraction of this node's partition.
	totalBlocks := int64(0)
	for _, t := range c.Cat.Tables {
		totalBlocks += t.Blocks()
	}
	frames := int(float64(totalBlocks) / float64(p.Nodes) * p.BufferFraction)
	if frames < 256 {
		frames = 256
	}

	// Shared-IO (SAN) array, when configured: the same spindle count as
	// the distributed model, pooled centrally.
	var san *db.SANArray
	if p.CentralSAN {
		lat := p.SANLatency
		if lat == 0 {
			lat = sim.Time(20e3 * p.Scale) // 20 us unscaled
		}
		san = &db.SANArray{Sim: s, Latency: lat}
		for d := 0; d < DataDrivesPerNode*p.Nodes; d++ {
			san.Drives = append(san.Drives, disk.NewDrive(s, disk.DefaultParams(p.Scale),
				rng.Derive(p.Seed, fmt.Sprintf("san-%d", d))))
		}
		c.san = san
	}

	// Fault schedule: parse and validate before node construction, because a
	// schedule with crash/restart events arms the recovery subsystem whose
	// per-node hooks (gates, cluster-message handlers) are wired as each
	// engine is attached.
	var sch faults.Schedule
	if p.FaultSpec != "" {
		var err error
		sch, err = faults.ParseSchedule(p.FaultSpec)
		if err != nil {
			return nil, err
		}
		// Resolve every target against the topology first: the error lists
		// the valid names, which the injector's live registry cannot.
		if err := sch.Validate(p.FaultTargets()); err != nil {
			return nil, err
		}
		if sch.HasNodeLifecycle() {
			c.rec = newRecState(c)
		}
	}

	opCosts := p.opCosts()
	c.frames, c.opCosts = frames, opCosts
	for i := 0; i < p.Nodes; i++ {
		n := c.buildNode(i, frames, opCosts)
		if san != nil {
			n.dbn.Pager.SetSAN(san)
		}
		c.nodes = append(c.nodes, n)
	}

	// Client cloud: infinite client-side compute (the paper does not model
	// client performance), its own stack.
	c.clientStack = c.Dom.NewStack(netsim.AddrClientCloud, tcp.InstantProcessor{}, p.tcpCosts())

	// Fabric and disk instruments attach once topology and nodes exist (the
	// per-node engine instruments attached inside attachEngine above).
	if c.telReg != nil {
		c.instrumentFabric()
	}

	// Prewarm: each node starts with its own partition resident, hottest
	// tables first (DCLUE builds the database in memory; this removes the
	// cold-start transient the paper's warmup also discards).
	if !p.NoPrewarm {
		c.prewarm()
	}

	// Cross traffic.
	if p.CrossTrafficBps > 0 {
		c.ftp = newFTPApp(c)
	}

	// Bind the fault schedule to the now-built components. attachEngine has
	// already bounded every protocol wait (fetchTimeout), so injected losses
	// surface as retries or aborted transactions rather than hung workers.
	if p.FaultSpec != "" {
		c.inj = faults.NewInjector(s, p.Seed)
		c.registerFaultTargets()
		if err := c.inj.Apply(sch); err != nil {
			return nil, err
		}
	}

	// Throughput timeline for degradation/recovery plots.
	if p.TimelineBucket > 0 {
		c.startTimeline()
	}

	// Establish the static connection mesh, then the workload.
	s.Spawn("setup", c.setup)
	return c, nil
}

// fetchTimeout resolves the protocol-wait bound: explicit param wins; a
// fault schedule with no explicit bound gets a default comfortably above
// healthy fetch latency (which is sub-millisecond at any scale) yet short
// enough to ride out fault windows via retries.
func (c *Cluster) fetchTimeout() sim.Time {
	if c.P.FetchTimeout > 0 {
		return c.P.FetchTimeout
	}
	if c.P.FaultSpec == "" {
		return 0
	}
	return sim.Time(0.02 * float64(sim.Second) * c.P.Scale)
}

// registerFaultTargets names every injectable component for the schedule.
func (c *Cluster) registerFaultTargets() {
	for i, n := range c.nodes {
		name := fmt.Sprintf("node:%d", i)
		up, down := c.Topo.NodeLinks(i)
		c.inj.RegisterLinks(name, up, down)
		c.inj.RegisterCPU(name, n.cpu)
		c.inj.RegisterDrives(name, n.drives...)
		c.inj.RegisterNode(fmt.Sprintf("dp%d", i), &nodeCtl{c: c, idx: i})
	}
	for l := range c.Topo.Config.NodesPerLata {
		up, down := c.Topo.InterLataLinkPair(l)
		c.inj.RegisterLinks(fmt.Sprintf("interlata:%d", l), up, down)
	}
	up, down := c.Topo.ClientLinks()
	c.inj.RegisterLinks("client", up, down)
	if c.san != nil {
		c.inj.RegisterDrives("san", c.san.Drives...)
	}
}

// startTimeline samples committed-transaction throughput once per bucket
// from t=0 to the end of the run.
func (c *Cluster) startTimeline() {
	end := c.P.Warmup + c.P.Measure
	bucket := c.P.TimelineBucket
	var sample func()
	sample = func() {
		cur := c.allCommits
		c.timeline = append(c.timeline, TimelinePoint{
			T:       c.Sim.Now(),
			TxnRate: float64(cur-c.timelineCommits) / bucket.Seconds(),
		})
		c.timelineCommits = cur
		if c.Sim.Now() < end {
			c.Sim.After(bucket, sample)
		}
	}
	c.Sim.After(bucket, sample)
}

// newRespHist allocates the client response-time histogram: 0.25 ms buckets
// to 8 s, matching the trace layer's span histograms.
func newRespHist() *stats.Histogram { return stats.NewHistogram(0.25, 32000) }

// Run builds a cluster from p and simulates it to completion.
func Run(p Params) (Metrics, error) {
	c, err := New(p)
	if err != nil {
		return Metrics{}, err
	}
	return c.Run()
}

// MustRun is Run for known-good parameter sets (the figure drivers, whose
// configurations are fixed): any error is a bug, so it panics.
func MustRun(p Params) Metrics {
	m, err := Run(p)
	if err != nil {
		panic(err)
	}
	return m
}

// fail records the first fatal mid-run condition and stops the simulation.
func (c *Cluster) fail(err error) {
	if c.runErr == nil {
		c.runErr = err
	}
	c.Sim.Stop()
}

// buildNode assembles one server.
func (c *Cluster) buildNode(i int, frames int, opCosts *db.OpCosts) *node {
	p := c.P
	s := c.Sim
	n := &node{idx: i}
	n.cpu = platform.NewCPU(s, platform.DefaultConfig(p.Scale))
	n.stack = c.Dom.NewStack(netsim.NodeAddr(i), n.cpu, p.tcpCosts())
	for d := 0; d < DataDrivesPerNode; d++ {
		n.drives = append(n.drives, disk.NewDrive(s, disk.DefaultParams(p.Scale),
			rng.Derive(p.Seed, fmt.Sprintf("drive-%d-%d", i, d))))
	}
	n.logDisk = disk.DefaultLogDisk(s, p.Scale)
	if p.LogBatchLimit > 0 {
		n.logDisk.SetBatchLimit(p.LogBatchLimit)
	}
	if p.FIFODisks {
		for _, d := range n.drives {
			d.SetFIFO(true)
		}
	}
	c.attachEngine(n, frames, opCosts)
	n.workerRnd = rng.Derive(p.Seed, fmt.Sprintf("worker-%d", i))

	// Listeners. The closures resolve the node's current components at
	// accept time, so they keep working across a crash-restart rebuild.
	n.stack.Listen(PortIPC, func(conn *tcp.Conn) { c.acceptIPC(i, conn) })
	n.stack.Listen(iscsi.Port, func(conn *tcp.Conn) { c.acceptISCSI(i, conn) })
	n.stack.Listen(PortClient, func(conn *tcp.Conn) { c.acceptClient(i, conn) })
	return n
}

// attachEngine builds the volatile half of a server — CPU-attached iSCSI
// endpoints, database engine, IPC transport — onto n, wiring timeouts and
// recovery hooks. buildNode calls it at assembly; restartNode calls it again
// to boot a fresh engine on the surviving hardware (n.cpu must be set by the
// caller; stack, drives and logDisk are reused).
func (c *Cluster) attachEngine(n *node, frames int, opCosts *db.OpCosts) {
	p := c.P
	s := c.Sim
	i := n.idx
	n.initiator = iscsi.NewInitiator(s, n.cpu, p.iscsiCosts())
	n.target = iscsi.NewTarget(s, n.cpu, p.iscsiCosts(), func(table int) *disk.Drive {
		return n.drives[table%len(n.drives)]
	})
	mkPager := func(costs *db.OpCosts, cache *db.BufferCache) *db.Pager {
		return db.NewPager(s, i, c.Cat, n.cpu, n.drives, n.initiator, costs)
	}
	n.dbn = db.NewNode(s, i, c.Cat, n.cpu,
		db.NodeConfig{
			BufferFrames:  frames,
			OverflowBytes: p.OverflowBytes,
			GCInterval:    sim.Time(1 * float64(sim.Second) * p.Scale / 100),
			GCHorizon:     sim.Time(30 * float64(sim.Second) * p.Scale / 100),
		},
		mkPager, opCosts, n.logDisk)
	// The deadlock-suspicion timeout must comfortably exceed a transaction
	// holding time (~150 ms scaled when warm) so that ordinary contention
	// waits succeed and only genuine deadlocks trip it.
	n.dbn.GCS.DeadlockTimeout = sim.Time(0.05 * float64(sim.Second) * p.Scale)
	if p.CentralLogging {
		n.dbn.GCS.CentralLogNode = 0
	}
	n.transport = &ipcTransport{cluster: c, self: i}
	n.dbn.GCS.SetTransport(n.transport)
	if ft := c.fetchTimeout(); ft > 0 {
		n.dbn.GCS.FetchTimeout = ft
		n.initiator.Timeout = ft
		n.initiator.MaxRetries = 2
	}
	if c.rec != nil {
		c.rec.wireNode(n)
	}
	if c.telReg != nil {
		// Re-attach across restarts: the node keeps its cumulative
		// instruments even though the CPU and engine are rebuilt.
		n.cpu.SetTelemetry(c.telCPU[i])
		n.dbn.GCS.SetTelemetry(c.telGCS[i])
	}

	// Estimated remote-work fraction for the MPI heuristic (§2.3): queries
	// landing off-home touch remote data.
	remote := (1 - p.Affinity) * float64(p.Nodes-1) / float64(p.Nodes)
	n.cpu.SetRemoteFraction(remote)
}

// setup dials the static mesh (2 connections per server pair: IPC and
// iSCSI, §2.3) and then starts terminals and cross traffic.
func (c *Cluster) setup(p *sim.Proc) {
	ipcOpts := tcp.DialOptions{Class: netsim.ClassBestEffort, MaxRetx: 1000, TC: telemetry.ClassIPC}
	stoOpts := ipcOpts
	stoOpts.TC = telemetry.ClassISCSI
	for i := 0; i < c.P.Nodes; i++ {
		for j := i + 1; j < c.P.Nodes; j++ {
			ipc := tcp.Dial(p, c.nodes[i].stack, netsim.NodeAddr(j), PortIPC, ipcOpts)
			if ipc == nil {
				c.fail(fmt.Errorf("core: IPC dial %d->%d failed during setup", i, j))
				return
			}
			c.bindIPC(i, j, ipc)
			sto := tcp.Dial(p, c.nodes[i].stack, netsim.NodeAddr(j), iscsi.Port, stoOpts)
			if sto == nil {
				c.fail(fmt.Errorf("core: iSCSI dial %d->%d failed during setup", i, j))
				return
			}
			c.bindISCSI(i, j, sto)
		}
	}
	// Membership and checkpointing ride on the established mesh: starting
	// them before the dials complete would raise false suspicions against
	// peers that are merely still handshaking.
	if c.rec != nil {
		for i := range c.nodes {
			c.rec.startMembership(i)
			c.rec.startCheckpoints(i)
		}
	}
	c.startTerminals()
	if c.ftp != nil {
		c.ftp.start()
	}
	// Warmup boundary: reset statistics.
	c.Sim.At(c.P.Warmup, func() { c.resetStats() })
}

// startTerminals spawns the TPC-C client population.
func (c *Cluster) startTerminals() {
	wh := c.Eng.Warehouses()
	for w := 0; w < wh; w++ {
		for t := 0; t < c.P.TerminalsPerWarehouse; t++ {
			w, t := w, t
			c.Sim.Spawn(fmt.Sprintf("term-%d-%d", w, t), func(p *sim.Proc) {
				c.terminal(p, w, t)
			})
		}
	}
}

// Run simulates warmup plus measurement and returns the metrics. It fails —
// rather than hanging or silently truncating — when setup cannot establish
// the connection mesh or when the kernel watchdog finds the simulation
// wedged (every remaining process parked with an empty calendar, which a
// protocol bug under fault injection would otherwise cause).
func (c *Cluster) Run() (Metrics, error) {
	c.Sim.OnDeadlock(func(e *sim.DeadlockError) {
		// Annotate with the fault windows active at the instant of the wedge:
		// the usual cause of a kernel deadlock is a protocol wait that an
		// in-flight fault unbounded.
		if c.inj != nil {
			if active := c.inj.ActiveFaults(); len(active) > 0 {
				c.fail(fmt.Errorf("%w (active faults: %s)", e, active))
				return
			}
		}
		c.fail(e)
	})
	end := c.P.Warmup + c.P.Measure
	c.Sim.Run(end)
	m := c.collect()
	c.Sim.Shutdown()
	return m, c.runErr
}

// prewarm fills every node's buffer cache with its own partition, hottest
// tables first.
func (c *Cluster) prewarm() {
	order := []int{tpcc.TDistrict, tpcc.TWarehouse, tpcc.TStock, tpcc.TItem,
		tpcc.TNewOrder, tpcc.TOrder, tpcc.TCustomer, tpcc.TOrderLine, tpcc.THistory}
	full := make([]bool, len(c.nodes))
	warm := func(blk db.BlockID) {
		home := c.Cat.Home(blk)
		if full[home] {
			return
		}
		if !c.nodes[home].dbn.GCS.Prewarm(blk) {
			full[home] = true
		}
	}
	// Index leaves first — they are the hottest blocks of all.
	for _, ti := range order {
		t := c.Eng.Tables[ti]
		for b := int64(0); b < t.IndexLeafBlocks(); b++ {
			warm(t.IndexLeafBlock(b))
		}
	}
	for _, ti := range order {
		t := c.Eng.Tables[ti]
		for b := int64(0); b < t.Blocks(); b++ {
			warm(db.BlockID{Table: t.ID, Block: b})
		}
	}
}

// resetStats zeroes the measured counters at the warmup boundary.
func (c *Cluster) resetStats() {
	c.measuring = true
	now := c.Sim.Now()
	for i := range c.commits {
		c.commits[i] = 0
	}
	c.rollbacks, c.retries, c.failures = 0, 0, 0
	c.respTally = respTimes{}
	c.respHist = newRespHist()
	for _, n := range c.nodes {
		n.dbn.Stats = db.NodeStats{}
		n.dbn.GCS.Stats = db.GCSStats{}
		n.cpu.ResetStats(now)
		n.dbn.Cache.Hits, n.dbn.Cache.Misses = 0, 0
		n.initiator.Timeouts, n.initiator.IOErrors, n.initiator.Failed = 0, 0, 0
		n.dbn.Pager.DiskRetries, n.dbn.Pager.DiskFailures, n.dbn.Pager.WriteBackErrors = 0, 0, 0
		for _, d := range n.drives {
			d.FaultErrors = 0
		}
	}
	if c.san != nil {
		for _, d := range c.san.Drives {
			d.FaultErrors = 0
		}
	}
	c.Topo.Net.Drops, c.Topo.Net.Marks = 0, 0
	c.Topo.Net.FaultDrops, c.Topo.Net.CorruptDrops = 0, 0
	for i := range c.Topo.Net.DelayByClass {
		c.Topo.Net.DelayByClass[i] = netsim.DelayTally{}
	}
	c.Dom.Retransmits, c.Dom.Resets = 0, 0
	if c.ftp != nil {
		c.ftp.resetStats()
	}
}
