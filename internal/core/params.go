// Package core assembles the full DCLUE system: server nodes (CPU model,
// disks, TCP/iSCSI stacks, database engine), the LATA network topology,
// the TPC-C client population with affinity routing, optional FTP cross
// traffic, and the measurement machinery. It is the paper's simulator in
// package form; the experiments package drives it to regenerate every
// figure.
package core

import (
	"fmt"

	"dclue/internal/db"
	"dclue/internal/faults"
	"dclue/internal/iscsi"
	"dclue/internal/sim"
	"dclue/internal/tcp"
	"dclue/internal/telemetry"
	"dclue/internal/tpcc"
	"dclue/internal/trace"
)

// Params configures one cluster simulation run. The zero value is not
// usable; start from DefaultParams.
type Params struct {
	Seed  uint64
	Scale float64 // the paper's system scale-down factor (100)

	Nodes        int
	NodesPerLata int // paper: 14-port routers support up to 12 servers

	Affinity float64 // α: probability a query routes to its home server

	// Workload sizing; zero values are derived from Nodes.
	Warehouses            int
	Items                 int
	CustomersPerDist      int
	TerminalsPerWarehouse int

	// Network.
	NodeLinkBps    float64  // server links (1 Gb/s unscaled)
	InterLataBps   float64  // inter-LATA links (1 or 10 Gb/s unscaled)
	RouterFwdRate  float64  // packets/s in the scaled model (paper: 10000)
	ExtraLatency   sim.Time // added inter-LATA delay (Figs 12-13)
	ClientLinkBps  float64
	RouterFwdLat   sim.Time
	NodePropDelay  sim.Time
	InterPropDelay sim.Time

	// Protocol implementation (Fig 11).
	SWTCP   bool // software TCP instead of HW offload
	SWiSCSI bool // software iSCSI instead of HW offload

	// Logging (Fig 9).
	CentralLogging bool
	// LogBatchLimit overrides the log device group-commit depth (0 keeps
	// the default; 1 disables group commit). Ablation knob.
	LogBatchLimit int

	// CentralSAN switches to §2.1's shared-IO model: all blocks live on a
	// pooled central disk array reached over an unmodeled SAN fabric
	// instead of per-node disks with iSCSI. Ablation knob.
	CentralSAN bool
	// SANLatency is the one-way SAN fabric latency (0 = 20 µs unscaled).
	SANLatency sim.Time

	// FIFODisks disables the per-table elevator (ablation knob).
	FIFODisks bool

	// WFQRouters replaces strict-priority scheduling at every router port
	// with weighted fair queueing (equal weights), the interference remedy
	// the paper's conclusion calls for. Ablation knob.
	WFQRouters bool

	// CoarseSubpages switches every table to 8 lock subpages per block
	// instead of the tuned row-level granularity (§2.3). Ablation knob.
	CoarseSubpages bool

	// NoPrewarm starts every buffer cache cold. Ablation knob.
	NoPrewarm bool

	// Computation (Figs 13, 15, 16): divide DB path lengths by 4.
	LowComputation bool

	// Cross traffic (Figs 14-16): offered FTP load in *unscaled* bits/s
	// (e.g. 100e6 for the paper's 100 Mb/s point) and its QoS class.
	CrossTrafficBps      float64
	CrossTrafficPriority bool // FTP at AF21; DBMS stays best-effort

	// Node memory sizing.
	BufferFraction float64 // buffer cache as a fraction of the node's partition
	OverflowBytes  int

	// Run control.
	Warmup  sim.Time
	Measure sim.Time

	// MaxTxnRetries bounds the delayed-retry loop on lock failure.
	MaxTxnRetries int
	RetryDelay    sim.Time
	// RetryDelayMax caps the exponential backoff the retry loop switches to
	// when the recovery subsystem is armed (0 picks 16x RetryDelay). With a
	// node fenced, constant-delay retries would hammer the gate; backoff
	// spreads them across the fence-to-reopen window.
	RetryDelayMax sim.Time

	// Recovery subsystem knobs, active only when FaultSpec contains crash/
	// restart events (heartbeats, checkpoints and failover paths stay
	// completely unarmed otherwise, keeping fault-free runs event-for-event
	// identical to builds without the subsystem).
	//
	// Heartbeat is the membership heartbeat cadence (0 picks 5 ms scaled);
	// heartbeats are real packets on the IPC connections, so detection
	// latency is a property of the fabric. SuspectAfter is the lease: a live
	// peer silent this long becomes suspect (0 picks 4x Heartbeat).
	// CheckpointInterval is the dirty-page checkpoint cadence bounding how
	// much redo log a crash forces recovery to replay (0 picks 100 ms
	// scaled).
	Heartbeat          sim.Time
	SuspectAfter       sim.Time
	CheckpointInterval sim.Time

	// FaultSpec is a fault-injection schedule in the faults package's
	// compact syntax ("linkdown:node:1@60+10;loss:interlata:0@80+20=0.3");
	// empty disables injection. Targets: node:<i> (access link pair, CPU and
	// drives of server i), interlata:<l> (LATA l's uplink pair), client (the
	// client cloud's access pair), san (the pooled array, CentralSAN only).
	FaultSpec string

	// FetchTimeout bounds each GCS protocol wait and iSCSI command (0 picks
	// a default when FaultSpec is set, and disables timeouts otherwise — on
	// a fault-free fabric every reply eventually arrives).
	FetchTimeout sim.Time

	// TimelineBucket, when positive, records a throughput timeline at that
	// granularity (committed transactions per second per bucket, warmup
	// included) into Metrics.Timeline — the degradation/recovery view the
	// fault experiments plot.
	TimelineBucket sim.Time

	// Trace, when non-nil, enables the transaction-span observability layer
	// (internal/trace): the run registers itself with the collector, sampled
	// transactions record per-phase latency histograms that surface as
	// Metrics.Breakdown, and — when the collector retains events — span
	// segments are kept for JSONL/Chrome export.
	//
	// Trace and Telemetry are observers: they never perturb the simulated
	// trajectory or add calendar events, so an observed run's metrics
	// outside Breakdown and UtilDecomp are bit-identical to a bare run's
	// (Metrics.FingerprintModel is the regression hook).
	Trace *trace.Collector

	// Telemetry, when non-nil, enables the unified metrics registry
	// (internal/telemetry): the run registers per-component utilization
	// instruments — links and router ports with traffic-class attribution,
	// queue occupancy, CPU thread/IRQ busy, per-spindle disk utilization,
	// GCS message rates and lock waits, recovery phase timelines — and
	// reports Metrics.UtilDecomp.
	Telemetry *telemetry.Collector

	// Label names this run in trace and telemetry exports; empty derives
	// a label from the cluster size and offload mode.
	Label string
}

// DefaultParams returns the paper's baseline configuration at scale 100
// for the given cluster size: P4 DP nodes on 1 Gb/s Ethernet behind
// 14-port routers, HW TCP and iSCSI, local logging, TPC-C sized by the
// 12.5 tpm-C/warehouse rule (≈40 scaled warehouses per node), affinity 0.8.
func DefaultParams(nodes int) Params {
	scale := 100.0
	return Params{
		Seed:  1,
		Scale: scale,

		Nodes:        nodes,
		NodesPerLata: 12,
		Affinity:     0.8,

		Items:                 1000,
		CustomersPerDist:      120,
		TerminalsPerWarehouse: 10,

		NodeLinkBps:    1e9 / scale,
		InterLataBps:   1e9 / scale,
		RouterFwdRate:  10000 * 100 / scale,
		ClientLinkBps:  1e9 / scale,
		RouterFwdLat:   sim.Time(20 * scale), // 20 ns unscaled forwarding latency
		NodePropDelay:  sim.Time(1 * scale),  // ~1 ns/metre rack scale, scaled
		InterPropDelay: sim.Time(5 * scale),

		BufferFraction: 0.85,
		OverflowBytes:  4 << 20,

		Warmup:  150 * sim.Second,
		Measure: 240 * sim.Second,

		MaxTxnRetries: 10,
		RetryDelay:    sim.Time(0.5 * float64(sim.Millisecond) * scale),
	}
}

// label names this run in trace and telemetry exports.
func (p *Params) label() string {
	if p.Label != "" {
		return p.Label
	}
	off := "hw"
	if p.SWTCP || p.SWiSCSI {
		off = "sw"
	}
	return fmt.Sprintf("n%d-%s", p.Nodes, off)
}

// heartbeat resolves the membership heartbeat cadence.
func (p *Params) heartbeat() sim.Time {
	if p.Heartbeat > 0 {
		return p.Heartbeat
	}
	return sim.Time(0.005 * float64(sim.Second) * p.Scale)
}

// suspectAfter resolves the membership lease (silence threshold).
func (p *Params) suspectAfter() sim.Time {
	if p.SuspectAfter > 0 {
		return p.SuspectAfter
	}
	return 4 * p.heartbeat()
}

// checkpointInterval resolves the dirty-page checkpoint cadence.
func (p *Params) checkpointInterval() sim.Time {
	if p.CheckpointInterval > 0 {
		return p.CheckpointInterval
	}
	return sim.Time(0.1 * float64(sim.Second) * p.Scale)
}

// retryDelayMax resolves the backoff cap for the recovery-armed retry loop.
func (p *Params) retryDelayMax() sim.Time {
	if p.RetryDelayMax > 0 {
		return p.RetryDelayMax
	}
	return 16 * p.RetryDelay
}

// FaultTargets lists the injectable target names this topology exposes, by
// class, so a fault schedule can be validated at parse time — before any
// simulation object exists — with errors that name the valid targets.
func (p *Params) FaultTargets() faults.Targets {
	var t faults.Targets
	for i := 0; i < p.Nodes; i++ {
		name := fmt.Sprintf("node:%d", i)
		t.Links = append(t.Links, name)
		t.CPUs = append(t.CPUs, name)
		t.Drives = append(t.Drives, name)
		t.Nodes = append(t.Nodes, fmt.Sprintf("dp%d", i))
	}
	for l := range p.LataLayout() {
		t.Links = append(t.Links, fmt.Sprintf("interlata:%d", l))
	}
	t.Links = append(t.Links, "client")
	if p.CentralSAN {
		t.Drives = append(t.Drives, "san")
	}
	return t
}

// Validate reports the first field New cannot build a cluster from: a
// Scale, cluster size, affinity, warehouse count, router forwarding rate or
// run window out of range, or a FaultSpec that does not parse or names a
// target this topology lacks (the error lists the valid names). It builds
// nothing, so CLIs call it before simulation and a bad value fails in
// milliseconds.
func (p *Params) Validate() error {
	_, err := p.validate()
	return err
}

// validate is Validate returning the parsed fault schedule for New to bind.
// The negated range tests also reject NaN.
func (p *Params) validate() (faults.Schedule, error) {
	switch {
	case !(p.Scale > 0):
		return nil, fmt.Errorf("Params.Scale = %g: want a positive factor; start from DefaultParams", p.Scale)
	case p.Nodes < 1 || p.Nodes > db.MaxNodes:
		return nil, fmt.Errorf("Params.Nodes = %d: want 1 to %d", p.Nodes, db.MaxNodes)
	case !(p.Affinity >= 0 && p.Affinity <= 1):
		return nil, fmt.Errorf("Params.Affinity = %g: want a probability in [0, 1]", p.Affinity)
	case p.Warehouses < 0:
		return nil, fmt.Errorf("Params.Warehouses = %d: want 0 (sized from Nodes) or more", p.Warehouses)
	case !(p.RouterFwdRate > 0):
		return nil, fmt.Errorf("Params.RouterFwdRate = %g: want a positive packet rate", p.RouterFwdRate)
	case p.Warmup < 0:
		return nil, fmt.Errorf("Params.Warmup = %gs: want 0 or more", p.Warmup.Seconds())
	case p.Measure <= 0:
		return nil, fmt.Errorf("Params.Measure = %gs: want a positive window", p.Measure.Seconds())
	}
	if p.FaultSpec == "" {
		return nil, nil
	}
	sch, err := faults.ParseSchedule(p.FaultSpec)
	if err == nil {
		err = sch.Validate(p.FaultTargets())
	}
	if err != nil {
		return nil, fmt.Errorf("Params.FaultSpec: %w", err)
	}
	return sch, nil
}

// WarehouseCount returns the explicit Warehouses, or else TPC-C's linear
// sizing. Fig 10's sub-linear rule is SqrtGrowthWarehouses, which sizes
// that figure's runs.
func (p *Params) WarehouseCount() int {
	if p.Warehouses > 0 {
		return p.Warehouses
	}
	return 40 * p.Nodes // ≈500 scaled tpm-C per node at 12.5 tpm-C/warehouse
}

// LataLayout splits nodes into LATAs of at most NodesPerLata.
func (p *Params) LataLayout() []int {
	n := p.Nodes
	per := p.NodesPerLata
	if per <= 0 {
		per = 12
	}
	var latas []int
	for n > 0 {
		take := per
		if n < take {
			take = n
		}
		latas = append(latas, take)
		n -= take
	}
	return latas
}

// tpccConfig derives the workload sizing.
func (p *Params) tpccConfig() tpcc.Config {
	return tpcc.Config{
		Warehouses:       p.WarehouseCount(),
		Items:            p.Items,
		CustomersPerDist: p.CustomersPerDist,
		CoarseSubpages:   p.CoarseSubpages,
	}
}

// tcpCosts returns the per-stack TCP cost model. The software path pays per
// segment and per byte (1 copy on send, 2 on receive, §2.1); the offloaded
// path leaves a small host touch per message.
func (p *Params) tcpCosts() tcp.CostModel {
	if p.SWTCP {
		// Kernel TCP of the era: interrupt + protocol + buffer management
		// per segment, plus one copy on send and two on receive.
		return tcp.CostModel{
			SendPerSegment: 9000,
			SendPerByte:    1.0,
			RecvPerSegment: 12000,
			RecvPerByte:    2.0,
			ConnSetup:      60000,
		}
	}
	return tcp.CostModel{
		SendPerSegment: 400,
		SendPerByte:    0.02,
		RecvPerSegment: 500,
		RecvPerByte:    0.02,
		ConnSetup:      6000,
	}
}

// iscsiCosts returns the iSCSI cost model (Fig 11's second knob).
func (p *Params) iscsiCosts() iscsi.CostModel {
	if p.SWiSCSI {
		return iscsi.SWCosts()
	}
	return iscsi.HWCosts()
}

// opCosts returns the DB path-length table, possibly in the low-computation
// variant.
func (p *Params) opCosts() *db.OpCosts {
	c := db.DefaultOpCosts()
	if p.LowComputation {
		c = c.Scale(0.25)
	}
	return c
}
