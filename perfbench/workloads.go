package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dclue/internal/core"
	"dclue/internal/experiments"
	"dclue/internal/runner"
	"dclue/internal/sim"
	"dclue/internal/telemetry"
	"dclue/internal/trace"
)

// workload is one named input set. run executes one instance of it: every
// simulation the workload consists of, once.
type workload struct {
	name  string
	why   string
	sweep bool // a figure sweep with a rendered table to check
	run   func(e *env) (instance, error)
}

// env is what an instance needs from the command line.
type env struct {
	seed  uint64
	out   string // directory for exports and records
	spans *spans
}

// instance is the outcome of one workload instance.
type instance struct {
	wall        time.Duration // the whole instance, exports included
	sims        []simResult
	exportS     float64 // host seconds in WriteFile (sweep only)
	exportBytes int64
	table       string // rendered figure table (sweep only)
	points      int    // figure points the instance produced

	// Go runtime counters over the instance.
	gcCycles   uint32
	allocBytes uint64
}

// simResult is one simulation, the unit the benchmark counts as an
// operation.
type simResult struct {
	key      string // names the configuration; equal keys must repeat exactly
	m        core.Metrics
	w        work
	setup    time.Duration // host time inside core.New
	simulate time.Duration // host time inside Run
	simSec   float64       // simulated seconds
	err      error
}

// work is the deterministic work of one simulation, read from public fields
// after Run. Equal configurations must produce equal work, traced or not.
type work struct {
	Events        uint64 // kernel events fired
	PktsForwarded uint64 // router forwarding-engine completions
	FwdDrops      uint64 // packets dropped at a full forwarding engine
	SegsSent      uint64
	Retransmits   uint64 // after warmup
	Handshakes    uint64
	Commits       uint64 // after warmup, all transaction types
	Retries       uint64 // transaction retries after lock failure
	Failures      uint64 // transactions abandoned after MaxTxnRetries

	CtlMsgsPerTxn   float64
	DataMsgsPerTxn  float64
	LockWaitsPerTxn float64
	DiskReadsPerTxn float64
	BufferHitRatio  float64
}

func workOf(c *core.Cluster, m core.Metrics) work {
	w := work{
		Events:          c.Sim.EventCount(),
		SegsSent:        c.Dom.SegsSent,
		Retransmits:     c.Dom.Retransmits,
		Handshakes:      c.Dom.Handshakes,
		Retries:         m.Retries,
		Failures:        m.Failures,
		CtlMsgsPerTxn:   m.CtlMsgsPerTxn,
		DataMsgsPerTxn:  m.DataMsgsPerTxn,
		LockWaitsPerTxn: m.LockWaitsPerTxn,
		DiskReadsPerTxn: m.DiskReadsPerTxn,
		BufferHitRatio:  m.BufferHitRatio,
	}
	w.PktsForwarded, w.FwdDrops = c.Topo.Outer.Forwarded, c.Topo.Outer.FwdDrops
	for _, r := range c.Topo.Inner {
		w.PktsForwarded += r.Forwarded
		w.FwdDrops += r.FwdDrops
	}
	for _, n := range m.Commits {
		w.Commits += n
	}
	return w
}

// runSim builds and runs one cluster inside setup and simulate spans. A
// panic is recovered and reported as the simulation's error.
func runSim(sp *spans, parent int64, key string, p core.Params) (r simResult) {
	r.key = key
	r.simSec = (p.Warmup + p.Measure).Seconds()
	defer func() {
		if v := recover(); v != nil {
			r.err = fmt.Errorf("%s: panic: %v", key, v)
		}
	}()
	var c *core.Cluster
	r.setup = sp.do(parent, "setup", func(int64) { c, r.err = core.New(p) })
	if r.err != nil {
		return r
	}
	r.simulate = sp.do(parent, "simulate", func(int64) { r.m, r.err = c.Run() })
	r.w = workOf(c, r.m)
	return r
}

// Simulated windows of the single-run workloads. They are longer than the
// figures' quick mode (50 s + 100 s) so one run does enough work to time.
const (
	singleWarmup  = 50 * sim.Second
	singleMeasure = 150 * sim.Second
)

// single is a workload of one cluster simulation.
func single(params func() core.Params) func(e *env) (instance, error) {
	return func(e *env) (instance, error) {
		p := params()
		p.Seed = e.seed
		p.Warmup, p.Measure = singleWarmup, singleMeasure
		var in instance
		in.wall = e.spans.do(0, "workload", func(wl int64) {
			e.spans.do(wl, "point", func(pt int64) {
				in.sims = append(in.sims, runSim(e.spans, pt, "cluster", p))
			})
		})
		in.points = 1
		return in, nil
	}
}

// Observers attached in sweep-observed: trace every 10th transaction and
// keep up to 10k span records per run for export; telemetry timelines in
// 5 s buckets.
const (
	traceSampleEvery = 10
	traceMaxEvents   = 10000
	telemetryBucket  = 5 * sim.Second
)

// sweepWidth is the sweep's pool width. One worker runs every point on the
// calling goroutine in a fixed order and never speculates, so an instance
// does the same work each time for a given seed and no two simulations
// compete for the host's few, shared CPUs. With a wider pool the timing
// follows the scheduler and whichever speculative probes happen to run.
const sweepWidth = 1

// sweepObserved runs fig06 in quick mode on a pool of width sweepWidth,
// with trace and telemetry collectors attached, and writes both exports.
func sweepObserved(e *env) (instance, error) {
	var (
		in  instance
		err error
	)
	in.wall = e.spans.do(0, "workload", func(wl int64) {
		col := trace.NewCollector(traceSampleEvery)
		col.KeepEvents(traceMaxEvents)
		tel := telemetry.NewCollector(telemetryBucket)
		exec := func(p core.Params) (core.Metrics, error) {
			var r simResult
			key := fmt.Sprintf("n%d/aff%.2f/wh%d", p.Nodes, p.Affinity, p.Warehouses)
			e.spans.do(wl, "point", func(pt int64) { r = runSim(e.spans, pt, key, p) })
			in.sims = append(in.sims, r)
			return r.m, r.err
		}
		fig, _ := experiments.Lookup("fig06")
		res := fig.Run(experiments.Options{
			Seed: e.seed, Quick: true, Pool: runner.New(sweepWidth),
			Trace: col, Telemetry: tel, Exec: exec,
		})
		in.table = res.Table()
		for _, s := range res.Series {
			in.points += len(s.Points)
		}
		in.exportS = e.spans.do(wl, "export", func(int64) {
			tracePath := filepath.Join(e.out, "fig06-trace.json")
			telPath := filepath.Join(e.out, "fig06-telemetry.jsonl")
			if err = col.WriteFile(tracePath); err != nil {
				return
			}
			if err = tel.WriteFile(telPath); err != nil {
				return
			}
			in.exportBytes, err = fileSizes(tracePath, telPath)
		}).Seconds()
	})
	return in, err
}

func fileSizes(paths ...string) (int64, error) {
	var n int64
	for _, p := range paths {
		st, err := os.Stat(p)
		if err != nil {
			return 0, err
		}
		n += st.Size()
	}
	return n, nil
}

// workloads are the benchmark's named input sets; the names are stable.
var workloads = []workload{
	{
		name: "oltp-local",
		why:  "affinity 1.0 on 4 nodes: almost no IPC or iSCSI, so process switches, db and tpcc dominate host time",
		run: single(func() core.Params {
			p := core.DefaultParams(4)
			p.Affinity = 1.0
			p.Warehouses = 32
			return p
		}),
	},
	{
		name: "oltp-ipc",
		why:  "affinity 0.5 on 8 nodes in one LATA: cache-fusion IPC stresses the GCS, TCP, routers and the calendar",
		run: single(func() core.Params {
			p := core.DefaultParams(8)
			p.Affinity = 0.5
			p.Warehouses = 32
			return p
		}),
	},
	{
		name: "xtraffic-prio",
		why:  "600 Mb/s priority FTP over 2 LATAs: bulk flows, fresh connections and priority queues stress netsim and tcp",
		run: single(func() core.Params {
			p := core.DefaultParams(4)
			p.NodesPerLata = 2
			p.Affinity = 0.8
			p.Warehouses = 32
			p.CrossTrafficBps = 600e6
			p.CrossTrafficPriority = true
			return p
		}),
	},
	{
		name:  "sweep-observed",
		sweep: true,
		why:   "fig06 quick on a pool with trace and telemetry attached and exported: the user-facing sweep path",
		run:   sweepObserved,
	},
}
