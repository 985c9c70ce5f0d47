// Command dcluesim runs a single clustered-DBMS simulation and prints its
// metrics. Every major knob of the paper's study is a flag.
//
// Examples:
//
//	dcluesim -nodes 8 -affinity 0.8
//	dcluesim -nodes 8 -affinity 0.5 -swtcp -swiscsi
//	dcluesim -nodes 8 -lata 4 -crosstraffic 100e6 -priority
//	dcluesim -nodes 4 -capacity
//	dcluesim -nodes 4 -faults "linkdown:node:1@200+20" -timeline 5
//	dcluesim -nodes 4 -faults "crash:dp1@200+0;restart:dp1@260+0" -timeline 5
//	dcluesim -nodes 4 -trace trace.json            # Chrome trace_event file
//	dcluesim -nodes 4 -trace spans.jsonl -trace-sample 10
//	dcluesim -nodes 4 -telemetry util.jsonl -telemetry-bucket 5
//	dcluesim -nodes 4 -telemetry snapshot.prom     # Prometheus text snapshot
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"dclue"
	"dclue/internal/cliutil"
)

func main() {
	var (
		nodes      = flag.Int("nodes", 4, "cluster size (server nodes)")
		lata       = flag.Int("lata", 12, "max nodes per LATA (subcluster)")
		affinity   = flag.Float64("affinity", 0.8, "probability a query routes to its home server")
		warehouses = flag.Int("warehouses", 0, "scaled warehouse count (0 = 40 per node)")
		capacity   = flag.Bool("capacity", false, "binary-search the max sustainable configuration instead of one run")
		swTCP      = flag.Bool("swtcp", false, "software TCP instead of HW offload")
		swISCSI    = flag.Bool("swiscsi", false, "software iSCSI instead of HW offload")
		central    = flag.Bool("centrallog", false, "centralized (single-node) logging")
		lowComp    = flag.Bool("lowcomp", false, "divide DB path lengths by 4 (the paper's low-computation variant)")
		cross      = flag.Float64("crosstraffic", 0, "offered FTP cross traffic, unscaled bits/s (e.g. 100e6)")
		priority   = flag.Bool("priority", false, "give cross traffic AF21 priority")
		extraRTT   = flag.Float64("extra-rtt-ms", 0, "added inter-LATA round-trip latency, unscaled milliseconds")
		fwdRate    = flag.Float64("router-pps", 10000, "router forwarding rate in the scaled model, packets/s")
		seed       = flag.Uint64("seed", 1, "random seed")
		warmup     = flag.Float64("warmup", 150, "warm-up, simulated seconds")
		measure    = flag.Float64("measure", 240, "measurement window, simulated seconds")
		faultSpec  = flag.String("faults", "", `fault schedule, e.g. "linkdown:node:1@200+20;crash:dp1@250+0;restart:dp1@300+0"`)
		heartbeat  = flag.Float64("heartbeat", 0, "membership heartbeat cadence, simulated seconds (0 = 5 ms scaled; crash/restart runs only)")
		suspect    = flag.Float64("suspect-after", 0, "membership lease: suspect a peer silent this long, simulated seconds (0 = 4x heartbeat)")
		checkpoint = flag.Float64("checkpoint", 0, "dirty-page checkpoint cadence, simulated seconds (0 = 10 s scaled); bounds redo-log replay after a crash")
		retryMax   = flag.Float64("retry-delay-max", 0, "cap on the exponential retry backoff under recovery, simulated seconds (0 = 16x retry delay)")
		timeline   = flag.Float64("timeline", 0, "print a throughput timeline at this bucket size, simulated seconds")
		jobs       = flag.Int("j", 0, "workers for the -capacity search (0 = GOMAXPROCS; single runs are unaffected)")
		prof       = cliutil.AddProfiles(flag.CommandLine, "dcluesim", "simulator")
		obs        = cliutil.AddObservers(flag.CommandLine)
	)
	flag.Parse()

	prof.Start()
	exit := prof.Exit

	p := dclue.DefaultParams(*nodes)
	p.NodesPerLata = *lata
	p.Affinity = *affinity
	p.Warehouses = *warehouses
	p.SWTCP = *swTCP
	p.SWiSCSI = *swISCSI
	p.CentralLogging = *central
	p.LowComputation = *lowComp
	p.CrossTrafficBps = *cross
	p.CrossTrafficPriority = *priority
	p.ExtraLatency = dclue.Time(*extraRTT / 2 * p.Scale * float64(dclue.Millisecond))
	p.RouterFwdRate = *fwdRate * 100 / p.Scale
	p.Seed = *seed
	p.Warmup = dclue.Time(*warmup * float64(dclue.Second))
	p.Measure = dclue.Time(*measure * float64(dclue.Second))
	p.FaultSpec = *faultSpec
	p.Heartbeat = dclue.Time(*heartbeat * float64(dclue.Second))
	p.SuspectAfter = dclue.Time(*suspect * float64(dclue.Second))
	p.CheckpointInterval = dclue.Time(*checkpoint * float64(dclue.Second))
	p.RetryDelayMax = dclue.Time(*retryMax * float64(dclue.Second))
	p.TimelineBucket = dclue.Time(*timeline * float64(dclue.Second))

	// Reject unusable parameters up front: a zero-node cluster or a typo'd
	// fault target (crash:dp7 on a 4-node cluster) should fail naming the
	// field, not surface as a mid-run panic after the warm-up has burned
	// real time.
	if err := p.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "dcluesim:", err)
		exit(1)
	}

	if err := obs.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "dcluesim:", err)
		exit(2)
	}
	p.Trace, p.Telemetry = obs.Trace, obs.Telemetry
	writeObservers := func() {
		if err := obs.Write(os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "dcluesim:", err)
			exit(1)
		}
	}

	start := time.Now()
	if *capacity {
		pool := dclue.NewSweepPool(*jobs)
		r := dclue.MeasureCapacityWith(pool, p, 48)
		fmt.Printf("capacity: %d warehouses (feasible=%v)\n", r.Warehouses, r.Feasible)
		fmt.Print(r.Metrics)
		fmt.Fprintf(os.Stderr, "elapsed %.1fs (%d workers)\n", time.Since(start).Seconds(), pool.Workers())
		writeObservers()
		if !r.Feasible {
			exit(1)
		}
		exit(0)
	}
	m, err := dclue.Run(p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcluesim:", err)
		exit(1)
	}
	fmt.Print(m)
	fmt.Fprintf(os.Stderr, "elapsed %.1fs\n", time.Since(start).Seconds())
	for _, pt := range m.Timeline {
		fmt.Printf("  t=%6.1fs  %7.1f txn/s\n", pt.T.Seconds(), pt.TxnRate)
	}
	writeObservers()
	exit(0)
}
