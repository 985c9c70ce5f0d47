// Command dclueexp regenerates the paper's figures (Figs 2-16 of Kant &
// Sahoo, ICPP 2005) and the ablation, fault, trace and telemetry experiments
// beyond them, and prints each as a text table.
//
// -run selects what to run: an experiment id (-list prints every one), the
// id without its family prefix (6 or 06 for fig06, qos for abl-qos, loss for
// flt-loss, decomp for lat-decomp), or a whole family (fig, abl, flt, lat,
// util).
//
// Sweeps run on a parallel work-stealing pool (-j workers, default
// GOMAXPROCS); the output is byte-identical to a sequential run (-j 1),
// only faster. -bench appends a machine-readable record of the run —
// per-figure points, fingerprints and wall-clock — to BENCH_sweeps.json.
// -status serves the elapsed wall-clock at /status and the sealed
// telemetry at /metrics while the sweep runs.
//
// Examples:
//
//	dclueexp -run 6                  # throughput scaling vs nodes and affinity
//	dclueexp -run fig -quick -j 4    # every figure, reduced sweeps, 4 workers
//	dclueexp -run fig -quick -j 1    # same output, one worker
//	dclueexp -run fig -quick -bench BENCH_sweeps.json
//	dclueexp -run abl -quick         # every design ablation
//	dclueexp -run lat-decomp -quick  # latency decomposition by phase
//	dclueexp -run 2 -quick -trace fig2.json   # same table + Chrome trace
//	dclueexp -run util-decomp -quick -telemetry util.jsonl -telemetry-bucket 5
//	dclueexp -run fig -quick -status :8080   # elapsed time at /status
//	dclueexp -list
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"dclue"
	"dclue/internal/cliutil"
	"dclue/internal/experiments"
)

func main() {
	var (
		runID   = flag.String("run", "", "experiments to run: an id from -list, the id without its family prefix (6 for fig06, qos for abl-qos), or a family (fig, abl, flt, lat, util)")
		list    = flag.Bool("list", false, "list every experiment: figures, ablations, fault, trace and telemetry experiments")
		quick   = flag.Bool("quick", false, "reduced sweeps and shorter runs")
		chart   = flag.Bool("chart", false, "render ASCII charts instead of tables")
		seed    = flag.Uint64("seed", 1, "random seed")
		jobs    = flag.Int("j", 0, "parallel sweep workers (0 = GOMAXPROCS)")
		bench   = flag.String("bench", "", "append a run record (figures, fingerprints, wall-clock) to this JSON file")
		statusA = flag.String("status", "", "serve a live status endpoint on this address (e.g. :8080): elapsed wall-clock JSON at /status, Prometheus telemetry snapshot at /metrics")
		prof    = cliutil.AddProfiles(flag.CommandLine, "dclueexp", "sweep")
		obs     = cliutil.AddObservers(flag.CommandLine)
	)
	flag.Parse()

	prof.Start()
	exit := prof.Exit

	pool := dclue.NewSweepPool(*jobs)
	opts := dclue.ExperimentOptions{Seed: *seed, Quick: *quick, Log: os.Stderr, Pool: pool}

	if err := obs.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "dclueexp:", err)
		exit(2)
	}
	opts.Trace, opts.Telemetry = obs.Trace, obs.Telemetry

	if *statusA != "" {
		ln, err := net.Listen("tcp", *statusA)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dclueexp: status:", err)
			exit(1)
		}
		fmt.Fprintf(os.Stderr, "status: serving on http://%s (/status, /metrics)\n", ln.Addr())
		//lint:allow goroutine the status endpoint serves HTTP beside the sweep and only reads lock-protected snapshots, never sim state
		go http.Serve(ln, newStatusServer(obs.Telemetry))
	}

	if *list {
		for _, f := range dclue.Figures() {
			fmt.Printf("%-16s %s\n", f.ID, f.Title)
		}
		exit(0)
	}
	if *runID == "" {
		flag.Usage()
		exit(2)
	}
	figs := experiments.Select(*runID)
	if figs == nil {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; try -list\n", *runID)
		exit(2)
	}

	// Wrap every figure so its wall-clock is captured even when the pool
	// interleaves figures; results still merge in figure order.
	elapsed := make([]time.Duration, len(figs))
	timed := make([]dclue.Figure, len(figs))
	for i, f := range figs {
		i, f := i, f
		timed[i] = f
		timed[i].Run = func(o dclue.ExperimentOptions) dclue.ExperimentResult {
			t0 := time.Now()
			r := f.Run(o)
			elapsed[i] = time.Since(t0)
			return r
		}
	}
	start := time.Now()
	results := dclue.RunFigures(timed, opts)
	total := time.Since(start)

	for i, r := range results {
		if *chart {
			fmt.Print(r.Chart())
		} else {
			fmt.Print(r.Table())
		}
		if len(results) > 1 {
			fmt.Println()
		}
		fmt.Fprintf(os.Stderr, "%-16s %8.1fs  fingerprint=%016x\n", r.ID, elapsed[i].Seconds(), r.Fingerprint())
	}
	fmt.Fprintf(os.Stderr, "total %.1fs (%d figures, %d workers, GOMAXPROCS=%d)\n",
		total.Seconds(), len(results), pool.Workers(), runtime.GOMAXPROCS(0))

	if *bench != "" {
		rec := benchRun{
			Timestamp:  cliutil.NowUTC().Format(time.RFC3339),
			Jobs:       pool.Workers(),
			GoMaxProcs: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
			Quick:      *quick,
			Seed:       *seed,
			Telemetry:  obs.Telemetry != nil,
			TotalSec:   round3(total.Seconds()),
		}
		for i, r := range results {
			points := 0
			for _, s := range r.Series {
				points += len(s.Points)
			}
			rec.Figures = append(rec.Figures, benchFigure{
				ID:          r.ID,
				Points:      points,
				Fingerprint: fmt.Sprintf("%016x", r.Fingerprint()),
				Seconds:     round3(elapsed[i].Seconds()),
			})
		}
		if err := appendBench(*bench, rec); err != nil {
			fmt.Fprintln(os.Stderr, "dclueexp: bench:", err)
			exit(1)
		}
	}
	if err := obs.Write(os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "dclueexp:", err)
		exit(1)
	}
	exit(0)
}
