// Command dclueexp regenerates the paper's figures (Figs 2-16 of Kant &
// Sahoo, ICPP 2005) and prints each as a text table.
//
// Sweeps run on a parallel work-stealing pool (-j workers, default
// GOMAXPROCS); the output is byte-identical to a sequential run (-seq),
// only faster. -bench appends a machine-readable record of the run —
// per-figure points, fingerprints and wall-clock — to BENCH_sweeps.json.
//
// Examples:
//
//	dclueexp -fig 6                  # throughput scaling vs nodes and affinity
//	dclueexp -all -quick -j 4        # every figure, reduced sweeps, 4 workers
//	dclueexp -all -quick -seq        # same output, one worker
//	dclueexp -all -quick -bench BENCH_sweeps.json
//	dclueexp -run lat-decomp -quick  # latency decomposition by phase
//	dclueexp -fig 2 -quick -trace fig2.json   # same table + Chrome trace
//	dclueexp -run util-decomp -quick -telemetry util.jsonl -telemetry-bucket 5
//	dclueexp -all -quick -farm 4     # shard points across 4 worker processes
//	dclueexp -all -quick -farm 4 -status :8080   # live progress at /status
//	dclueexp -list
//
// -farm N runs the sweep as a coordinator that shards simulation points
// across N exec'd copies of this binary (each running in -worker mode,
// speaking line-delimited JSON over stdin/stdout). Every completed point is
// checkpointed atomically under -results-dir, so a killed sweep resumes
// where it left off, and cached under -cache-dir keyed by (params, seed,
// binary hash), so a repeated sweep is served from disk. Tables are
// byte-identical to in-process runs at any worker count.
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
	"dclue/internal/farm"
)

func main() {
	var (
		fig       = flag.String("fig", "", "figure to reproduce (2..16)")
		all       = flag.Bool("all", false, "reproduce every figure")
		ablation  = flag.String("ablation", "", "ablation to run (see -list)")
		ablations = flag.Bool("ablations", false, "run every ablation")
		fault     = flag.String("fault", "", "fault experiment to run (see -list)")
		faultsAll = flag.Bool("faults", false, "run every fault experiment")
		runID     = flag.String("run", "", "experiment to run by id, searched across figures, ablations, fault, trace and telemetry experiments")
		list      = flag.Bool("list", false, "list every experiment: figures, ablations, fault, trace and telemetry experiments")
		quick     = flag.Bool("quick", false, "reduced sweeps and shorter runs")
		chart     = flag.Bool("chart", false, "render ASCII charts instead of tables")
		seed      = flag.Uint64("seed", 1, "random seed")
		jobs      = flag.Int("j", 0, "parallel sweep workers (0 = GOMAXPROCS)")
		seq       = flag.Bool("seq", false, "force fully sequential sweeps (same as -j 1)")
		bench     = flag.String("bench", "", "append a run record (figures, fingerprints, wall-clock) to this JSON file")
		statusA   = flag.String("status", "", "serve a live status endpoint on this address (e.g. :8080): farm progress JSON at /status, Prometheus telemetry snapshot at /metrics")
		cpuprof   = flag.String("cpuprofile", "", "write a pprof CPU profile of the sweep process to this file")
		memprof   = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
		farmN     = flag.Int("farm", 0, "shard point execution across N exec'd worker processes (0 = in-process)")
		workerF   = flag.Bool("worker", false, "farm worker mode: serve jobs over stdin/stdout and exit on EOF (spawned by -farm)")
		resDir    = flag.String("results-dir", ".dcluefarm/results", "with -farm, per-sweep checkpoint directory (reuse it to resume an interrupted sweep)")
		cacheDir  = flag.String("cache-dir", ".dcluefarm/cache", "with -farm, cross-sweep result cache directory (empty disables caching)")
		obs       = cliutil.AddObservers(flag.CommandLine)
	)
	flag.Parse()

	if *workerF {
		// Workers do nothing but serve jobs: no profiles, no figures, no
		// output beyond protocol replies on stdout and diagnostics on
		// stderr. EOF on stdin (coordinator gone) ends the process.
		if err := farm.Serve(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "dclueexp worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}

	stopProf, err := cliutil.StartProfiles(*cpuprof, *memprof)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dclueexp:", err)
		os.Exit(1)
	}
	// exit stops the worker farm and flushes the profiles before leaving
	// (os.Exit skips defers).
	var coord *farm.Coordinator
	exit := func(code int) {
		if coord != nil {
			coord.Close()
		}
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "dclueexp:", err)
			if code == 0 {
				code = 1
			}
		}
		os.Exit(code)
	}

	workers := *jobs
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if *farmN > 0 {
			// The farm moves point execution out of this process, so the
			// natural in-process dispatch width is the worker count: enough
			// in-flight points to keep every worker busy, no more.
			workers = *farmN
		}
	}
	if *seq {
		workers = 1
	}
	var pool *dclue.SweepPool
	if workers > 1 {
		pool = dclue.NewSweepPool(workers)
	}
	opts := dclue.ExperimentOptions{Seed: *seed, Quick: *quick, Log: os.Stderr, Pool: pool}

	if err := obs.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "dclueexp:", err)
		exit(2)
	}
	if *farmN > 0 && (obs.Trace != nil || obs.Telemetry != nil) {
		// The decompositions survive farming (workers re-attach collectors
		// per point and only Breakdown and UtilDecomp travel back), but the
		// span events and registries behind the exports die with each
		// worker process and cannot be stitched back together.
		fmt.Fprintln(os.Stderr, "dclueexp: -trace and -telemetry cannot be combined with -farm")
		exit(2)
	}
	opts.Trace, opts.Telemetry = obs.Trace, obs.Telemetry

	if *farmN > 0 {
		exe, err := os.Executable()
		if err != nil {
			exe = os.Args[0]
		}
		coord, err = farm.New(farm.Config{
			Workers:    *farmN,
			Argv:       []string{exe, "-worker"},
			ResultsDir: *resDir,
			CacheDir:   *cacheDir,
			Stderr:     os.Stderr,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "dclueexp:", err)
			exit(1)
		}
		opts.Exec = coord.Exec
	}

	if *statusA != "" {
		ln, err := net.Listen("tcp", *statusA)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dclueexp: status:", err)
			exit(1)
		}
		fmt.Fprintf(os.Stderr, "status: serving on http://%s (/status, /metrics)\n", ln.Addr())
		//lint:allow goroutine the status endpoint serves HTTP beside the sweep and only reads lock-protected snapshots, never sim state
		go http.Serve(ln, newStatusServer(coord, obs.Telemetry))
	}

	var figs []dclue.Figure
	unknown := func(what, id string) {
		fmt.Fprintf(os.Stderr, "unknown %s %q; try -list\n", what, id)
		exit(2)
	}
	everything := func() []dclue.Figure {
		fs := dclue.Figures()
		fs = append(fs, dclue.AblationList()...)
		fs = append(fs, dclue.FaultList()...)
		fs = append(fs, dclue.TraceList()...)
		fs = append(fs, dclue.TelemetryList()...)
		return fs
	}
	switch {
	case *list:
		for _, f := range everything() {
			fmt.Printf("%-16s %s\n", f.ID, f.Title)
		}
		exit(0)
	case *runID != "":
		figs = pick(everything(), func(f dclue.Figure) bool {
			return f.ID == *runID || f.ID == "flt-"+*runID || f.ID == "abl-"+*runID || f.ID == "lat-"+*runID || f.ID == "util-"+*runID
		})
		if figs == nil {
			unknown("experiment", *runID)
		}
	case *faultsAll:
		figs = dclue.FaultList()
	case *fault != "":
		figs = pick(dclue.FaultList(), func(f dclue.Figure) bool {
			return f.ID == *fault || f.ID == "flt-"+*fault
		})
		if figs == nil {
			unknown("fault experiment", *fault)
		}
	case *ablations:
		figs = dclue.AblationList()
	case *ablation != "":
		figs = pick(dclue.AblationList(), func(f dclue.Figure) bool {
			return f.ID == *ablation || f.ID == "abl-"+*ablation
		})
		if figs == nil {
			unknown("ablation", *ablation)
		}
	case *all:
		figs = dclue.Figures()
	case *fig != "":
		figs = pick(dclue.Figures(), func(f dclue.Figure) bool {
			return f.ID == *fig || f.ID == "fig0"+*fig || f.ID == "fig"+*fig
		})
		if figs == nil {
			unknown("figure", *fig)
		}
	default:
		flag.Usage()
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
		total.Seconds(), len(results), workers, runtime.GOMAXPROCS(0))

	var farmStats *benchFarm
	if coord != nil {
		st := coord.Stats()
		alive := 0
		for _, ws := range coord.Status().Workers {
			if ws.Alive {
				alive++
			}
		}
		fmt.Fprintf(os.Stderr, "farm: workers=%d points=%d checkpoint=%d cache=%d exec=%d requeued=%d restarts=%d failures=%d alive=%d\n",
			*farmN, st.Points, st.CheckpointHits, st.CacheHits, st.Execs, st.Requeues, st.Restarts, st.Failures, alive)
		farmStats = &benchFarm{
			Workers:        *farmN,
			Points:         st.Points,
			CheckpointHits: st.CheckpointHits,
			CacheHits:      st.CacheHits,
			Execs:          st.Execs,
			Requeues:       st.Requeues,
			Restarts:       st.Restarts,
		}
	}

	if *bench != "" {
		rec := benchRun{
			Timestamp:  cliutil.NowUTC().Format(time.RFC3339),
			Jobs:       workers,
			GoMaxProcs: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
			Quick:      *quick,
			Seed:       *seed,
			Telemetry:  obs.Telemetry != nil,
			TotalSec:   round3(total.Seconds()),
			Farm:       farmStats,
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

// pick returns the figures matching ok, or nil if none match.
func pick(figs []dclue.Figure, ok func(dclue.Figure) bool) []dclue.Figure {
	for _, f := range figs {
		if ok(f) {
			return []dclue.Figure{f}
		}
	}
	return nil
}
