package experiments

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"dclue/internal/farm"
	"dclue/internal/runner"
)

// The farm integration tests re-exec this test binary as helper processes
// (workers, and a whole coordinator-driven sweep for the kill-and-resume
// scenario). TestMain dispatches on DCLUE_EXP_FARM_HELPER before the test
// framework takes over.
const farmHelperEnv = "DCLUE_EXP_FARM_HELPER"

func TestMain(m *testing.M) {
	switch mode := os.Getenv(farmHelperEnv); mode {
	case "":
		os.Exit(m.Run())
	case "worker":
		// A production worker, optionally throttled: DCLUE_FARM_SLOWMS
		// delays every stdin read so the parent can reliably SIGKILL the
		// coordinator while points are still in flight.
		var in io.Reader = os.Stdin
		if ms, _ := strconv.Atoi(os.Getenv("DCLUE_FARM_SLOWMS")); ms > 0 {
			in = &slowReader{r: os.Stdin, delay: time.Duration(ms) * time.Millisecond}
		}
		if err := farm.Serve(in, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "farm helper worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	case "sweep":
		os.Exit(helperSweep())
	default:
		fmt.Fprintf(os.Stderr, "unknown helper mode %q\n", mode)
		os.Exit(2)
	}
}

type slowReader struct {
	r     io.Reader
	delay time.Duration
}

func (s *slowReader) Read(p []byte) (int, error) {
	time.Sleep(s.delay)
	return s.r.Read(p)
}

// helperSweep runs one figure end to end under a farm coordinator — the
// exact wiring cmd/dclueexp -farm uses — and writes the rendered table to
// DCLUE_FARM_OUT. The parent kills this process mid-sweep and runs it again
// to prove resume.
func helperSweep() int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "farm helper sweep:", err)
		return 1
	}
	figID := os.Getenv("DCLUE_FARM_FIG")
	fig, ok := Lookup(figID)
	if !ok {
		return fail(fmt.Errorf("unknown figure %q", figID))
	}
	coord, err := farm.New(farm.Config{
		Workers: 2,
		Argv:    []string{os.Args[0]},
		ExtraEnv: []string{
			farmHelperEnv + "=worker",
			"DCLUE_FARM_SLOWMS=" + os.Getenv("DCLUE_FARM_SLOWMS"),
		},
		ResultsDir: os.Getenv("DCLUE_FARM_RESULTS"),
		CacheDir:   os.Getenv("DCLUE_FARM_CACHE"),
	})
	if err != nil {
		return fail(err)
	}
	defer coord.Close()
	r := fig.Run(Options{Quick: true, Seed: 1, tinyRuns: true, Pool: runner.New(2), Exec: coord.Exec})
	if err := os.WriteFile(os.Getenv("DCLUE_FARM_OUT"), []byte(r.Table()), 0o644); err != nil {
		return fail(err)
	}
	return 0
}

// farmWorkerConfig wires a coordinator to helper-process workers.
func farmWorkerConfig(t *testing.T, workers int, resultsDir, cacheDir string) farm.Config {
	t.Helper()
	return farm.Config{
		Workers:    workers,
		Argv:       []string{os.Args[0]},
		ExtraEnv:   []string{farmHelperEnv + "=worker"},
		ResultsDir: resultsDir,
		CacheDir:   cacheDir,
		Stderr:     io.Discard,
	}
}

// TestFarmEveryFigureByteIdentical is the farm's headline contract, pinned
// for every registered experiment: the rendered table is byte-identical to
// the in-process run at worker counts 1, 2 and 4 — from a cold cache, from
// a warm cache (fresh sweep, every point a cache hit), and from a resumed
// results directory (every point a checkpoint hit).
func TestFarmEveryFigureByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps every registered experiment through worker subprocesses")
	}
	root := t.TempDir()
	cacheDir := filepath.Join(root, "cache")
	for _, f := range All() {
		f := f
		t.Run(f.ID, func(t *testing.T) {
			ref := f.Run(Options{Quick: true, Seed: 1, tinyRuns: true})

			runWidth := func(w int, resultsDir string) farm.Stats {
				t.Helper()
				coord, err := farm.New(farmWorkerConfig(t, w, resultsDir, cacheDir))
				if err != nil {
					t.Fatal(err)
				}
				defer coord.Close()
				r := f.Run(Options{Quick: true, Seed: 1, tinyRuns: true, Pool: runner.New(w), Exec: coord.Exec})
				if r.Table() != ref.Table() {
					t.Fatalf("farm table (width %d) diverges from in-process run.\n-- in-process --\n%s-- farm --\n%s",
						w, ref.Table(), r.Table())
				}
				return coord.Stats()
			}

			coldDir := filepath.Join(root, f.ID+"-cold")
			cold := runWidth(1, coldDir)
			// Two kinds of reuse are legitimate even on a "cold" figure: the
			// cache is shared across the registry and some experiments share
			// points (an ablation's baseline is the base figure's point), and
			// a figure may sweep the same point twice (overlapping series),
			// whose second occurrence hits the checkpoint written moments
			// earlier. So the cold invariant is pure accounting: every point
			// is served exactly once, with no failures.
			if cold.Points == 0 || cold.Failures != 0 ||
				cold.Execs+cold.CacheHits+cold.CheckpointHits != cold.Points {
				t.Fatalf("cold run accounting off: %+v", cold)
			}

			warmDir := filepath.Join(root, f.ID+"-warm")
			warm := runWidth(2, warmDir)
			if warm.Execs != 0 || warm.CacheHits+warm.CheckpointHits != warm.Points || warm.Points != cold.Points {
				t.Fatalf("warm run not served purely from reuse (cold %+v, warm %+v)", cold, warm)
			}

			resumed := runWidth(4, warmDir) // same results dir: checkpoints
			if resumed.Execs != 0 || resumed.CacheHits != 0 || resumed.CheckpointHits != cold.Points {
				t.Fatalf("resumed run not served purely from checkpoints: %+v", resumed)
			}
		})
	}
}

// TestFarmKillAndResume is the crash-recovery integration test: a
// coordinator-driven sweep (in a subprocess, with throttled workers) is
// SIGKILLed mid-sweep — workers orphaned, log torn wherever it happened to
// be — then rerun against the same results directory. The resumed sweep's
// table must be byte-identical to an uninterrupted in-process run, and the
// combined checkpoint log must show every point executed at most once.
func TestFarmKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns coordinator and worker subprocesses")
	}
	const figID = "fig02"
	f, ok := Lookup(figID)
	if !ok {
		t.Fatalf("figure %s not registered", figID)
	}
	ref := f.Run(Options{Quick: true, Seed: 1, tinyRuns: true})

	root := t.TempDir()
	resultsDir := filepath.Join(root, "results")
	outPath := filepath.Join(root, "table.txt")
	sweepEnv := func(slowMS int) []string {
		return append(os.Environ(),
			farmHelperEnv+"=sweep",
			"DCLUE_FARM_FIG="+figID,
			"DCLUE_FARM_RESULTS="+resultsDir,
			"DCLUE_FARM_CACHE=", // no cache: resume must come from checkpoints
			"DCLUE_FARM_OUT="+outPath,
			"DCLUE_FARM_SLOWMS="+strconv.Itoa(slowMS),
		)
	}

	// First run: throttled workers, killed as soon as the first checkpoint
	// lands (mid-sweep: later points are still queued or in flight).
	first := exec.Command(os.Args[0])
	first.Env = sweepEnv(200)
	first.Stderr = io.Discard
	if err := first.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if n, _ := filepath.Glob(filepath.Join(resultsDir, "*.json")); len(n) > 0 {
			break
		}
		if time.Now().After(deadline) {
			first.Process.Kill()
			first.Wait()
			t.Fatal("no checkpoint appeared within 30s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := first.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	first.Wait()
	if _, err := os.Stat(outPath); err == nil {
		// The sweep finished before the kill landed; the scenario degrades
		// to plain resume, which the byte-identity test already covers —
		// but the double-execution audit below still applies.
		t.Log("sweep completed before SIGKILL; resume will be pure checkpoint replay")
	}

	// Second run: same results directory, full speed, runs to completion.
	second := exec.Command(os.Args[0])
	second.Env = sweepEnv(0)
	second.Stderr = io.Discard
	if out, err := second.Output(); err != nil {
		t.Fatalf("resumed sweep failed: %v (%s)", err, out)
	}
	table, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(table) != ref.Table() {
		t.Fatalf("resumed table diverges from uninterrupted in-process run.\n-- in-process --\n%s-- resumed --\n%s",
			ref.Table(), table)
	}

	// The combined log (first segment + resumed segment, same file) is the
	// no-double-execution proof: every point's exec-done appears at most
	// once, and the resumed run re-served at least one checkpoint.
	evs, err := farm.ReadLog(filepath.Join(resultsDir, "log.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	done := map[string]int{}
	checkpointHits := 0
	for _, e := range evs {
		switch e.Event {
		case "exec-done":
			done[e.Key]++
		case "checkpoint-hit":
			checkpointHits++
		}
	}
	if len(done) == 0 {
		t.Fatal("log records no executed points")
	}
	var dup []string
	for k, n := range done {
		if n > 1 {
			dup = append(dup, fmt.Sprintf("%.12s x%d", k, n))
		}
	}
	sort.Strings(dup)
	if len(dup) > 0 {
		t.Fatalf("points executed more than once across kill+resume: %s", strings.Join(dup, ", "))
	}
	if checkpointHits == 0 {
		t.Fatal("resumed sweep served no checkpoints (kill landed after completion AND before any reuse?)")
	}
}
