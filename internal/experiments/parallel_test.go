package experiments

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dclue/internal/core"
	"dclue/internal/runner"
)

// TestParallelDeterminismEveryFigure is the sweep engine's core contract:
// for every registered experiment, a parallel run renders a table (and
// therefore a fingerprint) byte-identical to the sequential run. The
// parallel run goes through a counting Options.Exec, so an experiment
// whose points bypass the executor seam fails too. Runs use the tiny test
// sizing so the whole registry stays affordable; the golden tests cover
// real Quick-mode output.
func TestParallelDeterminismEveryFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps every registered experiment twice")
	}
	for _, f := range All() {
		f := f
		t.Run(f.ID, func(t *testing.T) {
			var execs atomic.Int64
			exec := func(p core.Params) (core.Metrics, error) {
				execs.Add(1)
				return core.Run(p)
			}
			seq := bareRun(t, f.ID, 1, true)
			par := f.Run(Options{Quick: true, Seed: 1, tinyRuns: true, Pool: runner.New(4), Exec: exec})
			if execs.Load() == 0 {
				t.Error("no simulation point went through Options.Exec")
			}
			if seq.Table() != par.Table() {
				t.Errorf("parallel table diverges from sequential.\n-- sequential --\n%s-- parallel --\n%s",
					seq.Table(), par.Table())
			}
			if seq.Fingerprint() != par.Fingerprint() {
				t.Errorf("fingerprint mismatch: seq %x, par %x", seq.Fingerprint(), par.Fingerprint())
			}
		})
	}
}

// lineRecorder records every Write it receives, so tests can assert that
// concurrent progress logging reaches the sink in whole lines.
type lineRecorder struct {
	mu     sync.Mutex
	writes []string
}

func (r *lineRecorder) Write(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.writes = append(r.writes, string(p))
	return len(p), nil
}

// TestParallelLogWholeLines runs a parallel figure against a recording sink
// and asserts no progress line was ever split or merged mid-line: every
// Write is exactly one newline-terminated line.
func TestParallelLogWholeLines(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	rec := &lineRecorder{}
	o := Options{Quick: true, Seed: 1, tinyRuns: true, Pool: runner.New(4), Log: rec}
	Fig2(o)
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.writes) == 0 {
		t.Fatal("no progress lines recorded")
	}
	for _, w := range rec.writes {
		if !strings.HasSuffix(w, "\n") || strings.Count(w, "\n") != 1 {
			t.Errorf("interleaved or partial log write: %q", w)
		}
		if !strings.HasPrefix(w, "fig02 ") {
			t.Errorf("unexpected log line: %q", w)
		}
	}
}
