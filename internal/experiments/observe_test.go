package experiments

import (
	"testing"

	"dclue/internal/runner"
	"dclue/internal/sim"
	"dclue/internal/telemetry"
	"dclue/internal/trace"
)

// observerSet selects the observers a non-perturbation sweep attaches.
type observerSet struct{ trace, telemetry bool }

// checkFiguresNonPerturbing attaches the observers in obs — a stride-1 trace
// collector retaining span segments, a telemetry collector recording
// per-second timelines — to every golden figure, and checks each rendered
// table is byte-identical to the bare sweep, sequentially and on a 4-worker
// pool (which also covers concurrent run registration). It is the
// whole-stack version of the core fingerprint tests, across the exact suite
// the golden fixtures lock.
func checkFiguresNonPerturbing(t *testing.T, obs observerSet) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	for _, id := range goldenFigures {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			f, ok := findFigure(id)
			if !ok {
				t.Fatalf("figure %q not registered", id)
			}
			base := Options{Quick: true, Seed: 1, tinyRuns: true}
			plain := f.Run(base)
			for _, workers := range []int{1, 4} {
				o := base
				o.Pool = runner.New(workers)
				var col *trace.Collector
				if obs.trace {
					col = trace.NewCollector(1)
					col.KeepEvents(0)
					o.Trace = col
				}
				if obs.telemetry {
					o.Telemetry = telemetry.NewCollector(sim.Second)
				}
				got := f.Run(o)
				if got.Table() != plain.Table() {
					t.Errorf("observers changed the table at -j%d.\n-- bare --\n%s-- observed --\n%s",
						workers, plain.Table(), got.Table())
				}
				if got.Fingerprint() != plain.Fingerprint() {
					t.Errorf("fingerprint mismatch at -j%d: bare %x, observed %x",
						workers, plain.Fingerprint(), got.Fingerprint())
				}
				if col == nil {
					continue
				}
				var sampled uint64
				for _, r := range col.Runs() {
					sampled += r.Sampled()
				}
				if sampled == 0 {
					t.Errorf("no spans recorded across the -j%d sweep", workers)
				}
			}
		})
	}
}

// TestTraceDoesNotPerturbFigures sweeps the golden suite traced.
func TestTraceDoesNotPerturbFigures(t *testing.T) {
	checkFiguresNonPerturbing(t, observerSet{trace: true})
}

// TestTelemetryNonPerturbing sweeps the golden suite telemetered.
func TestTelemetryNonPerturbing(t *testing.T) {
	checkFiguresNonPerturbing(t, observerSet{telemetry: true})
}

// TestObserversNonPerturbing sweeps the golden suite with both observers
// attached to every run.
func TestObserversNonPerturbing(t *testing.T) {
	checkFiguresNonPerturbing(t, observerSet{trace: true, telemetry: true})
}
