package core

import (
	"testing"

	"dclue/internal/sim"
	"dclue/internal/telemetry"
	"dclue/internal/trace"
)

// attachTrace installs a stride-1 trace collector retaining span segments.
func attachTrace(p *Params) {
	col := trace.NewCollector(1)
	col.KeepEvents(0)
	p.Trace = col
}

// attachTelemetry installs a telemetry collector instrumenting every link,
// queue, CPU, disk and GCS with per-second timelines.
func attachTelemetry(p *Params) {
	p.Telemetry = telemetry.NewCollector(sim.Second)
}

// runObserved runs p bare and again with attach's observers installed, and
// checks the observer layer's central guarantee: the observed run follows
// the exact same trajectory as the bare one. Everything outside the two
// decompositions must hash identically, and the kernel must fire exactly as
// many events: observers schedule none.
func runObserved(t *testing.T, p Params, attach func(*Params)) (observed, bare Metrics) {
	t.Helper()
	bc := mustNew(t, p)
	bare = runOK(t, bc)

	attach(&p)
	oc := mustNew(t, p)
	observed = runOK(t, oc)

	if got, want := observed.FingerprintModel(), bare.Fingerprint(); got != want {
		t.Fatalf("observed run diverged: fingerprint %x, bare %x\nobserved: %vbare: %v",
			got, want, observed, bare)
	}
	if got, want := oc.Sim.EventCount(), bc.Sim.EventCount(); got != want {
		t.Fatalf("observers changed the event count: observed %d, bare %d", got, want)
	}
	return observed, bare
}

// TestTraceNonPerturbing holds a fully traced run to the bare trajectory.
func TestTraceNonPerturbing(t *testing.T) {
	traced, _ := runObserved(t, quickParams(2), attachTrace)
	if traced.Breakdown.Sampled == 0 {
		t.Fatal("traced run recorded no spans")
	}
}

// TestTelemetryNonPerturbing holds a fully instrumented run to the bare
// trajectory.
func TestTelemetryNonPerturbing(t *testing.T) {
	telem, bare := runObserved(t, quickParams(2), attachTelemetry)
	if !telem.UtilDecomp.Enabled {
		t.Fatal("telemetered run reported no decomposition")
	}
	if bare.UtilDecomp.Enabled {
		t.Fatal("bare run reported a decomposition")
	}
}

// TestObserversNonPerturbing attaches both observers to one run, so neither
// can perturb the trajectory through the other.
func TestObserversNonPerturbing(t *testing.T) {
	observed, bare := runObserved(t, quickParams(2), func(p *Params) {
		attachTrace(p)
		attachTelemetry(p)
	})
	if observed.Breakdown.Sampled == 0 {
		t.Fatal("observed run recorded no spans")
	}
	if !observed.UtilDecomp.Enabled {
		t.Fatal("observed run reported no utilization decomposition")
	}
	if bare.Breakdown.Sampled != 0 || bare.UtilDecomp.Enabled {
		t.Fatal("bare run reported an observer decomposition")
	}
}
