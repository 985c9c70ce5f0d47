package core

import (
	"math"
	"strings"
	"testing"

	"dclue/internal/trace"
)

// TestTracePhaseSum checks the decomposition's accounting identity: the six
// phase means sum to the span total exactly, and — at sampling stride 1,
// where the sampled population is every measured transaction — the span
// total matches the independently tallied mean response time.
func TestTracePhaseSum(t *testing.T) {
	p := quickParams(2)
	p.Trace = trace.NewCollector(1)
	m := mustRun(t, p)

	b := m.Breakdown
	if b.Sampled == 0 {
		t.Fatal("no spans recorded")
	}
	if diff := math.Abs(b.Sum() - b.TotalMs); diff > 1e-6*b.TotalMs+1e-9 {
		t.Fatalf("phases sum to %.6fms, span total %.6fms", b.Sum(), b.TotalMs)
	}
	if diff := math.Abs(b.TotalMs - m.RespTimeMs); diff > 0.05*m.RespTimeMs {
		t.Fatalf("span total %.3fms vs response time %.3fms: off by more than 5%%",
			b.TotalMs, m.RespTimeMs)
	}
	// A healthy warm run does real work in every major phase.
	if b.CPUMs <= 0 || b.FabricMs <= 0 {
		t.Fatalf("degenerate breakdown: %+v", b)
	}
}

// TestTraceSampling checks that a stride-n collector records roughly 1/n of
// the transactions a stride-1 collector does, and that percentiles (which do
// not depend on tracing) are unaffected.
func TestTraceSampling(t *testing.T) {
	p := quickParams(1)
	p.Trace = trace.NewCollector(1)
	full := mustRun(t, p)

	p.Trace = trace.NewCollector(8)
	sampled := mustRun(t, p)

	if full.Breakdown.Sampled == 0 || sampled.Breakdown.Sampled == 0 {
		t.Fatalf("no spans: full=%d sampled=%d", full.Breakdown.Sampled, sampled.Breakdown.Sampled)
	}
	ratio := float64(full.Breakdown.Sampled) / float64(sampled.Breakdown.Sampled)
	if ratio < 6 || ratio > 10 {
		t.Fatalf("stride-8 sampling kept %d of %d spans (ratio %.1f, want ~8)",
			sampled.Breakdown.Sampled, full.Breakdown.Sampled, ratio)
	}
	if full.FingerprintModel() != sampled.FingerprintModel() {
		t.Fatal("sampling stride changed the simulated trajectory")
	}
	if full.RespTimeP95Ms != sampled.RespTimeP95Ms {
		t.Fatal("always-on percentiles differ between sampling strides")
	}
}

// TestTraceGaugesAndEvents checks that an event-retaining run registers one
// labelled run and exports its span segments. Queue occupancy is
// telemetry's view (QueueTel); the trace layer records no gauges.
func TestTraceGaugesAndEvents(t *testing.T) {
	p := quickParams(2)
	col := trace.NewCollector(4)
	col.KeepEvents(0)
	p.Trace = col
	mustRun(t, p)

	runs := col.Runs()
	if len(runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(runs))
	}
	r := runs[0]
	if r.Sampled() == 0 {
		t.Fatal("no spans sampled")
	}
	if r.Label() == "" {
		t.Fatal("run has no label")
	}
	var out strings.Builder
	if err := col.WriteJSONL(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"type":"seg"`) {
		t.Fatal("export holds no span segments")
	}
}
