package trace_test

import (
	"testing"

	"dclue/internal/core"
	"dclue/internal/sim"
	"dclue/internal/trace"
)

// TestWritersMatchReferenceSimulated compares WriteChrome and WriteJSONL
// with the fmt-based reference writers on every span record of a short
// traced 2-node simulation.
func TestWritersMatchReferenceSimulated(t *testing.T) {
	col := trace.NewCollector(1)
	col.KeepEvents(0)
	p := core.DefaultParams(2)
	p.Warehouses, p.CustomersPerDist, p.Items = 4, 30, 200
	p.Warmup, p.Measure = 10*sim.Second, 30*sim.Second
	p.Trace = col
	if _, err := core.Run(p); err != nil {
		t.Fatal(err)
	}
	trace.CheckWriters(t, "2-node run", col, 1000)
}
