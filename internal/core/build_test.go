package core

import (
	"runtime"
	"testing"

	"dclue/internal/sim"
)

// TestBuildAllocs gates the database build on work that does not depend on
// the host: the heap allocations of one New at perfbench's oltp-local
// configuration (4 nodes, 32 warehouses, seed 1), which loads about 0.5 M
// index entries. The ceilings sit just above the measured counts (76,651
// mallocs and 16.80 MB per build; 76,703 and 16.81 MB under -race), so a
// change that makes the build regrow buffers per row or per leaf, or copy
// the order-line arrays as they grow, fails here on any host.
func TestBuildAllocs(t *testing.T) {
	const (
		maxMallocs = 77_000
		maxBytes   = 17_000_000
	)
	p := DefaultParams(4)
	p.Affinity, p.Warehouses = 1.0, 32
	p.Warmup, p.Measure = 50*sim.Second, 150*sim.Second
	p.Seed = 1

	var bytes uint64
	mallocs := testing.AllocsPerRun(3, func() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		mustNew(t, p)
		runtime.ReadMemStats(&after)
		bytes = after.TotalAlloc - before.TotalAlloc
	})
	if mallocs > maxMallocs {
		t.Errorf("%.0f mallocs per build, ceiling %d", mallocs, maxMallocs)
	}
	if bytes > maxBytes {
		t.Errorf("%d bytes allocated per build, ceiling %d", bytes, maxBytes)
	}
	t.Logf("%.0f mallocs, %d bytes per build", mallocs, bytes)
}
