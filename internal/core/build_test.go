package core

import (
	"runtime"
	"testing"

	"dclue/internal/sim"
)

// TestBuildAllocs gates the database build on work that does not depend on
// the host: the heap allocations of one New at perfbench's oltp-local
// configuration (4 nodes, 32 warehouses, seed 1), which loads about 0.5 M
// index entries. The ceilings sit just above the measured counts (58,145
// mallocs and 15.72 MB per build; 58,205 and 15.73 MB under -race), so a
// change that makes the build regrow buffers per row or per leaf, copy the
// order-line arrays as they grow, or give each directory entry a heap
// object again, fails here on any host.
func TestBuildAllocs(t *testing.T) {
	const (
		maxMallocs = 58_500
		maxBytes   = 15_900_000
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
