package runner

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dclue/internal/core"
	"dclue/internal/sim"
)

// tinyParams is a cluster configuration small enough that a full run takes
// well under a second, so pool behaviour can be tested on real simulations.
func tinyParams(nodes int) core.Params {
	p := core.DefaultParams(nodes)
	p.Warehouses = 4 * nodes
	p.CustomersPerDist = 30
	p.Items = 200
	p.Warmup = 20 * sim.Second
	p.Measure = 40 * sim.Second
	return p
}

func TestMapCoversEveryIndexExactlyOnce(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{0, 4}, {1, 4}, {3, 4}, {7, 2}, {16, 4}, {100, 8}, {5, 1},
	} {
		counts := make([]int32, tc.n)
		New(tc.workers).Map(tc.n, func(i int) {
			atomic.AddInt32(&counts[i], 1)
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("n=%d workers=%d: index %d ran %d times", tc.n, tc.workers, i, c)
			}
		}
	}
}

func TestMapNilAndSingleWorkerRunInOrder(t *testing.T) {
	for _, p := range []*Pool{nil, New(1)} {
		var order []int
		p.Map(6, func(i int) { order = append(order, i) })
		for i, got := range order {
			if got != i {
				t.Fatalf("pool %v: sequential order broken: %v", p.Workers(), order)
			}
		}
		if len(order) != 6 {
			t.Fatalf("ran %d of 6 jobs", len(order))
		}
	}
}

// TestMapStealsSkewedWork gives worker 0's initial range all the slow jobs;
// with stealing, the other workers must end up running some of them.
func TestMapStealsSkewedWork(t *testing.T) {
	if New(0).Workers() < 2 {
		t.Skip("single-CPU host: stealing needs a second runnable worker")
	}
	const n = 16
	var slowRunners sync.Map
	New(4).Map(n, func(i int) {
		if i < n/4 { // worker 0's initial quarter
			time.Sleep(20 * time.Millisecond)
		}
		slowRunners.Store(i, struct{}{})
	})
	count := 0
	slowRunners.Range(func(_, _ any) bool { count++; return true })
	if count != n {
		t.Fatalf("covered %d of %d jobs", count, n)
	}
}

func TestTryGoBoundsConcurrency(t *testing.T) {
	p := New(3) // 2 helper slots
	block := make(chan struct{})
	var started sync.WaitGroup
	for i := 0; i < 2; i++ {
		started.Add(1)
		if !p.TryGo(func() { started.Done(); <-block }) {
			t.Fatalf("slot %d refused with capacity free", i)
		}
	}
	started.Wait()
	if p.TryGo(func() {}) {
		t.Fatal("TryGo accepted work beyond pool width")
	}
	close(block)
	if (*Pool)(nil).TryGo(func() {}) {
		t.Fatal("nil pool accepted speculative work")
	}
}

// TestCapacityMatchesSequential is the speculative search's contract: same
// warehouses, same feasibility, same metrics fingerprint as the plain
// bisection, whatever the pool width.
func TestCapacityMatchesSequential(t *testing.T) {
	p := tinyParams(2)
	p.Warehouses = 0
	want := core.MeasureCapacity(p, 4)
	for _, workers := range []int{1, 2, 4, 8} {
		got := Capacity(New(workers), nil, p, 4)
		if got.Warehouses != want.Warehouses || got.Feasible != want.Feasible {
			t.Fatalf("workers=%d: capacity (%d, %v), want (%d, %v)",
				workers, got.Warehouses, got.Feasible, want.Warehouses, want.Feasible)
		}
		if got.Metrics.Fingerprint() != want.Metrics.Fingerprint() {
			t.Fatalf("workers=%d: metrics fingerprint diverged from sequential", workers)
		}
	}
}
