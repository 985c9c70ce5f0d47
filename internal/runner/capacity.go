package runner

import (
	"sync"

	"dclue/internal/core"
)

// future is one in-flight or finished capacity probe.
type future struct {
	done chan struct{}
	m    core.Metrics
	err  error
}

// Exec evaluates one simulation point. It must behave as a pure,
// deterministic function of its Params: callers (the capacity search, the
// sweep merge step, the golden-figure regressions) assume two Exec calls
// with equal Params return identical Metrics. core.Run is the executor;
// perfbench's sweep-observed workload wraps it to time every point, which
// this contract keeps invisible to the sweep.
type Exec func(core.Params) (core.Metrics, error)

// Capacity runs core's capacity bisection with speculative parallel
// probing: while the search evaluates one midpoint, free pool slots warm
// the two candidate midpoints the next iteration may need, halving the
// critical path of the search when workers are available. Probes are
// memoized by warehouse count and each probe is a pure deterministic run
// through exec (nil means in-process core.Run), so the bisection visits the
// same path and returns a result byte-identical to core.MeasureCapacity
// whichever executor evaluates the probes — speculation only ever wastes
// work, never changes the answer.
func Capacity(pool *Pool, exec Exec, p core.Params, maxPerNode int) core.CapacityResult {
	if exec == nil {
		exec = core.Run
	}
	if pool.Workers() <= 1 {
		return core.SearchCapacity(p, maxPerNode, exec, nil)
	}

	var mu sync.Mutex
	memo := map[int]*future{} // keyed by Warehouses, the only varying field

	compute := func(f *future, q core.Params) {
		f.m, f.err = exec(q)
		close(f.done)
	}
	probe := func(q core.Params) (core.Metrics, error) {
		mu.Lock()
		f, started := memo[q.Warehouses]
		if !started {
			f = &future{done: make(chan struct{})}
			memo[q.Warehouses] = f
		}
		mu.Unlock()
		if started {
			<-f.done
		} else {
			compute(f, q)
		}
		return f.m, f.err
	}
	speculate := func(qs ...core.Params) {
		for _, q := range qs {
			q := q
			mu.Lock()
			if _, ok := memo[q.Warehouses]; ok {
				mu.Unlock()
				continue
			}
			f := &future{done: make(chan struct{})}
			memo[q.Warehouses] = f
			mu.Unlock()
			if !pool.TryGo(func() { compute(f, q) }) {
				// No free slot: unregister so a later demand computes inline.
				// Safe from the lost-waiter race because probe and speculate
				// are only ever called from the single search goroutine, and
				// nothing else reads the memo.
				mu.Lock()
				delete(memo, q.Warehouses)
				mu.Unlock()
			}
		}
	}
	return core.SearchCapacity(p, maxPerNode, probe, speculate)
}
