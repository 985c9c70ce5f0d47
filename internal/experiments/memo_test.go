package experiments

import (
	"sync"
	"testing"

	"dclue/internal/runner"
)

// bareKey names one unobserved figure run: the experiment, the seed, and
// the sizing (tiny test sizing or Quick).
type bareKey struct {
	id   string
	seed uint64
	tiny bool
}

// bareRuns memoizes the bare figure runs the package's tests compare
// against (bareKey → func() Result), so tests that need the same reference
// share one simulation. Each key runs once, in whichever test asks first;
// concurrent askers (t.Parallel subtests) wait for that run.
var bareRuns sync.Map

// bareRun returns the bare run of experiment id at seed. Tiny sizing runs
// sequentially, the reference the determinism and observer tests hold
// parallel and observed runs to; Quick sizing runs on the 4-worker pool the
// golden fixtures were made with. The runner's ordered merge makes the
// tables identical either way.
func bareRun(t *testing.T, id string, seed uint64, tiny bool) Result {
	t.Helper()
	f, ok := Lookup(id)
	if !ok {
		t.Fatalf("figure %q not registered", id)
	}
	o := Options{Quick: true, Seed: seed, tinyRuns: tiny}
	if !tiny {
		o.Pool = runner.New(4)
	}
	run, _ := bareRuns.LoadOrStore(bareKey{f.ID, seed, tiny}, sync.OnceValue(func() Result { return f.Run(o) }))
	return run.(func() Result)()
}
