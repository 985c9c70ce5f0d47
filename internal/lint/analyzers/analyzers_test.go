package analyzers_test

import (
	"testing"

	"dclue/internal/lint/analyzers"
	"dclue/internal/lint/linttest"
)

// Each fixture seeds violations (matched by // want comments) and at least
// one //lint:allow-suppressed occurrence (matched by the absence of a want:
// if suppression broke, the unexpected diagnostic fails the harness).

func TestSimtime(t *testing.T) {
	linttest.Run(t, analyzers.Simtime, linttest.Dir("simtime"))
}

func TestSimrand(t *testing.T) {
	linttest.Run(t, analyzers.Simrand, linttest.Dir("simrand"))
}

func TestMaporder(t *testing.T) {
	linttest.Run(t, analyzers.Maporder, linttest.Dir("maporder"))
}

func TestGoroutine(t *testing.T) {
	linttest.Run(t, analyzers.Goroutine, linttest.Dir("goroutine"))
}

// TestGoroutineContinuationOnly exercises the continuation-only rule: the
// fixture package stands in for a hot-path package rebuilt as callback state
// machines, where goroutine-backed sim primitives are forbidden.
func TestGoroutineContinuationOnly(t *testing.T) {
	linttest.Run(t, analyzers.Goroutine, linttest.Dir("continuation"))
}

// TestFloatsum runs maporder over the float-accumulation fixture: float
// sums in map order are one of maporder's order-sensitive effects.
func TestFloatsum(t *testing.T) {
	linttest.Run(t, analyzers.Maporder, linttest.Dir("floatsum"))
}

func TestPoolown(t *testing.T) {
	linttest.Run(t, analyzers.Poolown, linttest.Dir("poolown"))
}

// TestPolicyExemptions pins the sanctioned-package lists: a rename that
// silently widened or narrowed an exemption would otherwise only surface
// as a confusing self-host failure.
func TestPolicyExemptions(t *testing.T) {
	cases := []struct {
		analyzer string
		pkg      string
		exempt   bool
	}{
		{"simtime", "dclue/cmd/dclueexp", true},
		{"simtime", "dclue/cmd/dcluesim", true},
		{"simtime", "dclue/internal/cliutil", true},
		{"simtime", "dclue/internal/core", false},
		{"simtime", "dclue/internal/sim", false},
		{"simrand", "dclue/internal/rng", true},
		{"simrand", "dclue/internal/tpcc", false},
		{"goroutine", "dclue/internal/sim", false},
		{"goroutine", "dclue/internal/runner", true},
		{"goroutine", "dclue/internal/cliutil", false},
		{"goroutine", "dclue/internal/trace", false},
		{"goroutine", "dclue/cmd/dclueexp", false},
	}
	for _, c := range cases {
		got := analyzers.ExemptForTest(c.analyzer, c.pkg)
		if got != c.exempt {
			t.Errorf("%s on %s: exempt=%v, want %v", c.analyzer, c.pkg, got, c.exempt)
		}
	}
	contCases := []struct {
		pkg  string
		cont bool
	}{
		{"dclue/internal/netsim", true},
		{"continuation", true},             // the lint fixture stands in for a hot path
		{"dclue/internal/tcp", false},      // still hosts Dial/Waiter for low-rate callers
		{"dclue/internal/platform", false}, // app threads remain goroutine-backed Procs
		{"dclue/internal/core", false},
	}
	for _, c := range contCases {
		if got := analyzers.ContinuationOnlyForTest(c.pkg); got != c.cont {
			t.Errorf("continuationOnly(%s)=%v, want %v", c.pkg, got, c.cont)
		}
	}
}
