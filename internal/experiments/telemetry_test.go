package experiments

import (
	"strings"
	"testing"

	"dclue/internal/runner"
	"dclue/internal/telemetry"
)

// TestUtilDecompFigure regenerates the decomposition table and checks the
// accounting it advertises: zero attribution mismatches in the notes, six
// series, and class shares summing to ~100% of server-link busy time.
func TestUtilDecompFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	r := bareRun(t, "util-decomp", 1, true)
	if !strings.Contains(r.Notes, "mismatches=0") {
		t.Fatalf("attribution mismatches in notes: %q", r.Notes)
	}
	if len(r.Series) != 6 {
		t.Fatalf("got %d series, want 6 (util + five class shares)", len(r.Series))
	}
	// Series 1..5 are the class shares; at every x they must sum to 100%.
	for i, pt := range r.Series[1].Points {
		sum := 0.0
		for _, s := range r.Series[1:] {
			sum += s.Points[i].Y
		}
		if sum < 99.999 || sum > 100.001 {
			t.Errorf("class shares at nodes=%g sum to %.4f%%, want 100%%", pt.X, sum)
		}
	}
}

// TestUtilDecompShapeAcrossSeeds pins the qualitative claim the util-decomp
// figure reproduces: the benchmark's sizing rule grows the database with the
// cluster, buffer hit rates fall, and so the iSCSI share of the shared
// server links grows monotonically with DP node count — the paper's
// fabric-saturation argument. Checked across seeds so the claim, not one
// fixture, is enforced.
func TestUtilDecompShapeAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	for _, seed := range []uint64{1, 2, 3} {
		o := Options{Quick: true, Seed: seed, tinyRuns: true, Pool: runner.New(4)}
		sizes := []int{2, 4, 8}
		shares := make([]float64, len(sizes))
		o.forEach(len(sizes), func(i int) {
			n := sizes[i]
			q := o.baseParams(n)
			q.Affinity = 0.8
			q.Telemetry = telemetry.NewCollector(0)
			u := o.fixedLoad(q, 6*n).UtilDecomp
			shares[i] = 100 * u.NodeLinks.ISCSI / u.NodeLinksBusySec
		})
		for i := 1; i < len(shares); i++ {
			if shares[i] <= shares[i-1] {
				t.Errorf("seed %d: iSCSI share not growing with nodes: %.3f%%@%d >= %.3f%%@%d",
					seed, shares[i-1], sizes[i-1], shares[i], sizes[i])
			}
		}
	}
}
