package experiments

import (
	"testing"

	"dclue/internal/stats"
)

// Shape invariants: the paper's §3 qualitative claims about Figs 2-3 must
// survive any refactor, across seeds — even when the golden fixtures are
// legitimately regenerated. Fig 2/3 plot IPC messages per transaction vs
// cluster size; the claims under test are (a) control messages grow
// monotonically with cluster size, (b) the growth saturates (later
// increments no larger than the first), and (c) removing affinity (Fig 3)
// multiplies the message level by roughly 5x.
func TestIPCShapeInvariantsAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	for _, seed := range []uint64{1, 2, 3} {
		ctl := map[string][]stats.Point{
			"fig02": bareRun(t, "fig02", seed, false).Series[0].Points,
			"fig03": bareRun(t, "fig03", seed, false).Series[0].Points,
		}
		for name, pts := range ctl {
			if len(pts) < 3 {
				t.Fatalf("seed %d %s: sweep too small: %d points", seed, name, len(pts))
			}
			// (a) monotone non-decreasing in cluster size.
			for i := 1; i < len(pts); i++ {
				if pts[i].Y < pts[i-1].Y {
					t.Errorf("seed %d %s: ctl msgs/txn not monotone: %.2f@%g > %.2f@%g",
						seed, name, pts[i-1].Y, pts[i-1].X, pts[i].Y, pts[i].X)
				}
			}
			// (b) saturating: the last increment must not exceed the first
			// (sharp rise, then flattening — §3.2).
			first := pts[1].Y - pts[0].Y
			last := pts[len(pts)-1].Y - pts[len(pts)-2].Y
			if last > first {
				t.Errorf("seed %d %s: not saturating: first increment %.2f, last %.2f",
					seed, name, first, last)
			}
		}
		// (c) zero affinity multiplies the control-message level ~5x (§3.2);
		// accept a generous band so the claim, not the noise, is enforced.
		c2, c3 := ctl["fig02"], ctl["fig03"]
		l2 := c2[len(c2)-1].Y
		l3 := c3[len(c3)-1].Y
		if l2 <= 0 {
			t.Fatalf("seed %d: fig02 level not positive: %v", seed, l2)
		}
		if ratio := l3 / l2; ratio < 3 || ratio > 8 {
			t.Errorf("seed %d: fig03/fig02 ctl-msg ratio %.2f outside [3, 8] (paper: ~5x)", seed, ratio)
		}
	}
}
