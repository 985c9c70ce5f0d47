package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// TestLatDecompPhaseSum regenerates the decomposition table and checks the
// accounting the figure advertises: in every case the phase columns sum to
// within 5% of the independently measured mean response time (the figure
// records the worst deviation in its notes).
func TestLatDecompPhaseSum(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	r := bareRun(t, "lat-decomp", 1, true)
	i := strings.LastIndex(r.Notes, "= ")
	if i < 0 {
		t.Fatalf("no deviation note: %q", r.Notes)
	}
	dev, err := strconv.ParseFloat(strings.TrimSpace(r.Notes[i+2:]), 64)
	if err != nil {
		t.Fatalf("unparsable deviation in notes %q: %v", r.Notes, err)
	}
	if dev > 0.05 {
		t.Fatalf("phase sums deviate from response time by %.2f%% (limit 5%%)\n%s",
			dev*100, r.Table())
	}
	if len(r.Series) != 6 {
		t.Fatalf("got %d series, want 6 (resp + five phases)", len(r.Series))
	}
}
