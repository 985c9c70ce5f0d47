package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"dclue/internal/sim"
)

func TestTallyBasics(t *testing.T) {
	var ta Tally
	for _, x := range []float64{1, 2, 3, 4} {
		ta.Add(x)
	}
	if ta.N() != 4 {
		t.Fatalf("N = %d", ta.N())
	}
	if ta.Mean() != 2.5 {
		t.Fatalf("Mean = %v", ta.Mean())
	}
	if ta.Min() != 1 || ta.Max() != 4 {
		t.Fatalf("Min/Max = %v/%v", ta.Min(), ta.Max())
	}
	if math.Abs(ta.Var()-1.25) > 1e-12 {
		t.Fatalf("Var = %v, want 1.25", ta.Var())
	}
	if ta.Sum() != 10 {
		t.Fatalf("Sum = %v", ta.Sum())
	}
}

func TestTallyEmpty(t *testing.T) {
	var ta Tally
	if ta.Mean() != 0 || ta.Var() != 0 || ta.Min() != 0 || ta.Max() != 0 {
		t.Fatal("empty tally should report zeros")
	}
}

func TestTallyReset(t *testing.T) {
	var ta Tally
	ta.Add(5)
	ta.Reset()
	if ta.N() != 0 || ta.Mean() != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestTallyVarNonNegativeProperty(t *testing.T) {
	err := quick.Check(func(xs []float64) bool {
		var ta Tally
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			// Keep magnitudes sane to avoid float overflow in x*x.
			ta.Add(math.Mod(x, 1e6))
		}
		return ta.Var() >= 0 && ta.Min() <= ta.Max()
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestTimeWeightedMean(t *testing.T) {
	var w TimeWeighted
	w.Set(0, 10)
	w.Set(100, 20)
	// 10 for [0,100), 20 for [100,200): mean 15 at t=200.
	if m := w.Mean(200); m != 15 {
		t.Fatalf("Mean = %v, want 15", m)
	}
	if w.Max() != 20 {
		t.Fatalf("Max = %v", w.Max())
	}
}

func TestTimeWeightedAdd(t *testing.T) {
	var w TimeWeighted
	w.Set(0, 0)
	w.Add(10, +3)
	w.Add(20, -1)
	if w.Value() != 2 {
		t.Fatalf("Value = %v", w.Value())
	}
}

func TestTimeWeightedResetAt(t *testing.T) {
	var w TimeWeighted
	w.Set(0, 100) // big warm-up value
	w.Set(50, 2)
	w.ResetAt(100)
	if m := w.Mean(200); m != 2 {
		t.Fatalf("Mean after reset = %v, want 2", m)
	}
}

func TestTimeWeightedBeforeStart(t *testing.T) {
	var w TimeWeighted
	if w.Mean(100) != 0 {
		t.Fatal("mean of never-set gauge should be 0")
	}
	w.Set(sim.Time(50), 7)
	if w.Mean(50) != 7 {
		t.Fatal("mean at start time should be current value")
	}
}

func TestHistogramMeanAndQuantile(t *testing.T) {
	h := NewHistogram(1.0, 100)
	for i := 0; i < 100; i++ {
		h.Add(float64(i))
	}
	if h.N() != 100 {
		t.Fatalf("N = %d", h.N())
	}
	if math.Abs(h.Mean()-49.5) > 1e-9 {
		t.Fatalf("Mean = %v", h.Mean())
	}
	med := h.Quantile(0.5)
	if med < 45 || med > 55 {
		t.Fatalf("median = %v", med)
	}
	p99 := h.Quantile(0.99)
	if p99 < 95 {
		t.Fatalf("p99 = %v", p99)
	}
}

// TestHistogramReset checks that a reset histogram reads as a fresh one,
// empty and after the same observations, and keeps its buckets' memory.
func TestHistogramReset(t *testing.T) {
	h, fresh := NewHistogram(1.0, 50), NewHistogram(1.0, 50)
	for i := 0; i < 200; i++ {
		h.Add(float64(i % 70))
	}
	buckets := &h.buckets[0]
	h.Reset()
	if h.N() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("after Reset: N %d, mean %v, median %v", h.N(), h.Mean(), h.Quantile(0.5))
	}
	for _, x := range []float64{3, 3.5, 12, 49, 80} {
		h.Add(x)
		fresh.Add(x)
	}
	for _, q := range []float64{0, 0.2, 0.5, 0.8, 0.99} {
		if h.Quantile(q) != fresh.Quantile(q) {
			t.Errorf("Quantile(%v) = %v, fresh histogram %v", q, h.Quantile(q), fresh.Quantile(q))
		}
	}
	if h.N() != fresh.N() || h.Mean() != fresh.Mean() {
		t.Errorf("N %d mean %v, fresh histogram N %d mean %v", h.N(), h.Mean(), fresh.N(), fresh.Mean())
	}
	if &h.buckets[0] != buckets {
		t.Error("Reset reallocated the buckets")
	}
}

func TestHistogramRejectsBadGeometry(t *testing.T) {
	for _, tc := range []struct {
		width float64
		n     int
	}{
		{0, 10}, {-1, 10}, {1, 0}, {1, -3}, {0, 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v, %d) did not panic", tc.width, tc.n)
				}
			}()
			NewHistogram(tc.width, tc.n)
		}()
	}
}

func TestHistogramQuantileEmpty(t *testing.T) {
	h := NewHistogram(1.0, 10)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("Quantile(%v) on empty histogram = %v, want 0", q, got)
		}
	}
}

func TestHistogramQuantileSingleBucket(t *testing.T) {
	h := NewHistogram(2.0, 1)
	h.Add(0.5)
	h.Add(1.5)
	h.Add(100) // overflow clamps into the only bucket
	// Every quantile below 1 lands on the single bucket's midpoint.
	for _, q := range []float64{0, 0.5, 0.99} {
		if got := h.Quantile(q); got != 1.0 {
			t.Fatalf("Quantile(%v) = %v, want bucket midpoint 1.0", q, got)
		}
	}
	if h.N() != 3 {
		t.Fatalf("N = %d", h.N())
	}
}

func TestHistogramOverflowClamps(t *testing.T) {
	h := NewHistogram(1.0, 10)
	h.Add(1e9)
	h.Add(-5)
	if h.N() != 2 {
		t.Fatal("out-of-range samples must still be counted")
	}
}

func TestSeriesAndTable(t *testing.T) {
	a := &Series{Name: "aff=0.8"}
	a.Add(2, 100)
	a.Add(4, 180)
	b := &Series{Name: "aff=0.5"}
	b.Add(2, 90)
	out := Table("nodes", a, b)
	if !strings.Contains(out, "aff=0.8") || !strings.Contains(out, "nodes") {
		t.Fatalf("table missing headers:\n%s", out)
	}
	if !strings.Contains(out, "180") {
		t.Fatalf("table missing data:\n%s", out)
	}
	// Missing cell rendered as '-'.
	if !strings.Contains(out, "-") {
		t.Fatalf("missing cell not rendered:\n%s", out)
	}
	if y, ok := a.YAt(4); !ok || y != 180 {
		t.Fatalf("YAt(4) = %v/%v", y, ok)
	}
	if _, ok := a.YAt(99); ok {
		t.Fatal("YAt on absent x returned ok")
	}
}
