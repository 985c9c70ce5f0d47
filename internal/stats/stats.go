// Package stats provides the measurement primitives used across the
// simulator: sample tallies, time-weighted averages, histograms, and the
// (x, y) series the experiment harness turns into the paper's figures.
package stats

import (
	"fmt"
	"sort"

	"dclue/internal/sim"
)

// Tally accumulates independent samples and reports summary statistics.
type Tally struct {
	n        uint64
	sum, sq  float64
	min, max float64
}

// Add records one sample.
func (t *Tally) Add(x float64) {
	if t.n == 0 || x < t.min {
		t.min = x
	}
	if t.n == 0 || x > t.max {
		t.max = x
	}
	t.n++
	t.sum += x
	t.sq += x * x
}

// N returns the number of samples.
func (t *Tally) N() uint64 { return t.n }

// Sum returns the total of all samples.
func (t *Tally) Sum() float64 { return t.sum }

// Mean returns the sample mean (0 if empty).
func (t *Tally) Mean() float64 {
	if t.n == 0 {
		return 0
	}
	return t.sum / float64(t.n)
}

// Var returns the population variance (0 if fewer than 2 samples).
func (t *Tally) Var() float64 {
	if t.n < 2 {
		return 0
	}
	m := t.Mean()
	v := t.sq/float64(t.n) - m*m
	if v < 0 {
		return 0
	}
	return v
}

// Min returns the smallest sample (0 if empty).
func (t *Tally) Min() float64 {
	if t.n == 0 {
		return 0
	}
	return t.min
}

// Max returns the largest sample (0 if empty).
func (t *Tally) Max() float64 {
	if t.n == 0 {
		return 0
	}
	return t.max
}

// Reset discards all samples.
func (t *Tally) Reset() { *t = Tally{} }

// TimeWeighted tracks a piecewise-constant quantity (queue length, active
// threads, ...) and reports its time-average.
type TimeWeighted struct {
	val      float64
	integral float64
	start    sim.Time
	last     sim.Time
	max      float64
	started  bool
}

// Set records that the quantity changed to v at time now.
func (w *TimeWeighted) Set(now sim.Time, v float64) {
	if !w.started {
		w.start, w.last, w.started = now, now, true
	}
	w.integral += w.val * float64(now-w.last)
	w.last = now
	w.val = v
	if v > w.max {
		w.max = v
	}
}

// Add is a convenience for Set(now, current+delta).
func (w *TimeWeighted) Add(now sim.Time, delta float64) { w.Set(now, w.val+delta) }

// Value returns the current value.
func (w *TimeWeighted) Value() float64 { return w.val }

// Max returns the largest value seen.
func (w *TimeWeighted) Max() float64 { return w.max }

// Mean returns the time-average over [first Set, now].
func (w *TimeWeighted) Mean(now sim.Time) float64 {
	if !w.started || now <= w.start {
		return w.val
	}
	integral := w.integral + w.val*float64(now-w.last)
	return integral / float64(now-w.start)
}

// ResetAt restarts averaging from now, keeping the current value. Used to
// discard a warm-up period.
func (w *TimeWeighted) ResetAt(now sim.Time) {
	w.integral = 0
	w.start, w.last = now, now
	w.max = w.val
	w.started = true
}

// Histogram is a fixed-bucket histogram over [0, +inf) with linear buckets
// of the given width; overflow lands in the last bucket.
type Histogram struct {
	width   float64
	buckets []uint64
	tally   Tally
}

// NewHistogram returns a histogram with n linear buckets of the given width.
// It panics when width or n is not positive — a zero width would put every
// observation in the overflow bucket and quietly report garbage quantiles.
func NewHistogram(width float64, n int) *Histogram {
	if width <= 0 || n <= 0 {
		panic(fmt.Sprintf("stats: NewHistogram(width=%v, n=%d): both must be positive", width, n))
	}
	return &Histogram{width: width, buckets: make([]uint64, n)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.tally.Add(x)
	i := int(x / h.width)
	if i < 0 {
		i = 0
	}
	if i >= len(h.buckets) {
		i = len(h.buckets) - 1
	}
	h.buckets[i]++
}

// Reset discards all observations, keeping the buckets' memory.
func (h *Histogram) Reset() {
	clear(h.buckets)
	h.tally.Reset()
}

// N returns the number of observations.
func (h *Histogram) N() uint64 { return h.tally.N() }

// Mean returns the mean observation.
func (h *Histogram) Mean() float64 { return h.tally.Mean() }

// Quantile returns an approximate q-quantile (q in [0,1]) using bucket
// midpoints.
func (h *Histogram) Quantile(q float64) float64 {
	if h.tally.N() == 0 {
		return 0
	}
	target := uint64(q * float64(h.tally.N()))
	var cum uint64
	for i, c := range h.buckets {
		cum += c
		if cum > target {
			return (float64(i) + 0.5) * h.width
		}
	}
	return float64(len(h.buckets)) * h.width
}

// Point is one (x, y) pair in a figure series.
type Point struct{ X, Y float64 }

// Series is a named sequence of points — one curve in a paper figure.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{x, y}) }

// YAt returns the y value at the given x (exact match) and whether it exists.
func (s *Series) YAt(x float64) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}

// Table renders one or more series sharing an x-axis as an aligned text
// table, the form the experiment harness prints for each paper figure.
func Table(xlabel string, series ...*Series) string {
	xs := map[float64]bool{}
	for _, s := range series {
		for _, p := range s.Points {
			xs[p.X] = true
		}
	}
	sorted := make([]float64, 0, len(xs))
	for x := range xs {
		sorted = append(sorted, x)
	}
	sort.Float64s(sorted)

	out := fmt.Sprintf("%-12s", xlabel)
	for _, s := range series {
		out += fmt.Sprintf(" %16s", s.Name)
	}
	out += "\n"
	for _, x := range sorted {
		out += fmt.Sprintf("%-12.4g", x)
		for _, s := range series {
			if y, ok := s.YAt(x); ok {
				out += fmt.Sprintf(" %16.6g", y)
			} else {
				out += fmt.Sprintf(" %16s", "-")
			}
		}
		out += "\n"
	}
	return out
}
