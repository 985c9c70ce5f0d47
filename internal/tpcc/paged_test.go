package tpcc

import (
	"testing"

	"dclue/internal/rng"
)

// TestPagedOracle drives a paged array and a plain slice, grown the way
// the old attribute arrays were, through the same random writes and reads:
// appends, writes at and around page boundaries, writes many pages past
// the end, in-place writes through at, and reads. After every step the two
// agree on the length and on the rows around the step's row, and at the
// end of each seed on every row.
func TestPagedOracle(t *testing.T) {
	var boundary, farAhead, inPlace int
	for seed := uint64(1); seed <= 24; seed++ {
		r := rng.Derive(seed, "paged-oracle")
		var a paged[int32]
		var model []int32
		set := func(i int64, v int32) {
			a.set(i, v)
			for int64(len(model)) <= i {
				model = append(model, 0)
			}
			model[i] = v
		}
		check := func(step int, i int64) {
			t.Helper()
			if a.n != int64(len(model)) {
				t.Fatalf("seed %d step %d: length %d, model %d", seed, step, a.n, len(model))
			}
			for _, j := range []int64{i - 1, i, i + 1, i - i%pageLen, a.n - 1, int64(r.Intn(len(model)))} {
				if j < 0 || j >= a.n {
					continue
				}
				if got := a.get(j); got != model[j] {
					t.Fatalf("seed %d step %d: row %d = %d, model %d", seed, step, j, got, model[j])
				}
			}
		}
		for step := 0; step < 300; step++ {
			v := int32(r.Intn(1 << 30))
			var i int64
			switch k := r.Intn(10); {
			case k < 4 || len(model) == 0: // append the next row
				i = int64(len(model))
			case k < 6: // the last row of a page, the first of the next, or one past it
				i = int64(r.IntRange(1, len(model)/pageLen+2))*pageLen + int64(r.IntRange(-1, 1))
				boundary++
			case k == 6: // many pages past the end
				i = int64(len(model)) + int64(r.IntRange(3, 12))*pageLen + int64(r.Intn(pageLen))
				farAhead++
			case k < 9: // an existing row, written in place
				i = int64(r.Intn(len(model)))
				*a.at(i) = v
				model[i] = v
				inPlace++
				check(step, i)
				continue
			default: // a read
				i = int64(r.Intn(len(model)))
				check(step, i)
				continue
			}
			set(i, v)
			check(step, i)
		}
		for j := range model {
			if got := a.get(int64(j)); got != model[j] {
				t.Fatalf("seed %d: row %d = %d, model %d", seed, j, got, model[j])
			}
		}
		if want := (len(model) + pageLen - 1) / pageLen; len(a.pages) != want {
			t.Fatalf("seed %d: %d pages for %d rows, want %d", seed, len(a.pages), len(model), want)
		}
	}
	if boundary == 0 || farAhead == 0 || inPlace == 0 {
		t.Fatalf("a step kind never ran: boundary %d, far ahead %d, in place %d", boundary, farAhead, inPlace)
	}
}

// TestPagedReadPastEndPanics checks that no read grows the array: rows at
// and past the end, in the last page or beyond it, and negative rows panic.
func TestPagedReadPastEndPanics(t *testing.T) {
	var a paged[int8]
	a.set(pageLen+5, 1)
	for _, i := range []int64{pageLen + 6, 2*pageLen - 1, 2 * pageLen, 10 * pageLen, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("get(%d) with %d rows did not panic", i, a.n)
				}
			}()
			a.get(i)
		}()
	}
	if a.n != pageLen+6 || len(a.pages) != 2 {
		t.Fatalf("reads changed the array: %d rows in %d pages", a.n, len(a.pages))
	}
}

// TestPagedGrowthKeepsPages checks that growth never moves a row: a pointer
// taken into page 0 still addresses row 0 after the array grows by many
// pages.
func TestPagedGrowthKeepsPages(t *testing.T) {
	var a paged[int32]
	a.set(0, 7)
	p := a.at(0)
	for i := int64(1); i < 40*pageLen; i += 97 {
		a.set(i, int32(i))
	}
	if a.at(0) != p {
		t.Fatal("growth moved row 0")
	}
	*p = 11
	if a.get(0) != 11 {
		t.Fatalf("row 0 = %d after a write through the old pointer, want 11", a.get(0))
	}
}
