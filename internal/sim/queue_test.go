package sim

import (
	"fmt"
	"testing"
)

// checkQueue compares q with its slice model: length, every element
// through At, and the ring invariants (power-of-two buffer, head in range).
func checkQueue(t *testing.T, q *Queue[int], model []int, step string) {
	t.Helper()
	if q.Len() != len(model) {
		t.Fatalf("%s: Len %d, model %d", step, q.Len(), len(model))
	}
	for i, want := range model {
		if got := *q.At(i); got != want {
			t.Fatalf("%s: At(%d) = %d, model %d", step, i, got, want)
		}
	}
	if n := len(q.buf); n&(n-1) != 0 || q.head < 0 || (n > 0 && q.head >= n) || q.n > n {
		t.Fatalf("%s: buffer %d, head %d, n %d breaks the ring invariants", step, n, q.head, q.n)
	}
}

// TestQueueMatchesSliceModel drives random Push, Pop, At writes and Clear
// against a plain slice. Bursts of pushes and pops move the head around the
// buffer, so pushes wrap past its end and the buffer grows while the head
// is not at index 0.
func TestQueueMatchesSliceModel(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		x := seed*2654435761 + 7
		next := func(n int) int {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return int(x % uint64(n))
		}
		var q Queue[int]
		var model []int
		val := 0
		wrapped, grewOffHead := false, false
		for op := 0; op < 2000; op++ {
			step := fmt.Sprintf("seed %d op %d", seed, op)
			switch k := next(20); {
			case k < 8: // a burst of pushes
				for i := next(6); i >= 0; i-- {
					oldBuf, oldHead := len(q.buf), q.head
					if oldBuf > 0 && q.n < oldBuf && q.head+q.n >= oldBuf {
						wrapped = true
					}
					val++
					q.Push(val)
					model = append(model, val)
					if len(q.buf) != oldBuf && oldHead != 0 {
						grewOffHead = true
					}
				}
			case k < 16: // a burst of pops
				for i := next(6); i >= 0 && len(model) > 0; i-- {
					if got := q.Pop(); got != model[0] {
						t.Fatalf("%s: Pop = %d, model %d", step, got, model[0])
					}
					model = model[1:]
				}
			case k < 19: // write through At
				if len(model) > 0 {
					i := next(len(model))
					val++
					*q.At(i) = val
					model[i] = val
				}
			default:
				q.Clear()
				model = model[:0]
			}
			checkQueue(t, &q, model, step)
		}
		if !wrapped || !grewOffHead {
			t.Fatalf("seed %d: wrapped %v, grew with a non-zero head %v; the sequence missed a case", seed, wrapped, grewOffHead)
		}
	}
}

// TestQueueOutOfRangePanics: Pop of an empty queue and At outside
// [0, Len()) panic rather than read a stale slot, also when the buffer
// still has room.
func TestQueueOutOfRangePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	var q Queue[int]
	mustPanic("Pop of a zero Queue", func() { q.Pop() })
	mustPanic("At(0) of a zero Queue", func() { q.At(0) })
	q.Push(1)
	q.Push(2)
	mustPanic("At(-1)", func() { q.At(-1) })
	mustPanic("At(Len())", func() { q.At(2) })
	q.Pop()
	q.Pop()
	mustPanic("Pop of a drained Queue", func() { q.Pop() })
	mustPanic("At(0) of a drained Queue", func() { q.At(0) })
	q.Push(3)
	q.Clear()
	mustPanic("Pop of a cleared Queue", func() { q.Pop() })
}

// TestQueueReleasesReferences: Pop zeroes the slot it vacates and Clear
// zeroes the whole buffer, which it keeps, so a queue never pins what it
// no longer holds.
func TestQueueReleasesReferences(t *testing.T) {
	var q Queue[*int]
	for i := 0; i < 6; i++ {
		q.Push(new(int))
	}
	for i := 0; i < 3; i++ {
		q.Pop()
	}
	for i, p := range q.buf {
		if live := i >= q.head && i < q.head+q.n; !live && p != nil {
			t.Fatalf("slot %d still holds a popped element", i)
		}
	}
	buf := q.buf
	q.Clear()
	if q.Len() != 0 || len(q.buf) != len(buf) || &q.buf[0] != &buf[0] {
		t.Fatalf("Clear: Len %d, buffer %d (was %d, same array %v); want an empty queue on the same buffer",
			q.Len(), len(q.buf), len(buf), &q.buf[0] == &buf[0])
	}
	for i, p := range q.buf {
		if p != nil {
			t.Fatalf("slot %d still holds an element after Clear", i)
		}
	}
}

// TestQueueSteadyStateAllocs: once the buffer has grown to the high-water
// mark, Push and Pop do not allocate, here or after a Clear.
func TestQueueSteadyStateAllocs(t *testing.T) {
	var q Queue[*int]
	v := new(int)
	for i := 0; i < 4; i++ {
		q.Push(v)
	}
	q.Clear()
	if avg := testing.AllocsPerRun(200, func() {
		q.Push(v)
		q.Push(v)
		q.Pop()
		q.Pop()
	}); avg != 0 {
		t.Errorf("warmed Push+Pop: %v allocs/op, want 0", avg)
	}
}
