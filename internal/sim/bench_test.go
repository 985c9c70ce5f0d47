package sim

import (
	"runtime"
	"testing"
	"time"
)

// BenchmarkSchedule measures the schedule→fire round trip that dominates the
// kernel's hot path: every iteration pushes one event and the run loop pops
// it again.
func BenchmarkSchedule(b *testing.B) {
	s := New()
	n := 0
	var step func()
	step = func() {
		if n < b.N {
			n++
			s.After(Time(1), step)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.After(Time(1), step)
	s.RunAll()
}

// BenchmarkScheduleDepth exercises heap movement with a standing population
// of 1024 timers, the regime router/link calendars run in.
func BenchmarkScheduleDepth(b *testing.B) {
	s := New()
	const depth = 1024
	n := 0
	var step func()
	step = func() {
		if n < b.N {
			n++
			s.After(Time(1), step)
		}
	}
	// A standing population of far-future timers forces every push/pop to
	// churn through a populated heap.
	fn := func() {}
	for i := 0; i < depth; i++ {
		s.At(Time(1)<<60+Time(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.After(Time(1), step)
	s.RunAll()
}

// BenchmarkCancel measures the arm/disarm timer pattern (every TCP segment
// arms an RTO that is almost always cancelled by the ack).
func BenchmarkCancel(b *testing.B) {
	s := New()
	n := 0
	fn := func() {}
	var step func()
	step = func() {
		if n < b.N {
			n++
			id := s.After(Time(1000), fn)
			s.Cancel(id)
			s.After(Time(1), step)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.After(Time(1), step)
	s.RunAll()
}

// BenchmarkProcSwitch measures one process step on the no-switch resume
// path: a lone sleeper's own coroutine runs the calendar, so its wake is a
// plain return from park. Compare against the continuation path above.
func BenchmarkProcSwitch(b *testing.B) {
	s := New()
	s.Spawn("bench", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Time(1))
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	s.RunAll()
	b.ReportMetric(float64(s.Switches())/float64(b.N), "switches/op")
}

// BenchmarkProcHandOff measures a wake that crosses processes: two
// processes sleep in alternation (one at odd instants, one at even), so
// every wake hands the calendar to the other process's coroutine — one
// hand-off per step, which yields to the Run caller and resumes the other
// coroutine from there (two coroutine switches, no goroutine scheduling).
func BenchmarkProcHandOff(b *testing.B) {
	s := New()
	for i := 0; i < 2; i++ {
		first := Time(2 - i)
		s.Spawn("bench", func(p *Proc) {
			for t := first; t <= Time(b.N); t += 2 {
				p.SleepUntil(t)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.RunAll()
	b.ReportMetric(float64(s.Switches())/float64(b.N), "switches/op")
}

// TestScheduleSteadyStateAllocs pins the tentpole property: once the pool has
// grown to the working population, schedule/fire and schedule/cancel run
// without allocating.
func TestScheduleSteadyStateAllocs(t *testing.T) {
	s := New()
	fn := func() {}
	// Warm the pool and heap beyond anything the loop below needs.
	ids := make([]EventID, 64)
	for i := range ids {
		ids[i] = s.After(Time(i+1), fn)
	}
	for _, id := range ids {
		s.Cancel(id)
	}

	if avg := testing.AllocsPerRun(200, func() {
		id := s.After(Time(10), fn)
		s.Cancel(id)
	}); avg != 0 {
		t.Errorf("schedule+cancel: %v allocs/op, want 0", avg)
	}

	if avg := testing.AllocsPerRun(200, func() {
		s.After(Time(1), fn)
		s.RunAll()
	}); avg != 0 {
		t.Errorf("schedule+fire: %v allocs/op, want 0", avg)
	}
}

// TestFiredTimerClosureCollectible is the regression test for stale-EventID
// retention: after a timer fires, the kernel must not pin its callback — the
// closure (and everything it captures) has to be collectible even while the
// caller still holds the EventID.
func TestFiredTimerClosureCollectible(t *testing.T) {
	s := New()
	type ballast struct{ buf [1 << 16]byte }
	collected := make(chan struct{})
	var id EventID
	func() {
		bal := &ballast{}
		runtime.SetFinalizer(bal, func(*ballast) { close(collected) })
		id = s.After(Time(1), func() { _ = bal.buf[0] })
	}()
	s.RunAll()
	// The EventID is still held (id), but the slot was released on fire; the
	// closure and its ballast must now be garbage.
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			if s.Scheduled(id) {
				t.Fatal("fired event still reports Scheduled")
			}
			return
		case <-time.After(10 * time.Millisecond):
			// Finalizers run asynchronously after GC; give them a beat.
		}
	}
	t.Fatal("fired timer's closure was not collected; kernel retains fn")
}
