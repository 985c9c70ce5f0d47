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

// standTimers schedules a standing population of 1024 far-future timers,
// the regime router/link calendars run in: retransmission timers and long
// waits stand far ahead while the near events come and go.
func standTimers(s *Sim) {
	const depth = 1024
	fn := func() {}
	for i := 0; i < depth; i++ {
		s.At(Time(1)<<60+Time(i), fn)
	}
}

// BenchmarkScheduleDepth measures the schedule→fire round trip over the
// standing population of standTimers, which a near event must not pay for.
func BenchmarkScheduleDepth(b *testing.B) {
	s := New()
	n := 0
	var step func()
	step = func() {
		if n < b.N {
			n++
			s.After(Time(1), step)
		}
	}
	standTimers(s)
	b.ReportAllocs()
	b.ResetTimer()
	s.After(Time(1), step)
	s.RunAll()
}

// BenchmarkScheduleNow measures events scheduled for the current instant,
// over the same standing population: as when a packet's arrival starts an
// interrupt that is granted a CPU at once, each arrival (one time unit
// after the last grant) schedules a start for its own instant, and the
// start a grant. Two of every three events are same-instant.
func BenchmarkScheduleNow(b *testing.B) {
	s := New()
	n := 0
	var arrive, start, grant func()
	arrive = func() {
		if n < b.N {
			n++
			s.After(0, start)
		}
	}
	start = func() {
		if n < b.N {
			n++
			s.After(0, grant)
		}
	}
	grant = func() {
		if n < b.N {
			n++
			s.After(Time(1), arrive)
		}
	}
	standTimers(s)
	b.ReportAllocs()
	b.ResetTimer()
	s.After(Time(1), arrive)
	s.RunAll()
}

// BenchmarkScheduleBurst measures events that fall due together in a large
// burst, as ten thousand processes sleeping in step do (TestManyProcsScale):
// bursts of 10,000 events due at one future instant, each scheduled and
// then run. One event per op; taking the burst's events in schedule order
// must cost O(1) each, not a scan of the burst per event.
func BenchmarkScheduleBurst(b *testing.B) {
	const burst = 10000
	s := New()
	fn := func() {}
	run := func(n int) {
		t := s.Now() + Millisecond
		for i := 0; i < n; i++ {
			s.At(t, fn)
		}
		s.RunAll()
	}
	// Grow the pool, the lane and every bucket a burst can land in.
	for i := 0; i < 64; i++ {
		run(burst)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += burst {
		run(min(burst, b.N-n))
	}
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

// BenchmarkResourceHandOver measures the server hand-over of a busy
// Resource to a queued AcquireFunc continuation, the way callback actors
// share a CPU: two actors hold a one-server resource in turn for one time
// unit each, and every Release hands the server to the other, which queued
// for it meanwhile. One hand-over per op.
func BenchmarkResourceHandOver(b *testing.B) {
	s := New()
	r := NewResource(s, 1)
	n := 0
	var got, done func()
	got = func() { s.After(Time(1), done) }
	done = func() {
		r.Release()
		if n < b.N {
			n++
			r.AcquireFunc(got)
		}
	}
	r.AcquireFunc(got) // the first actor takes the server
	r.AcquireFunc(got) // the second queues for it
	b.ReportAllocs()
	b.ResetTimer()
	s.RunAll()
}

// TestScheduleSteadyStateAllocs pins the tentpole property: once the pool and
// the calendar's buckets have grown to the working population,
// schedule/fire (for a later instant or the current one) and schedule/cancel
// (near, or far ahead as a retransmission timer) run without allocating, and
// so do an advance that moves several due events into the lane, a Resource
// handing its server to a queued continuation or process, a Mailbox send
// taken without blocking, and a blocking request and reply on a Waiter.
func TestScheduleSteadyStateAllocs(t *testing.T) {
	s := New()
	fn := func() {}
	// Warm the pool beyond anything the loop below needs.
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

	// An RTO-style timer armed far ahead, in a high bucket, and cancelled.
	if avg := testing.AllocsPerRun(200, func() {
		id := s.After(Time(1)<<30, fn)
		s.Cancel(id)
	}); avg != 0 {
		t.Errorf("far schedule+cancel: %v allocs/op, want 0", avg)
	}

	if avg := testing.AllocsPerRun(200, func() {
		s.After(Time(1), fn)
		s.RunAll()
	}); avg != 0 {
		t.Errorf("schedule+fire: %v allocs/op, want 0", avg)
	}

	// An advance that refiles a bucket: three events due together move into
	// the lane, and a fourth, one time unit later, into a lower bucket. The
	// clock's advance changes which buckets an op uses, so every bucket an
	// op can reach is warmed first.
	advance := func() {
		for i := 0; i < 3; i++ {
			s.After(Time(1000), fn)
		}
		s.After(Time(1001), fn)
		s.RunAll()
	}
	for i := 0; i < 1024; i++ {
		advance()
	}
	if avg := testing.AllocsPerRun(200, advance); avg != 0 {
		t.Errorf("advance into the lane: %v allocs/op, want 0", avg)
	}

	if avg := testing.AllocsPerRun(200, func() {
		s.After(0, fn)
		s.RunAll()
	}); avg != 0 {
		t.Errorf("same-instant schedule+fire: %v allocs/op, want 0", avg)
	}

	// A value sent and taken with TryRecv: the mailbox's queue is reused. A
	// pointer goes into an any without boxing.
	m := NewMailbox(s)
	v := new(int)
	if avg := testing.AllocsPerRun(200, func() {
		m.Send(v)
		m.TryRecv()
	}); avg != 0 || m.Len() != 0 {
		t.Errorf("mailbox send+try-receive: %v allocs/op (%d values left), want 0", avg, m.Len())
	}

	// Hand-over to a continuation: the Run caller holds the server while a
	// continuation queues; the continuation gets it and releases it.
	r := NewResource(s, 1)
	release := func() { r.Release() }
	if avg := testing.AllocsPerRun(200, func() {
		r.take()
		r.AcquireFunc(release)
		r.Release()
		s.RunAll()
	}); avg != 0 || r.inUse != 0 {
		t.Errorf("hand-over to a continuation: %v allocs/op (%d servers left busy), want 0", avg, r.inUse)
	}

	// Hand-over to a process: each op the Run caller takes the server, the
	// process wakes and queues for it, and a release event one time unit
	// later hands it over; the process releases it and sleeps into the next
	// op's window.
	var ops, waits uint64
	s.Spawn("waiter", func(p *Proc) {
		for {
			queued := p.Now()
			r.Acquire(p)
			if p.Now() > queued {
				waits++
			}
			r.Release()
			p.Sleep(1)
		}
	})
	s.Run(s.Now())
	if avg := testing.AllocsPerRun(200, func() {
		r.take()
		s.At(s.Now()+2, release)
		s.Run(s.Now() + 2)
		ops++
	}); avg != 0 || waits != ops {
		t.Errorf("hand-over to a process: %v allocs/op, %d waits in %d ops; want 0, one per op",
			avg, waits, ops)
	}
	s.Shutdown()

	// A blocking request and reply with a timeout armed and cancelled,
	// answered on a Waiter and on a reused Mailbox: each op the reply event
	// delivers, which cancels the timeout and wakes the process; it takes a
	// fresh token, sends its next request and parks again. The reply is a
	// pointer, which an any holds unboxed.
	var tok Waiter
	var mb *Mailbox
	for _, c := range []struct {
		name  string
		reply func()
		wait  func(p *Proc) (any, bool)
	}{
		{"a Waiter", func() { tok.Deliver(v) }, func(p *Proc) (any, bool) { return p.Await(10) }},
		{"a reused Mailbox", func() { mb.Send(v) }, func(p *Proc) (any, bool) { return mb.RecvTimeout(p, 10) }},
	} {
		rs := New()
		mb = NewMailbox(rs)
		replies := 0
		rs.Spawn("requester", func(p *Proc) {
			for {
				tok = p.Waiter() // RecvTimeout takes a newer one for the Mailbox
				rs.After(1, c.reply)
				if got, ok := c.wait(p); ok && got == v {
					replies++
				}
			}
		})
		request := func() { rs.Run(rs.Now() + 1) }
		for i := 0; i < 1024; i++ {
			request() // warm every bucket the clock's advance can reach
		}
		replies = 0
		if avg := testing.AllocsPerRun(200, request); avg != 0 || replies != 201 {
			t.Errorf("request and reply on %s: %v allocs/op, %d replies in 201 ops; want 0, one per op",
				c.name, avg, replies)
		}
		rs.Shutdown()
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
