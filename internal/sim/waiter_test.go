package sim

import (
	"fmt"
	"strings"
	"testing"
)

// TestWaiterDeliveredBeforeAwait: a value that arrives while the process is
// not yet in Await waits in the slot, and Await returns it at once, with no
// park and no event.
func TestWaiterDeliveredBeforeAwait(t *testing.T) {
	s := New()
	var w Waiter
	var got any
	var events, switches uint64
	var pending int
	s.Spawn("r", func(p *Proc) {
		w = p.Waiter()
		p.Sleep(20)
		events, switches, pending = s.EventCount(), s.Switches(), s.Pending()
		got, _ = p.Await(50)
		if s.EventCount() != events || s.Switches() != switches || s.Pending() != pending || p.Now() != 20 {
			t.Errorf("Await of a delivered value: events %d->%d, switches %d->%d, pending %d->%d, now %v; want no change at 20",
				events, s.EventCount(), switches, s.Switches(), pending, s.Pending(), p.Now())
		}
	})
	s.At(10, func() { w.Deliver("early") })
	s.RunAll()
	if got != "early" {
		t.Fatalf("Await = %v, want early", got)
	}
}

// TestWaiterFirstDeliveryWins: the first delivery fills the token and wakes
// the process once; later deliveries change nothing and schedule nothing.
func TestWaiterFirstDeliveryWins(t *testing.T) {
	s := New()
	var w Waiter
	var got any
	var at Time
	s.Spawn("r", func(p *Proc) {
		w = p.Waiter()
		got, _ = p.Await(-1)
		at = p.Now()
	})
	s.At(10, func() {
		w.Deliver(1)
		n := s.Pending()
		w.Deliver(2)
		if s.Pending() != n {
			t.Errorf("second delivery scheduled %d events", s.Pending()-n)
		}
	})
	s.At(15, func() { w.Deliver(3) })
	s.RunAll()
	if got != 1 || at != 10 {
		t.Fatalf("Await = %v at %v, want 1 at 10", got, at)
	}
	// Start, the event with both deliveries, one wake, the late delivery.
	if s.EventCount() != 4 {
		t.Fatalf("%d events, want 4", s.EventCount())
	}
}

// TestWaiterStaleDeliveriesAreNoOps: a delivery after the wait timed out, to
// a token a newer Waiter call superseded, or to the zero Waiter changes
// nothing and schedules no event.
func TestWaiterStaleDeliveriesAreNoOps(t *testing.T) {
	// noEvent runs deliver in an event of its own and fails if it scheduled
	// anything.
	noEvent := func(t *testing.T, s *Sim, at Time, deliver func()) {
		s.At(at, func() {
			n := s.Pending()
			deliver()
			if s.Pending() != n {
				t.Errorf("stale delivery at %v scheduled %d events", at, s.Pending()-n)
			}
		})
	}

	t.Run("after timeout", func(t *testing.T) {
		s := New()
		var w Waiter
		var ok bool
		s.Spawn("r", func(p *Proc) {
			w = p.Waiter()
			_, ok = p.Await(5)
			p.Sleep(20)
			p.Await(-1) // the late delivery left no value: this panics
		})
		noEvent(t, s, 10, func() { w.Deliver(1) })
		err := runPanic(s)
		if ok {
			t.Error("Await with no delivery returned ok")
		}
		if !strings.Contains(err, "without a fresh Waiter") {
			t.Errorf("Await after a late delivery: panic %q, want one for a missing Waiter", err)
		}
		// Start, timeout, the late delivery, the sleep's wake.
		if s.EventCount() != 4 {
			t.Errorf("%d events, want 4", s.EventCount())
		}
	})

	t.Run("superseded", func(t *testing.T) {
		s := New()
		var old Waiter
		var ok bool
		var at Time
		s.Spawn("r", func(p *Proc) {
			old = p.Waiter()
			p.Waiter()
			_, ok = p.Await(50)
			at = p.Now()
		})
		noEvent(t, s, 10, func() { old.Deliver(1) })
		s.RunAll()
		if ok || at != 50 {
			t.Fatalf("Await after a superseded delivery: ok %v at %v, want a timeout at 50", ok, at)
		}
	})

	t.Run("zero", func(t *testing.T) {
		s := New()
		noEvent(t, s, 10, func() { Waiter{}.Deliver(1) })
		s.RunAll()
	})
}

// TestWaiterDeliveryDuringSleep: a delivery to a live token while its
// process sleeps does not wake it; Await returns the value afterwards.
func TestWaiterDeliveryDuringSleep(t *testing.T) {
	s := New()
	var w Waiter
	var got any
	var woke Time
	s.Spawn("r", func(p *Proc) {
		w = p.Waiter()
		p.Sleep(100)
		woke = p.Now()
		got, _ = p.Await(-1)
	})
	s.At(10, func() { w.Deliver("mid-sleep") })
	s.RunAll()
	if woke != 100 || got != "mid-sleep" {
		t.Fatalf("woke at %v with %v, want 100 with mid-sleep", woke, got)
	}
}

// TestWaiterKilledProcess: a process killed in Await keeps a current token.
// A delivery cancels its timeout and schedules a wake that does nothing; an
// unanswered timeout still fires, after which a delivery schedules nothing.
func TestWaiterKilledProcess(t *testing.T) {
	t.Run("delivered", func(t *testing.T) {
		s := New()
		var w Waiter
		k := s.Spawn("k", func(p *Proc) {
			w = p.Waiter()
			p.Await(100)
			t.Error("killed process resumed")
		})
		s.At(10, func() { s.Kill(k) })
		s.At(20, func() { w.Deliver(1) })
		end := s.RunAll()
		// Start, kill, delivery, the no-op wake; the timeout is cancelled.
		if end != 20 || s.EventCount() != 4 {
			t.Fatalf("ended at %v after %d events, want 20 after 4", end, s.EventCount())
		}
	})

	t.Run("timed out", func(t *testing.T) {
		s := New()
		var w Waiter
		k := s.Spawn("k", func(p *Proc) {
			w = p.Waiter()
			p.Await(100)
			t.Error("killed process resumed")
		})
		s.At(10, func() { s.Kill(k) })
		var before uint64
		s.At(150, func() { before = s.EventCount(); w.Deliver(1) })
		end := s.RunAll()
		// Start, kill, the timeout, the delivery; no wake follows it.
		if before != 4 || end != 150 || s.EventCount() != 4 {
			t.Fatalf("%d events by the delivery, %d in all, ending at %v; want 4, 4 at 150",
				before, s.EventCount(), end)
		}
	})
}

// TestMailboxSkipsFinishedWaits: Send hands a value to the first queued
// receiver whose token still waits, a killed receiver's included, and skips
// one that timed out.
func TestMailboxSkipsFinishedWaits(t *testing.T) {
	s := New()
	mb := NewMailbox(s)
	var timedOut bool
	var got any
	var at Time
	s.Spawn("timeout", func(p *Proc) { _, ok := mb.RecvTimeout(p, 5); timedOut = !ok })
	k := s.Spawn("killed", func(p *Proc) {
		mb.Recv(p)
		t.Error("killed receiver resumed")
	})
	s.Spawn("live", func(p *Proc) { got = mb.Recv(p); at = p.Now() })
	s.At(10, func() { s.Kill(k) })
	s.At(20, func() { mb.Send(1) })
	s.At(30, func() { mb.Send(2) })
	s.RunAll()
	if !timedOut || got != 2 || at != 30 || mb.Len() != 0 {
		t.Fatalf("timed out %v; live receiver got %v at %v; %d left; want true, 2 at 30, 0",
			timedOut, got, at, mb.Len())
	}
}

// TestAwaitWithoutWaiterPanics: Await needs a fresh token; one that was
// never taken or was already used is a model bug.
func TestAwaitWithoutWaiterPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func(p *Proc)
	}{
		{"never taken", func(p *Proc) { p.Await(-1) }},
		{"already used", func(p *Proc) {
			w := p.Waiter()
			w.Deliver(1)
			p.Await(-1)
			p.Await(-1)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New()
			s.Spawn("r", tc.fn)
			if err := runPanic(s); !strings.Contains(err, "without a fresh Waiter") {
				t.Fatalf("panic %q, want one for a missing Waiter", err)
			}
		})
	}
}

// runPanic runs s to the end and returns the message of the panic that
// surfaced from Run, or "" if none did.
func runPanic(s *Sim) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	s.RunAll()
	return ""
}
