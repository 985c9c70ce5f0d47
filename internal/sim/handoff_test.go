package sim

import "testing"

// TestSwitchesLoneSleeper: a lone process's own goroutine runs the calendar
// while it sleeps, so its wakes cost no goroutine switch. The only
// hand-offs are its start and the calendar's return to the Run caller.
func TestSwitchesLoneSleeper(t *testing.T) {
	s := New()
	s.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			p.Sleep(Millisecond)
		}
	})
	var mid uint64
	s.At(500*Millisecond+1, func() { mid = s.Switches() })
	s.RunAll()
	if mid != 1 {
		t.Fatalf("switches mid-run = %d, want 1 (the start only)", mid)
	}
	if got := s.Switches(); got != 2 {
		t.Fatalf("switches = %d, want 2 (start, return to the Run caller)", got)
	}
}

// TestSwitchesPingPong: two processes that wake each other in turn pay
// exactly one goroutine switch per wake.
func TestSwitchesPingPong(t *testing.T) {
	s := New()
	ping, pong := NewMailbox(s), NewMailbox(s)
	wakes := 0
	recv := func(p *Proc, mb *Mailbox) {
		if mb.Len() == 0 {
			wakes++ // this Recv blocks and needs a wake
		}
		mb.Recv(p)
	}
	const rounds = 100
	s.Spawn("a", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			pong.Send(i)
			recv(p, ping)
		}
	})
	s.Spawn("b", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			recv(p, pong)
			ping.Send(i)
		}
	})
	s.RunAll()
	if wakes < 2*rounds-1 {
		t.Fatalf("only %d blocking receives; the processes did not alternate", wakes)
	}
	// Two starts, one switch per wake, and the return to the Run caller.
	if got, want := s.Switches(), uint64(wakes)+3; got != want {
		t.Fatalf("switches = %d, want %d (%d wakes)", got, want, wakes)
	}
}

// TestCallbackPanicOnProcGoroutine: an event callback that panics while a
// parked process's goroutine runs the calendar surfaces from Run on the
// caller's goroutine, and the simulation stays usable.
func TestCallbackPanicOnProcGoroutine(t *testing.T) {
	s := New()
	sleeper := s.Spawn("sleeper", func(p *Proc) { p.Sleep(10) })
	var onProc bool
	s.At(5, func() {
		onProc = s.host == sleeper
		panic("boom")
	})
	got := func() (r any) {
		defer func() { r = recover() }()
		s.RunAll()
		return nil
	}()
	if !onProc {
		t.Fatal("callback did not run on the sleeper's goroutine; test setup is broken")
	}
	if got != "boom" {
		t.Fatalf("Run caller recovered %v, want boom", got)
	}
	s.RunAll()
	if !sleeper.Done() || s.LiveProcs() != 0 {
		t.Fatalf("sleeper did not finish after the panic (live %d)", s.LiveProcs())
	}
	if s.Now() != 10 {
		t.Fatalf("clock at %v, want 10", s.Now())
	}
}

// TestKillFromVictimsOwnGoroutine: a callback running on the victim's own
// goroutine kills it. The victim is Done and off LiveProcs at once; its
// goroutine unwinds (running its defers) when it passes the calendar on and
// before any other goroutine runs; later events still fire.
func TestKillFromVictimsOwnGoroutine(t *testing.T) {
	s := New()
	cleaned, reached := false, false
	s.Spawn("other", func(p *Proc) {
		p.Sleep(8)
		if !cleaned {
			t.Error("another goroutine ran before the killed victim unwound")
		}
	})
	victim := s.Spawn("victim", func(p *Proc) {
		defer func() { cleaned = true }()
		p.Sleep(Second)
		reached = true
	})
	var fired []Time
	var onVictim bool
	s.At(5, func() {
		onVictim = s.host == victim
		s.Kill(victim)
		if !victim.Done() {
			t.Error("victim not Done right after Kill")
		}
		if s.LiveProcs() != 1 {
			t.Errorf("LiveProcs = %d right after Kill, want 1", s.LiveProcs())
		}
	})
	s.At(6, func() { fired = append(fired, s.Now()) })
	s.At(7, func() { fired = append(fired, s.Now()) })
	s.RunAll()
	if !onVictim {
		t.Fatal("callback not on the victim's goroutine; test setup is broken")
	}
	if !cleaned {
		t.Fatal("victim's deferred function had not run when Run returned")
	}
	if reached {
		t.Fatal("killed victim ran past its park point")
	}
	if len(fired) != 2 || fired[0] != 6 || fired[1] != 7 {
		t.Fatalf("events after the kill fired at %v, want [6 7]", fired)
	}
	if s.LiveProcs() != 0 {
		t.Fatalf("%d live procs at the end", s.LiveProcs())
	}
}

// TestKillParkedElsewhereUnwindsAtOnce: killing a process parked on a
// goroutine other than the one running the callback unwinds it inside Kill.
func TestKillParkedElsewhereUnwindsAtOnce(t *testing.T) {
	s := New()
	cleaned := false
	victim := s.Spawn("victim", func(p *Proc) {
		defer func() { cleaned = true }()
		p.Sleep(Second)
	})
	s.Spawn("killer", func(p *Proc) { p.Sleep(Second) })
	var onVictim bool
	s.At(5, func() {
		onVictim = s.host == victim
		before := s.Switches()
		s.Kill(victim)
		if !cleaned {
			t.Error("victim's deferred function did not run inside Kill")
		}
		if d := s.Switches() - before; d != 2 {
			t.Errorf("kill cost %d switches, want 2 (there and back)", d)
		}
	})
	s.RunAll()
	if onVictim {
		t.Fatal("callback on the victim's goroutine; test setup is broken")
	}
	if s.LiveProcs() != 0 {
		t.Fatalf("%d live procs at the end", s.LiveProcs())
	}
}

// TestProcReturnStartsSpawnedChild: a process that spawns a child and
// returns exits by starting the child's goroutine.
func TestProcReturnStartsSpawnedChild(t *testing.T) {
	s := New()
	var order []string
	s.Spawn("parent", func(p *Proc) {
		s.Spawn("child", func(c *Proc) {
			order = append(order, "child")
			c.Sleep(1)
			order = append(order, "child-done")
		})
		order = append(order, "parent-done")
	})
	s.RunAll()
	want := []string{"parent-done", "child", "child-done"}
	if len(order) != len(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
	// Parent start, parent → child as the parent exits, return to the caller.
	if got := s.Switches(); got != 3 {
		t.Fatalf("switches = %d, want 3", got)
	}
}
