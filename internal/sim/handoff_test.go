package sim

import (
	"runtime"
	"sync"
	"testing"
)

// TestSwitchesLoneSleeper: a lone process's own coroutine runs the calendar
// while it sleeps, so its wakes cost no switch. The only
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
// exactly one hand-off per wake.
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
// parked process's coroutine runs the calendar surfaces from Run, and the
// simulation stays usable.
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
// coroutine kills it. The victim is Done and off LiveProcs at once; its
// coroutine unwinds (running its defers) when it passes the calendar on and
// before any other coroutine runs; later events still fire.
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
// coroutine other than the one running the callback unwinds it inside Kill.
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
// returns hands the calendar to the child, whose coroutine starts.
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

// TestProcPanicSurfacesFromRun: a panic in process code reaches the Run
// caller through the coroutine's resume, naming the process and the time.
// The process is dead, and the simulation stays usable.
func TestProcPanicSurfacesFromRun(t *testing.T) {
	s := New()
	s.Spawn("buggy", func(p *Proc) {
		p.Sleep(5)
		panic("boom")
	})
	bystander := s.Spawn("bystander", func(p *Proc) { p.Sleep(10) })
	got := func() (r any) {
		defer func() { r = recover() }()
		s.RunAll()
		return nil
	}()
	msg, _ := got.(string)
	if want := `sim: process "buggy" panicked at 5ns: boom`; msg != want {
		t.Fatalf("Run caller recovered %v, want %q", got, want)
	}
	if s.LiveProcs() != 1 {
		t.Fatalf("LiveProcs = %d after the panic, want 1 (the bystander)", s.LiveProcs())
	}
	s.RunAll()
	if !bystander.Done() || s.Now() != 10 {
		t.Fatalf("bystander done=%v at %v, want done at 10ns", bystander.Done(), s.Now())
	}
}

// TestCoroutinesReused: a finished or killed process leaves its coroutine
// idle in the shared pool instead of ending it, and a later start resumes
// it, so a second run of the same model makes no goroutine. The count may
// still fall as an earlier test's exiting goroutine goes, never rise.
func TestCoroutinesReused(t *testing.T) {
	const parked = 50
	run := func() (during int) {
		s := New()
		mb := NewMailbox(s)
		for i := 0; i < parked; i++ {
			s.Spawn("waiter", func(p *Proc) { mb.Recv(p) })
		}
		s.Spawn("finisher", func(p *Proc) { p.Sleep(1) })
		s.RunAll()
		s.Spawn("never-started", func(p *Proc) {})
		during = runtime.NumGoroutine()
		s.Shutdown()
		return during
	}
	run()
	before := runtime.NumGoroutine()
	idleCoros.Lock()
	idle := len(idleCoros.free)
	idleCoros.Unlock()
	if idle < parked+1 {
		t.Fatalf("%d idle coroutines after Shutdown, want at least %d", idle, parked+1)
	}
	if during := run(); during > before {
		t.Fatalf("%d goroutines with %d processes parked, %d before: the run made new coroutines",
			during, parked, before)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines after Shutdown, %d before", after, before)
	}
}

// TestCoroutinePoolAcrossGoroutines: Sims on different goroutines, as in a
// parallel sweep, share the coroutine pool, which processes that finish,
// are killed or are shut down return coroutines to; each Sim still repeats
// its own sum, events and switches exactly.
func TestCoroutinePoolAcrossGoroutines(t *testing.T) {
	model := func() [3]uint64 {
		s := New()
		ping, pong := NewMailbox(s), NewMailbox(s)
		var sum uint64
		for i := 0; i < 20; i++ {
			s.Spawn("a", func(p *Proc) {
				for j := 0; j < 20; j++ {
					pong.Send(j)
					sum += uint64(ping.Recv(p).(int))
				}
			})
			s.Spawn("b", func(p *Proc) {
				for j := 0; j < 20; j++ {
					ping.Send(pong.Recv(p).(int) * 2)
				}
			})
			s.Spawn("short", func(p *Proc) { p.Sleep(Time(i)) })
		}
		victim := s.Spawn("victim", func(p *Proc) { p.Sleep(Second) })
		s.At(50, func() { s.Kill(victim) })
		s.Spawn("parked", func(p *Proc) { NewMailbox(s).Recv(p) })
		s.RunAll()
		s.Shutdown()
		return [3]uint64{sum, s.EventCount(), s.Switches()}
	}
	want := model()
	const workers = 4
	var wg sync.WaitGroup
	got := make([][3]uint64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 5; r++ {
				if got[w] = model(); got[w] != want {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, g := range got {
		if g != want {
			t.Fatalf("worker %d: (sum, events, switches) = %v, want %v", w, g, want)
		}
	}
}

// TestKilledProcDeferPanic: a deferred function that panics while Kill
// unwinds its process surfaces from the Kill caller, here Shutdown, and the
// simulation stays usable: a later Run still fires the pending events.
func TestKilledProcDeferPanic(t *testing.T) {
	s := New()
	s.Spawn("victim", func(p *Proc) {
		defer func() { panic("cleanup failed") }()
		p.Sleep(Second)
	})
	s.Run(5)
	var fired []Time
	s.At(7, func() { fired = append(fired, s.Now()) })
	s.At(9, func() { fired = append(fired, s.Now()) })
	got := func() (r any) {
		defer func() { r = recover() }()
		s.Shutdown()
		return nil
	}()
	msg, _ := got.(string)
	if want := `sim: process "victim" panicked at 5ns: cleanup failed`; msg != want {
		t.Fatalf("Shutdown caller recovered %v, want %q", got, want)
	}
	if s.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d after the kill, want 0", s.LiveProcs())
	}
	s.Run(10)
	if len(fired) != 2 || fired[0] != 7 || fired[1] != 9 {
		t.Fatalf("pending events fired at %v, want [7 9]", fired)
	}
}

// TestKilledHostDeferPanic: a callback kills the process whose coroutine
// runs it, and the victim's deferred function panics as the coroutine hands
// the calendar back at the horizon. The panic surfaces from Run, and the
// next Run still fires the events it reaches.
func TestKilledHostDeferPanic(t *testing.T) {
	s := New()
	host := s.Spawn("host", func(p *Proc) {
		defer func() { panic("cleanup failed") }()
		p.Sleep(Second)
	})
	var onHost bool
	s.At(5, func() {
		onHost = s.host == host
		s.Kill(host)
	})
	var fired []Time
	for _, at := range []Time{7, 12} {
		s.At(at, func() { fired = append(fired, s.Now()) })
	}
	got := func() (r any) {
		defer func() { r = recover() }()
		s.Run(10)
		return nil
	}()
	if !onHost {
		t.Fatal("kill did not run on the host's coroutine; test setup is broken")
	}
	msg, _ := got.(string)
	if want := `sim: process "host" panicked at 7ns: cleanup failed`; msg != want {
		t.Fatalf("Run caller recovered %v, want %q", got, want)
	}
	s.Run(15)
	if len(fired) != 2 || fired[0] != 7 || fired[1] != 12 || s.Now() != 15 {
		t.Fatalf("events fired at %v, clock at %v; want [7 12] and 15ns", fired, s.Now())
	}
}
