package sim

import (
	"fmt"
	"sort"
)

// killPanic is the panic value that unwinds a killed process through its
// own code, running its deferred functions.
type killPanic struct{}

// Proc is a simulated process: a Go function running on its own goroutine.
// Exactly one goroutine runs at any instant, so process code needs no
// locking and the simulation stays deterministic.
//
// The calendar travels with the running goroutine. A process that blocks
// does not hand control back to the Run caller: its goroutine goes on firing
// events itself until one of them wakes some process. Waking the process
// that owns that goroutine is a plain return from the block (no goroutine
// switch); waking any other process hands the calendar straight to that
// process's goroutine (one switch). The Run caller is handed the calendar
// back only when the run ends. Sim.Switches counts the hand-offs.
//
// All Proc methods must be called from the process's own function.
type Proc struct {
	sim     *Sim
	name    string
	seq     uint64      // spawn order; fixes iteration order over proc sets
	fn      func(*Proc) // body awaiting its goroutine; nil once that goroutine exists
	resume  chan struct{}
	val     any  // value delivered by the pending wake
	started bool // start event has fired
	done    bool
	span    any
	wakeFn  func() // prebuilt wake(nil) continuation, so Sleep never allocates
}

// Name returns the process name given at Spawn time.
func (p *Proc) Name() string { return p.name }

// Seq returns the spawn-order number, usable as a deterministic sort key
// when a set of processes must be torn down in a reproducible order.
func (p *Proc) Seq() uint64 { return p.seq }

// Sim returns the simulation this process belongs to.
func (p *Proc) Sim() *Sim { return p.sim }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.sim.now }

// Done reports whether the process function has returned or the process
// has been killed.
func (p *Proc) Done() bool { return p.done }

// SetSpan attaches an opaque trace context to the process (nil detaches).
// The kernel never inspects it; instrumented model code reads it back via
// Span so a transaction's span can ride along the worker executing it.
func (p *Proc) SetSpan(v any) { p.span = v }

// Span returns the trace context attached with SetSpan, or nil. The nil
// check is the entire cost of disabled tracing on instrumented paths.
func (p *Proc) Span() any { return p.span }

// Spawn creates a process that will start (via the event calendar) at the
// current simulated time. fn runs until it returns, blocks on a kernel
// primitive, or the process is killed.
func (s *Sim) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{sim: s, name: name, seq: s.procSeq, fn: fn, resume: make(chan struct{})}
	p.wakeFn = func() { p.wake(nil) }
	s.procSeq++
	s.procs[p] = struct{}{}
	s.After(0, p.start)
	return p
}

// start is the process's start event: when it returns, the calendar passes
// to a fresh goroutine running the process function.
func (p *Proc) start() {
	if p.done {
		return // killed before its start event fired
	}
	p.started = true
	p.sim.next = p
}

// body runs on the process's own goroutine. When fn returns or the process
// is killed, the goroutine still holds the calendar: it fires events until
// the calendar must go to another goroutine, passes it on and exits. The
// tail runs deferred so that runtime.Goexit in process code (a test's
// t.FailNow) also passes the calendar on.
func (p *Proc) body(fn func(*Proc)) {
	s := p.sim
	defer func() {
		r := recover()
		if _, killed := r.(killPanic); r != nil && !killed {
			// A real model bug: crash loudly with context.
			panic(fmt.Sprintf("sim: process %q panicked at %v: %v", p.name, s.now, r))
		}
		if !p.done {
			p.finish()
		}
		s.current = nil
		s.drive(p)
		s.pass()
	}()
	s.current = p
	fn(p)
}

// finish marks the process done and drops it from the live set.
func (p *Proc) finish() {
	p.done = true
	delete(p.sim.procs, p)
}

// handOff passes the calendar on and blocks until self's goroutine is
// handed it back.
func (s *Sim) handOff(self *Proc) {
	s.pass()
	<-self.resume
}

// pass hands the calendar to the goroutine of s.next, starting that
// goroutine if its process has none yet. It does not wait: the calling
// goroutine must touch nothing afterwards but its own resume channel, or
// exit.
func (s *Sim) pass() {
	to := s.next
	s.next = nil
	s.host = to
	s.switches++
	if fn := to.fn; fn != nil {
		to.fn = nil
		go to.body(fn)
		return
	}
	to.resume <- struct{}{}
}

// park blocks the process until some event calls wake, and returns the value
// passed to wake. Meanwhile the process's goroutine runs the calendar.
func (p *Proc) park() any {
	s := p.sim
	if s.current != p {
		panic(fmt.Sprintf("sim: process %q parking while not current", p.name))
	}
	s.current = nil
	s.drive(p)
	if p.done {
		panic(killPanic{}) // killed while parked
	}
	s.current = p
	v := p.val
	p.val = nil
	return v
}

// wake resumes a parked process, handing it val. It must be called from
// kernel context (inside an event, never from another process) and must be
// the last action of its event: it only names the process to run next, and
// the hand-off to that process's goroutine happens when the event returns.
// Primitives ensure this by scheduling each wake as an event of its own
// (Sleep's wakeFn, the closures in Resource.Release and Mailbox.dispatch,
// the mailbox timer).
func (p *Proc) wake(val any) {
	s := p.sim
	if s.current != nil {
		panic("sim: wake from non-kernel context")
	}
	if p.done {
		return
	}
	if s.next != nil {
		panic("sim: two wakes in one event")
	}
	p.val = val
	s.next = p
}

// Sleep suspends the process for d of simulated time.
func (p *Proc) Sleep(d Time) {
	p.sim.After(d, p.wakeFn)
	p.park()
}

// SleepUntil suspends the process until absolute time t (no-op if t is in
// the past). It schedules through At directly, so a target time beyond the
// Time range is reported by At's own check rather than a wrapped delay.
func (p *Proc) SleepUntil(t Time) {
	if t <= p.sim.now {
		return
	}
	p.sim.At(t, p.wakeFn)
	p.park()
}

// Yield reschedules the process at the current time, letting other pending
// events at this instant run first.
func (p *Proc) Yield() { p.Sleep(0) }

// LiveProcs returns the number of processes that have started or are
// scheduled and have not finished.
func (s *Sim) LiveProcs() int { return len(s.procs) }

// Switches returns the number of goroutine hand-offs so far: one per process
// start, per wake of a process other than the one whose goroutine runs the
// calendar, and per return of the calendar to the Run caller; two per Kill
// of a process parked on another goroutine. It depends only on the event
// sequence, so it repeats exactly for a given seed.
func (s *Sim) Switches() uint64 { return s.switches }

// Shutdown kills every live process in spawn order, as Kill does. It must
// not be called from inside a process; it is typically called after Run
// returns, when every parked process unwinds at once.
func (s *Sim) Shutdown() {
	if s.current != nil {
		panic("sim: Shutdown called from inside a process")
	}
	// Kill until no live procs remain. A dying process's defers could in
	// principle spawn more work; loop defensively. Victims die in spawn
	// order, not map order: a defer that touches shared state must observe
	// the same unwind sequence in every run.
	for len(s.procs) > 0 {
		var victims []*Proc
		for p := range s.procs {
			victims = append(victims, p)
		}
		sort.Slice(victims, func(i, j int) bool { return victims[i].seq < victims[j].seq })
		for _, p := range victims {
			s.Kill(p)
		}
	}
}

// Kill terminates a single process. Killing a finished process is a no-op,
// and a process whose start event has not fired is marked dead so the event
// no-ops. Kill must be called from kernel context (inside an event callback,
// or by the Run caller between runs) — model code kills processes from
// fault-activation events.
//
// The victim is Done and off LiveProcs at once. When it is parked on a
// goroutine of its own, that goroutine unwinds now, running the victim's
// deferred functions, and hands the calendar straight back. When the
// callback calling Kill runs on the victim's own goroutine (the victim is
// parked, but its goroutine is running the calendar), the goroutine unwinds
// later: when it next passes the calendar on, and before any other goroutine
// runs.
func (s *Sim) Kill(p *Proc) {
	if s.current != nil {
		panic("sim: Kill called from inside a process")
	}
	if p.done {
		return
	}
	p.finish()
	if !p.started || p == s.host {
		return
	}
	self := s.host
	s.next = self // the victim hands the calendar straight back once unwound
	s.host = p
	s.switches++
	p.resume <- struct{}{}
	<-self.resume
}
