//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"sort"
	"sync"
)

// killPanic is the panic value that unwinds a killed process through its
// own code, running its deferred functions.
type killPanic struct{}

// Proc is a simulated process: a Go function running on an iter.Pull
// coroutine. Exactly one coroutine runs at any instant, so process code
// needs no locking and the simulation stays deterministic.
//
// The calendar travels with the running coroutine. A process that blocks
// does not hand control back to the Run caller: its coroutine goes on firing
// events itself until one of them wakes some process. Waking the process
// that owns that coroutine is a plain return from the block (no switch);
// waking any other process yields to the Run caller, which resumes the woken
// process's coroutine (one hand-off). The Run caller keeps the calendar for
// itself only when the run ends. Sim.Switches counts the hand-offs.
//
// All Proc methods must be called from the process's own function.
type Proc struct {
	sim       *Sim
	name      string
	seq       uint64      // spawn order; fixes iteration order over proc sets
	fn        func(*Proc) // the process function
	co        *coro       // coroutine running the process; set by the start event
	done      bool
	span      any
	wakeFn    func() // prebuilt wake continuation: Sleep, Resource hand-overs and deliveries never allocate
	timeoutFn func() // prebuilt Await timeout, made by the first wait with one
	wait      waitSlot
}

// waitSlot is the process's one wait for a value, behind its Waiter tokens
// and Await.
type waitSlot struct {
	gen    uint32 // generation of the newest token
	state  waitState
	parked bool    // in Await
	timer  EventID // Await's latest timeout; stale once it fires or is cancelled
	val    any     // the delivered value, until Await takes it
}

type waitState uint8

const (
	waitIdle  waitState = iota // no fresh token: Await panics, deliveries are no-ops
	waitArmed                  // the newest token awaits its value
	waitFull                   // the newest token holds its value
)

// coro is a process coroutine. It outlives the processes it runs: when one
// finishes or is killed, the coroutine goes idle in a pool shared by every
// Sim, and a later start resumes it to run the next process, so the number
// of coroutines ever made is the peak number of live processes. A fresh
// coroutine per process would cost a goroutine start and exit each, and
// with Go 1.24.0's race detector every exit leaks the goroutine's race
// context (runtime.coroexit skips racegoend).
type coro struct {
	resume func() (struct{}, bool) // iter.Pull's next: runs the coroutine until it yields
	yield  func(struct{}) bool     // suspends the coroutine, back to its resumer
	proc   *Proc                   // process it runs; nil while idle
}

// idleCoros holds the idle coroutines. Sims on different goroutines share
// it (a parallel sweep runs one Sim per worker), hence the mutex.
var idleCoros struct {
	sync.Mutex
	free []*coro
}

// getCoro takes an idle coroutine, or makes one if none is idle.
func getCoro() *coro {
	idleCoros.Lock()
	if n := len(idleCoros.free); n > 0 {
		c := idleCoros.free[n-1]
		idleCoros.free[n-1] = nil
		idleCoros.free = idleCoros.free[:n-1]
		idleCoros.Unlock()
		return c
	}
	idleCoros.Unlock()
	c := &coro{}
	c.resume, _ = iter.Pull(c.loop) // never stopped: an idle coroutine waits for its next process
	return c
}

// run resumes the coroutine until it yields: its process parked and handed
// the calendar on, or it finished and left the coroutine idle, which goes
// back to the pool. A panic in process code ends the coroutine and
// propagates from here.
func (c *coro) run() {
	c.resume()
	if c.proc == nil {
		idleCoros.Lock()
		idleCoros.free = append(idleCoros.free, c)
		idleCoros.Unlock()
	}
}

// loop is the coroutine's function: it runs one process after another,
// yielding to its resumer when a process hands the calendar on and when one
// finishes.
func (c *coro) loop(yield func(struct{}) bool) {
	c.yield = yield
	for {
		c.proc.body()
		c.proc.co, c.proc = nil, nil
		yield(struct{}{})
	}
}

// Name returns the process name given at Spawn time.
func (p *Proc) Name() string { return p.name }

// Seq returns the spawn-order number, usable as a deterministic sort key
// when a set of processes must be torn down in a reproducible order.
func (p *Proc) Seq() uint64 { return p.seq }

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
	p := &Proc{sim: s, name: name, seq: s.procSeq, fn: fn}
	p.wakeFn = p.wake
	s.procSeq++
	s.procs[p] = struct{}{}
	s.After(0, p.start)
	return p
}

// start is the process's start event: it gives the process a coroutine, and
// when the event returns the calendar passes to it. The coroutine's next
// resume runs the process function.
func (p *Proc) start() {
	if p.done {
		return // killed before its start event fired
	}
	p.co = getCoro()
	p.co.proc = p
	p.sim.next = p
}

// body runs the process on its coroutine. When fn returns or the process is
// killed, the coroutine still holds the calendar: it fires events until the
// calendar must go to another process, then returns, and the coroutine goes
// idle. The tail is deferred: a killed process reaches it by unwinding.
func (p *Proc) body() {
	s := p.sim
	defer func() {
		r := recover()
		if _, killed := r.(killPanic); r != nil && !killed {
			// A real model bug: it ends the coroutine and reaches the Run
			// caller through the coroutine's resume, with context. The
			// process is dead; the calendar goes back to the Run caller
			// with it.
			// A killed process's deferred function can panic while its
			// coroutine passes the calendar on; a pass back to the Run
			// caller is dropped, so the next Run resumes the calendar.
			p.finish()
			s.current, s.host = nil, s.caller
			if s.next == s.caller {
				s.next = nil
			}
			panic(fmt.Sprintf("sim: process %q panicked at %v: %v", p.name, s.now, r))
		}
		if !p.done {
			p.finish()
		}
		s.current = nil
		s.drive(p)
		s.switches++
	}()
	s.current = p
	p.fn(p)
}

// finish marks the process done and drops it from the live set.
func (p *Proc) finish() {
	p.done = true
	delete(p.sim.procs, p)
}

// handOff passes the calendar to s.next and returns once self is handed it
// back. A process yields to the Run caller. The Run caller is the
// trampoline: it resumes one coroutine after another, each running until it
// yields, until the calendar comes back to the Run caller.
func (s *Sim) handOff(self *Proc) {
	s.switches++
	if self != s.caller {
		self.co.yield(struct{}{})
		return
	}
	for to := s.next; to != s.caller; to = s.next {
		s.next = nil
		s.host = to
		to.co.run()
	}
	s.next = nil
	s.host = s.caller
}

// park blocks the process until some event calls wake. Meanwhile the
// process's coroutine runs the calendar.
func (p *Proc) park() {
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
}

// wake resumes a parked process. It must be called from kernel context
// (inside an event, never from another process) and must be the last action
// of its event: it only names the process to run next, and the hand-off to
// that process's coroutine happens when the event returns. Primitives ensure
// this by scheduling each wake as an event of its own (the wakeFn that
// Sleep, Resource.Release and Waiter.Deliver schedule, Await's timeout).
func (p *Proc) wake() {
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
	s.next = p
}

// Waiter is a token for one value its process will Await: a lock grant, an
// I/O completion, a reply. The process takes it before the request leaves.
// Like an EventID it carries a generation: a newer Waiter call supersedes
// it, and a delivery to a superseded token or to the zero Waiter is a no-op.
type Waiter struct {
	p   *Proc
	gen uint32
}

// Waiter hands out a fresh token for the process's next Await.
func (p *Proc) Waiter() Waiter {
	w := &p.wait
	w.gen++
	w.state, w.val = waitArmed, nil
	return Waiter{p, w.gen}
}

// waiting reports whether w is its process's newest token and lacks its
// value. A killed process's token stays current.
func (w Waiter) waiting() bool {
	return w.p != nil && w.gen == w.p.wait.gen && w.p.wait.state == waitArmed
}

// Deliver fills a waiting token with v; to any other token it is a no-op.
// If the process is parked in Await, its timeout is cancelled and its wake
// scheduled for now; otherwise the value waits for Await.
func (w Waiter) Deliver(v any) {
	if !w.waiting() {
		return
	}
	slot := &w.p.wait
	slot.val, slot.state = v, waitFull
	if slot.parked {
		w.p.sim.Cancel(slot.timer) // a no-op on a fired or stale timer
		w.p.sim.After(0, w.p.wakeFn)
	}
}

// Await returns the value delivered to the process's newest Waiter, parking
// until it comes; a value already there costs no park and no event. A d of
// zero or more bounds the wait: ok is false when d elapses first. Await
// panics if the process holds no fresh Waiter.
func (p *Proc) Await(d Time) (v any, ok bool) {
	w := &p.wait
	if w.state == waitIdle {
		panic(fmt.Sprintf("sim: process %q awaits without a fresh Waiter", p.name))
	}
	if w.state == waitArmed {
		if d >= 0 {
			if p.timeoutFn == nil {
				p.timeoutFn = p.timeout
			}
			w.timer = p.sim.After(d, p.timeoutFn)
		}
		w.parked = true
		p.park()
		w.parked = false
	}
	v, ok = w.val, w.state == waitFull
	w.state, w.val = waitIdle, nil
	return v, ok
}

// timeout is Await's timer event. A delivery cancels it, so it ends a wait
// that is still armed.
func (p *Proc) timeout() {
	p.wait.state = waitIdle
	p.wake()
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

// Switches returns the number of coroutine hand-offs so far: one per process
// start, per wake of a process other than the one whose coroutine runs the
// calendar, and per return of the calendar to the Run caller; two per Kill
// of a process parked on a coroutine of its own. A hand-off between two
// processes passes through the Run caller's trampoline and counts once. The
// count depends only on the event sequence, so it repeats exactly for a
// given seed.
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
// coroutine of its own, Kill resumes that coroutine: the victim unwinds
// now, running its deferred functions, its coroutine goes idle, and control
// comes straight back. When the callback calling Kill runs on the victim's
// own coroutine (the victim is parked, but its coroutine is running the
// calendar), the coroutine unwinds later: when it next passes the calendar
// on, and before any other coroutine runs.
func (s *Sim) Kill(p *Proc) {
	if s.current != nil {
		panic("sim: Kill called from inside a process")
	}
	if p.done {
		return
	}
	p.finish()
	if p.co == nil || p == s.host {
		return
	}
	self := s.host
	s.next = self // the victim's coroutine must not run the calendar as it unwinds
	s.host = p
	s.switches++
	// Restored even if a deferred function of the victim panics, so that
	// the panic leaves a usable simulation behind.
	defer func() { s.next, s.host = nil, self }()
	p.co.run()
}
