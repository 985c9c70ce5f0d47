package sim

import (
	"fmt"
	"sort"
	"strings"
)

// event is one slot of the kernel's event pool. Slots are recycled through a
// free list; gen distinguishes incarnations of the same slot so that a held
// EventID for a fired or cancelled event can never act on the slot's next
// tenant (the classic ABA hazard of free-listed handles).
type event struct {
	t   Time
	seq uint64 // tie-breaker for determinism
	fn  func()
	gen uint32
	idx int32 // position in the heap; -1 when not queued (free or firing)
}

// noSlot terminates the free list. A free slot reuses its idx field as the
// link to the next free slot, so the pool needs no side table.
const noSlot = int32(-1)

// EventID identifies a scheduled event so it can be cancelled. It is a value
// (slot index + generation), not a pointer: holding an EventID after the
// event fired or was cancelled pins nothing, and cancelling it is a detected
// no-op even if the kernel has recycled the slot for a new event.
type EventID struct {
	slot int32
	gen  uint32
}

// eventHeap is a 4-ary implicit heap of pool slot indices ordered by
// (time, seq) of the referenced slots. A 4-ary layout does ~half the levels
// of a binary heap, and child scans stay within one cache line of int32s.
type eventHeap []int32

// Sim is a discrete-event simulation. The zero value is not usable; create
// one with New.
type Sim struct {
	now     Time
	seq     uint64
	pool    []event
	free    int32 // head of the free-slot list (linked through idx), noSlot if empty
	heap    eventHeap
	stopped bool

	horizon Time // end of the current run

	// Process bookkeeping (see proc.go).
	procs   map[*Proc]struct{}
	procSeq uint64 // next spawn-order number
	current *Proc  // process whose code is running; nil in kernel context
	caller  *Proc  // stands for the Run caller's goroutine; never spawned
	host    *Proc  // owner of the goroutine that holds the calendar
	next    *Proc  // goroutine the calendar passes to when the event returns
	failure any    // callback panic caught off the caller's goroutine, rethrown by Run

	// nEvents counts executed events and switches goroutine hand-offs,
	// for diagnostics.
	nEvents  uint64
	switches uint64

	// onDeadlock, when set, is invoked by run when the calendar empties
	// while live processes remain parked (see OnDeadlock).
	onDeadlock func(*DeadlockError)
}

// New returns an empty simulation positioned at time zero.
func New() *Sim {
	// The caller's channel is made here, never lazily: a lazily made one
	// could race with the first process goroutine handing the calendar back.
	caller := &Proc{name: "run caller", resume: make(chan struct{})}
	return &Sim{procs: make(map[*Proc]struct{}), free: noSlot, caller: caller, host: caller}
}

// Now returns the current simulated time.
func (s *Sim) Now() Time { return s.now }

// EventCount returns the number of events executed so far.
func (s *Sim) EventCount() uint64 { return s.nEvents }

// Pending returns the number of scheduled (not yet fired) events.
func (s *Sim) Pending() int { return len(s.heap) }

// alloc takes a slot off the free list, growing the pool if it is empty.
// Slot generations start at 1 so the zero EventID never matches a live slot.
func (s *Sim) alloc() int32 {
	if s.free != noSlot {
		slot := s.free
		s.free = s.pool[slot].idx
		return slot
	}
	s.pool = append(s.pool, event{gen: 1})
	return int32(len(s.pool) - 1)
}

// release returns a slot to the free list, clearing its callback (so the
// closure is collectible immediately) and bumping the generation (so every
// outstanding EventID for this slot goes stale).
func (s *Sim) release(slot int32) {
	e := &s.pool[slot]
	e.fn = nil
	e.gen++
	e.idx = s.free
	s.free = slot
}

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// that is always a model bug.
func (s *Sim) At(t Time, fn func()) EventID {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	slot := s.alloc()
	e := &s.pool[slot]
	e.t = t
	e.seq = s.seq
	e.fn = fn
	s.seq++
	s.heapPush(slot)
	return EventID{slot: slot, gen: e.gen}
}

// After schedules fn to run d after the current time. A negative d panics,
// and so does a delay large enough to wrap Time past its positive range —
// without the check the wrapped (negative) target time would surface as a
// misleading "scheduling event before now" panic.
func (s *Sim) After(d Time, fn func()) EventID {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	t := s.now + d
	if t < s.now {
		panic(fmt.Sprintf("sim: delay %d overflows simulated time (now %v)", int64(d), s.now))
	}
	return s.At(t, fn)
}

// Cancel cancels a scheduled event. Cancelling an already-fired or
// already-cancelled event — including one whose pool slot has since been
// recycled for a newer event — is a detected no-op: the generation tag in
// the EventID no longer matches the slot.
func (s *Sim) Cancel(id EventID) {
	if id.slot < 0 || int(id.slot) >= len(s.pool) {
		return
	}
	e := &s.pool[id.slot]
	if e.gen != id.gen || e.idx < 0 {
		return
	}
	s.heapRemove(e.idx)
	s.release(id.slot)
}

// Scheduled reports whether id refers to an event that is still pending
// (not fired, not cancelled, slot not recycled).
func (s *Sim) Scheduled(id EventID) bool {
	if id.slot < 0 || int(id.slot) >= len(s.pool) {
		return false
	}
	e := &s.pool[id.slot]
	return e.gen == id.gen && e.idx >= 0
}

// less orders two pool slots by (time, seq).
func (s *Sim) less(a, b int32) bool {
	ea, eb := &s.pool[a], &s.pool[b]
	if ea.t != eb.t {
		return ea.t < eb.t
	}
	return ea.seq < eb.seq
}

// heapPush appends slot and sifts it up.
func (s *Sim) heapPush(slot int32) {
	i := int32(len(s.heap))
	s.heap = append(s.heap, slot)
	s.pool[slot].idx = i
	s.siftUp(i)
}

// heapPopRoot removes and returns the root slot.
func (s *Sim) heapPopRoot() int32 {
	root := s.heap[0]
	s.pool[root].idx = -1
	last := len(s.heap) - 1
	if last > 0 {
		moved := s.heap[last]
		s.heap[0] = moved
		s.pool[moved].idx = 0
	}
	s.heap = s.heap[:last]
	if last > 1 {
		s.siftDown(0)
	}
	return root
}

// heapRemove removes the element at heap position i.
func (s *Sim) heapRemove(i int32) {
	last := int32(len(s.heap) - 1)
	victim := s.heap[i]
	s.pool[victim].idx = -1
	if i != last {
		moved := s.heap[last]
		s.heap[i] = moved
		s.pool[moved].idx = i
		s.heap = s.heap[:last]
		// The moved element may need to travel either direction.
		s.siftDown(i)
		if s.heap[i] == moved {
			s.siftUp(i)
		}
	} else {
		s.heap = s.heap[:last]
	}
}

// siftUp restores the heap property from position i toward the root.
func (s *Sim) siftUp(i int32) {
	slot := s.heap[i]
	for i > 0 {
		parent := (i - 1) >> 2
		p := s.heap[parent]
		if !s.less(slot, p) {
			break
		}
		s.heap[i] = p
		s.pool[p].idx = i
		i = parent
	}
	s.heap[i] = slot
	s.pool[slot].idx = i
}

// siftDown restores the heap property from position i toward the leaves.
func (s *Sim) siftDown(i int32) {
	n := int32(len(s.heap))
	slot := s.heap[i]
	for {
		first := i<<2 + 1 // leftmost child
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if s.less(s.heap[c], s.heap[best]) {
				best = c
			}
		}
		b := s.heap[best]
		if !s.less(b, slot) {
			break
		}
		s.heap[i] = b
		s.pool[b].idx = i
		i = best
	}
	s.heap[i] = slot
	s.pool[slot].idx = i
}

// Stop makes Run return after the currently executing event completes.
func (s *Sim) Stop() { s.stopped = true }

// DeadlockError describes a wedged simulation: the event calendar emptied
// while processes were still parked, so no future event can ever wake them.
type DeadlockError struct {
	At    Time     // simulated time at which the calendar emptied
	Procs []string // names of the blocked processes, sorted
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v: %d process(es) blocked with empty calendar: %s",
		e.At, len(e.Procs), strings.Join(e.Procs, ", "))
}

// OnDeadlock installs a watchdog handler. When the event calendar runs dry
// while live processes remain parked — a state in which the simulation would
// otherwise silently end with work wedged mid-protocol — run calls fn with
// the blocked process names before returning. The handler is opt-in because
// some models legitimately leave helper processes parked at the end of a
// bounded run; long-running cluster models should install it so a protocol
// stall becomes a diagnosable failure rather than a hang or truncated run.
func (s *Sim) OnDeadlock(fn func(*DeadlockError)) { s.onDeadlock = fn }

// BlockedProcs returns the sorted names of live processes that have started
// and are currently parked awaiting a wake.
func (s *Sim) BlockedProcs() []string {
	var names []string
	for p := range s.procs {
		if p.started && !p.done {
			names = append(names, p.name)
		}
	}
	sort.Strings(names)
	return names
}

// Run executes events in time order until the calendar is empty, the
// horizon is passed, or Stop is called. It returns the time of the last
// executed event (or the horizon if it was reached). Run must not be called
// from inside a process. A panic in an event callback surfaces from Run on
// the caller's goroutine, whichever goroutine ran the callback.
func (s *Sim) Run(horizon Time) Time {
	return s.run(horizon, true)
}

// RunAll executes events until the calendar is empty or Stop is called,
// leaving the clock at the last executed event.
func (s *Sim) RunAll() Time {
	const forever = Time(1) << 62
	return s.run(forever, false)
}

func (s *Sim) run(horizon Time, advance bool) Time {
	if s.host != s.caller {
		panic("sim: Run called from inside a process")
	}
	s.stopped = false
	s.horizon = horizon
	s.drive(s.caller)
	if r := s.failure; r != nil {
		s.failure = nil
		panic(r)
	}
	if s.stopped {
		return s.now
	}
	if len(s.heap) > 0 {
		// The next event lies beyond the horizon.
		s.now = horizon
		return s.now
	}
	if s.onDeadlock != nil && len(s.procs) > 0 {
		if names := s.BlockedProcs(); len(names) > 0 {
			s.onDeadlock(&DeadlockError{At: s.now, Procs: names})
		}
	}
	if advance && s.now < horizon {
		s.now = horizon
	}
	return s.now
}

// drive runs the calendar on the calling goroutine, which belongs to self
// (s.caller on the Run caller's goroutine). It returns once self is to
// resume: woken or killed, or for s.caller, the run is over. If the event
// that ends a step names another goroutine, drive hands the calendar to it
// and waits for its own turn. A dead self (a finished or killed process
// whose goroutine still holds the calendar) returns instead, leaving s.next
// set for the dying goroutine to pass on.
func (s *Sim) drive(self *Proc) {
	if self != s.caller {
		defer s.catch(self)
	}
	for {
		if to := s.next; to != nil {
			if to == self {
				s.next = nil
				return
			}
			if self.done {
				return
			}
			s.handOff(self)
			return
		}
		if len(s.heap) == 0 || s.stopped || s.pool[s.heap[0]].t > s.horizon {
			s.next = s.caller
			continue
		}
		slot := s.heapPopRoot()
		e := &s.pool[slot]
		s.now = e.t
		s.nEvents++
		fn := e.fn
		// Recycle the slot before invoking the callback: the hot pattern of
		// an event rescheduling its successor reuses the just-freed slot, so
		// the steady-state calendar footprint is exactly the peak population.
		s.release(slot)
		fn()
	}
}

// catch recovers a panic raised by an event callback on a process goroutine
// and hands it, with the calendar, to the Run caller, which rethrows it. A
// live self then waits here for its turn, as drive would have.
func (s *Sim) catch(self *Proc) {
	r := recover()
	if r == nil {
		return
	}
	s.failure = r
	s.next = s.caller
	if !self.done {
		s.handOff(self)
	}
}
