package sim

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
)

// event is one slot of the kernel's event pool. Slots are recycled through a
// free list; gen distinguishes incarnations of the same slot so that a held
// EventID for a fired or cancelled event can never act on the slot's next
// tenant (the classic ABA hazard of free-listed handles). The event's time
// and sequence number live in its bucket entry, not here.
type event struct {
	fn  func()
	gen uint32
	idx int32 // bucket and position (see bucketIdx), inLane, or the free-list link
}

const (
	// noSlot terminates the free list. A free slot reuses its idx field as
	// the link to the next free slot, so the pool needs no side table. A
	// cancelled slot still waiting in the lane has idx noSlot too.
	noSlot = int32(-1)
	// inLane marks a live slot queued in the same-instant lane.
	inLane = int32(-2)
	// bucketBits low bits of a bucketed slot's idx number its bucket; the
	// bits above them hold its position in the bucket.
	bucketBits = 6
)

// bucketIdx encodes bucket b and position pos as a bucketed slot's idx. It
// panics rather than wrap when pos does not fit in the bits above the
// bucket number.
func bucketIdx(b, pos int) int32 {
	if pos >= 1<<(31-bucketBits) {
		panic("sim: calendar bucket full: more than 2^25 events in one bucket")
	}
	return int32(pos<<bucketBits | b)
}

// EventID identifies a scheduled event so it can be cancelled. It is a value
// (slot index + generation), not a pointer: holding an EventID after the
// event fired or was cancelled pins nothing, and cancelling it is a detected
// no-op even if the kernel has recycled the slot for a new event. A holder
// therefore never clears a dead handle; Scheduled is the one test for
// whether its timer is still armed.
type EventID struct {
	slot int32
	gen  uint32
}

// entry is one event of a calendar bucket. It carries its own (time, seq)
// key, so a scan of a bucket reads the bucket alone and never the pool.
type entry struct {
	t    Time
	seq  uint64 // schedule order, the tie-breaker at one instant
	slot int32
}

// Sim is a discrete-event simulation. The zero value is not usable; create
// one with New.
type Sim struct {
	now  Time
	seq  uint64
	pool []event
	free int32 // head of the free-slot list (linked through idx), noSlot if empty
	// buckets hold the events due after now, unsorted: one due at t sits
	// in buckets[bits.Len64(t ^ last)], where last is the instant the
	// clock last advanced to, so bucket b spans the times that first
	// differ from last in bit b-1. filled has bit b set while buckets[b]
	// is not empty.
	buckets [64][]entry
	filled  uint64
	last    Time
	// lane queues, in (time, seq) order, the slots of the events due at
	// the current instant, laneLive of them not cancelled.
	lane     Queue[int32]
	laneLive int
	stopped  bool

	horizon Time // end of the current run

	// Process bookkeeping (see proc.go).
	procs   map[*Proc]struct{}
	procSeq uint64 // next spawn-order number
	current *Proc  // process whose code is running; nil in kernel context
	caller  *Proc  // stands for the Run caller; never spawned
	host    *Proc  // owner of the coroutine that holds the calendar
	next    *Proc  // process the calendar passes to when the event returns
	failure any    // callback panic caught on a process coroutine, rethrown by Run

	// nEvents counts executed events and switches coroutine hand-offs,
	// for diagnostics.
	nEvents  uint64
	switches uint64

	// onDeadlock, when set, is invoked by run when the calendar empties
	// while live processes remain parked (see OnDeadlock).
	onDeadlock func(*DeadlockError)
}

// New returns an empty simulation positioned at time zero.
func New() *Sim {
	caller := &Proc{name: "run caller"}
	return &Sim{procs: make(map[*Proc]struct{}), free: noSlot, caller: caller, host: caller}
}

// Now returns the current simulated time.
func (s *Sim) Now() Time { return s.now }

// EventCount returns the number of events executed so far.
func (s *Sim) EventCount() uint64 { return s.nEvents }

// Pending returns the number of scheduled (not yet fired) events.
func (s *Sim) Pending() int {
	n := s.laneLive
	for f := s.filled; f != 0; f &= f - 1 {
		n += len(s.buckets[bits.TrailingZeros64(f)])
	}
	return n
}

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
// that is always a model bug. An event for the current instant joins the
// tail of the same-instant lane, which needs no sequence number: every event
// already due at this instant was scheduled earlier, and the lane holds it
// ahead.
func (s *Sim) At(t Time, fn func()) EventID {
	if t <= s.now {
		if t < s.now {
			panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
		}
		slot := s.alloc()
		e := &s.pool[slot]
		e.fn = fn
		e.idx = inLane
		s.lane.Push(slot)
		s.laneLive++
		return EventID{slot: slot, gen: e.gen}
	}
	slot := s.alloc()
	e := &s.pool[slot]
	e.fn = fn
	s.file(entry{t: t, seq: s.seq, slot: slot})
	s.seq++
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
// the EventID no longer matches the slot. A cancelled lane event's ID goes
// stale at once; its slot returns to the free list when the lane reaches it.
func (s *Sim) Cancel(id EventID) {
	if !s.Scheduled(id) {
		return
	}
	e := &s.pool[id.slot]
	if e.idx == inLane {
		e.fn = nil
		e.gen++
		e.idx = noSlot
		s.laneLive--
		return
	}
	s.remove(e.idx)
	s.release(id.slot)
}

// Scheduled reports whether id refers to an event that is still pending
// (not fired, not cancelled, slot not recycled). A slot's generation moves
// on whenever its event fires or is cancelled, so a match means pending.
func (s *Sim) Scheduled(id EventID) bool {
	return id.slot >= 0 && int(id.slot) < len(s.pool) && s.pool[id.slot].gen == id.gen
}

// file appends e to its bucket and records the bucket and position in the
// slot's idx.
func (s *Sim) file(e entry) {
	b := bits.Len64(uint64(e.t ^ s.last))
	bk := &s.buckets[b]
	s.pool[e.slot].idx = bucketIdx(b, len(*bk))
	*bk = append(*bk, e)
	s.filled |= 1 << b
}

// remove swap-removes the bucketed event whose slot has idx i: the bucket's
// last entry takes its place.
func (s *Sim) remove(i int32) {
	b, pos := i&(1<<bucketBits-1), i>>bucketBits
	bk := &s.buckets[b]
	n := int32(len(*bk) - 1)
	if pos != n {
		(*bk)[pos] = (*bk)[n]
		s.pool[(*bk)[pos].slot].idx = i
	}
	*bk = (*bk)[:n]
	if n == 0 {
		s.filled &^= 1 << b
	}
}

// advance moves the clock to the next instant with a bucketed event and
// returns the slot of the first event due then, taken out of the buckets.
// It returns noSlot, and changes nothing, if no event is due by the
// horizon. The lane must be empty.
//
// The next instant m is the earliest time in the lowest non-empty bucket: a
// lower bucket shares a longer prefix with last, and so holds earlier
// times. A lone entry there is the event. Otherwise the bucket is refiled
// against m. Its entries agree with m above bit b-1 and, being no earlier,
// in that bit too, so each entry due after m lands in a strictly lower
// bucket, and an entry moves at most 63 times in all. The entries due at m
// enter the empty lane in seq order, the first of them to fire now, so the
// lane keeps the (time, seq) order; the buckets above b keep their entries,
// which differ from m where they differed from last.
func (s *Sim) advance() int32 {
	if s.filled == 0 {
		return noSlot
	}
	b := bits.TrailingZeros64(s.filled)
	bk := s.buckets[b]
	m := bk[0].t
	for _, e := range bk[1:] {
		m = min(m, e.t)
	}
	if m > s.horizon {
		return noSlot
	}
	s.now, s.last = m, m
	s.buckets[b] = bk[:0]
	s.filled &^= 1 << b
	if len(bk) == 1 {
		return bk[0].slot
	}
	due := bk[:0] // compacted in place: nothing refiles into bucket b
	for _, e := range bk {
		if e.t == m {
			due = append(due, e)
		} else {
			s.file(e)
		}
	}
	slices.SortFunc(due, func(x, y entry) int { return cmp.Compare(x.seq, y.seq) })
	for _, e := range due[1:] {
		s.pool[e.slot].idx = inLane
		s.lane.Push(e.slot)
	}
	s.laneLive += len(due) - 1
	return due[0].slot
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
		if p.co != nil && !p.done {
			names = append(names, p.name)
		}
	}
	sort.Strings(names)
	return names
}

// Run executes events in time order until the calendar is empty, the
// horizon is passed, or Stop is called. It returns the time of the last
// executed event (or the horizon if it was reached). Run must not be called
// from inside a process. A panic in an event callback surfaces from Run,
// whichever coroutine ran the callback, and so does a panic in process code,
// naming the process.
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
	pending := s.Pending() > 0 // if so, the next event lies beyond the horizon
	if !pending && s.onDeadlock != nil && len(s.procs) > 0 {
		if names := s.BlockedProcs(); len(names) > 0 {
			s.onDeadlock(&DeadlockError{At: s.now, Procs: names})
		}
	}
	// The clock only moves forward: a horizon before now leaves it where
	// it is, and so leaves the lane's events at the instant they were
	// scheduled for.
	if (pending || advance) && s.now < horizon {
		s.now = horizon
	}
	return s.now
}

// drive runs the calendar on the calling coroutine, which belongs to self
// (s.caller on the Run caller's goroutine). It returns once self is to
// resume: woken or killed, or for s.caller, the run is over. If the event
// that ends a step names another process, drive hands the calendar to it
// and waits for its own turn. A dead self (a finished or killed process
// whose coroutine still holds the calendar) returns instead, leaving s.next
// set for the dying coroutine to pass on.
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
		// Events fire in (time, seq) order: the lane holds the current
		// instant's, in that order, and the buckets only later ones.
		if s.stopped || s.now > s.horizon {
			s.next = s.caller
			continue
		}
		var slot int32
		if s.lane.Len() > 0 {
			slot = s.lane.Pop()
			if s.pool[slot].idx != inLane {
				s.release(slot) // cancelled while queued
				continue
			}
			s.laneLive--
		} else if slot = s.advance(); slot == noSlot {
			s.next = s.caller
			continue
		}
		s.nEvents++
		fn := s.pool[slot].fn
		// Recycle the slot before invoking the callback: the hot pattern of
		// an event rescheduling its successor reuses the just-freed slot, so
		// the steady-state calendar footprint is exactly the peak population.
		s.release(slot)
		fn()
	}
}

// catch recovers a panic raised by an event callback on a process coroutine
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
