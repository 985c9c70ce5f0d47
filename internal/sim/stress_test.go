package sim

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// TestStressDeterminism runs a randomized mix of processes, mailboxes and
// resources twice and requires bit-identical traces — the property every
// experiment in this repository rests on.
func TestStressDeterminism(t *testing.T) {
	run := func(seed int64) (trace string, events uint64) {
		s := New()
		res := NewResource(s, 2)
		mb := NewMailbox(s)
		x := uint64(uint64(seed)*2654435761 + 12345)
		next := func(n int) int {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return int(x % uint64(n))
		}
		for i := 0; i < 20; i++ {
			i := i
			d := Time(next(1000)+1) * Microsecond
			s.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for j := 0; j < 5; j++ {
					p.Sleep(d)
					res.Acquire(p)
					p.Sleep(Time(next(100)+1) * Microsecond)
					res.Release()
					if i%3 == 0 {
						mb.Send(i*100 + j)
					} else if i%3 == 1 {
						if v, ok := mb.RecvTimeout(p, 2*Millisecond); ok {
							trace += fmt.Sprintf("r%v;", v)
						}
					}
					trace += fmt.Sprintf("%d@%d;", i, int64(p.Now()))
				}
			})
		}
		s.Run(5 * Second)
		s.Shutdown()
		return trace, s.EventCount()
	}
	for seed := int64(1); seed <= 5; seed++ {
		t1, e1 := run(seed)
		t2, e2 := run(seed)
		if t1 != t2 || e1 != e2 {
			t.Fatalf("seed %d: nondeterministic (events %d vs %d)", seed, e1, e2)
		}
	}
}

// TestResourceConservation: under arbitrary interleavings the resource
// never exceeds capacity and never leaks servers.
func TestResourceConservation(t *testing.T) {
	err := quick.Check(func(seed uint16, nProcs uint8) bool {
		s := New()
		cap := 1 + int(seed%3)
		res := NewResource(s, cap)
		over := false
		n := 1 + int(nProcs%16)
		for i := 0; i < n; i++ {
			d := Time(int(seed)%50+1+i) * Microsecond
			s.Spawn("w", func(p *Proc) {
				for j := 0; j < 3; j++ {
					res.Acquire(p)
					if res.inUse > cap {
						over = true
					}
					p.Sleep(d)
					res.Release()
				}
			})
		}
		s.Run(10 * Second)
		s.Shutdown()
		return !over && res.inUse == 0 && res.fns.Len() == 0 && res.procs.Len() == 0
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMailboxConservation: every value sent is received exactly once.
func TestMailboxConservation(t *testing.T) {
	s := New()
	mb := NewMailbox(s)
	const senders, msgs = 8, 25
	got := map[int]int{}
	for i := 0; i < senders; i++ {
		i := i
		s.Spawn("snd", func(p *Proc) {
			for j := 0; j < msgs; j++ {
				p.Sleep(Time(i+1) * Microsecond)
				mb.Send(i*1000 + j)
			}
		})
	}
	for r := 0; r < 3; r++ {
		s.Spawn("rcv", func(p *Proc) {
			for {
				v, ok := mb.RecvTimeout(p, 100*Millisecond)
				if !ok {
					return
				}
				got[v.(int)]++
			}
		})
	}
	s.Run(10 * Second)
	s.Shutdown()
	if len(got) != senders*msgs {
		t.Fatalf("received %d distinct values, want %d", len(got), senders*msgs)
	}
	for v, n := range got {
		if n != 1 {
			t.Fatalf("value %d received %d times", v, n)
		}
	}
}

// TestPooledCalendarStress interleaves Cancel, Kill and Shutdown against the
// free-listed event pool: slots recycle constantly while random holders of
// stale EventIDs keep cancelling them. The pool's generation tags must make
// every stale cancel a no-op — a miscount here fires the wrong event or
// silently drops a live one, which the executed-event tally and the
// double-run comparison would both expose.
func TestPooledCalendarStress(t *testing.T) {
	run := func(seed int64) (fired int, events uint64) {
		s := New()
		x := uint64(seed)*2654435761 + 99991
		next := func(n int) int {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return int(x % uint64(n))
		}
		var ids []EventID
		var procs []*Proc
		var churn func()
		churn = func() {
			switch next(5) {
			case 0, 1: // schedule a timer and remember its ID
				ids = append(ids, s.After(Time(next(500)+1)*Microsecond, func() { fired++ }))
			case 2: // cancel a random remembered ID (often already stale)
				if len(ids) > 0 {
					s.Cancel(ids[next(len(ids))])
				}
			case 3: // re-cancel the same ID twice in a row
				if len(ids) > 0 {
					id := ids[next(len(ids))]
					s.Cancel(id)
					s.Cancel(id)
				}
			case 4: // kill a random process (its pending sleep event goes stale)
				if len(procs) > 0 {
					i := next(len(procs))
					s.Kill(procs[i])
					procs = append(procs[:i], procs[i+1:]...)
				}
			}
			s.After(Time(next(200)+1)*Microsecond, churn)
		}
		for i := 0; i < 8; i++ {
			procs = append(procs, s.Spawn("w", func(p *Proc) {
				for {
					p.Sleep(Time(next(300)+1) * Microsecond)
				}
			}))
		}
		s.After(0, churn)
		s.Run(200 * Millisecond)
		s.Shutdown()
		return fired, s.EventCount()
	}
	for seed := int64(1); seed <= 4; seed++ {
		f1, e1 := run(seed)
		f2, e2 := run(seed)
		if f1 != f2 || e1 != e2 {
			t.Fatalf("seed %d: nondeterministic pooled calendar (fired %d/%d, events %d/%d)",
				seed, f1, f2, e1, e2)
		}
		if f1 == 0 {
			t.Fatalf("seed %d: no timers fired; stress loop inert", seed)
		}
	}
}

// TestCalendarOrderOracle checks the calendar against a reference model.
// Callbacks schedule same-instant events (After(0), At(Now())) among future
// ones with exact ties, cancel random IDs (live in a bucket, live in the
// same-instant lane, fired, or already cancelled, some twice) and Stop in
// the middle of an instant; the Run caller resumes with random horizons,
// some before now. Every fired event must be the reference model's next
// (time, schedule order), and Pending and Scheduled must agree with the
// model after every event and every Run. Events here fall 0–4 ns ahead, so
// they stay in the lowest buckets; TestCalendarFarOracle covers the rest.
func TestCalendarOrderOracle(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		calendarOracle(t, seed, false)
	}
}

// TestCalendarFarOracle runs the reference model of TestCalendarOrderOracle
// over the whole bucket range: delays drawn log-uniformly over 2^0–2^40 ns,
// ties at far instants, pairs of events straddling a power of two (the clock
// at 2^k−1, the next event at 2^k), cancels in high buckets, Run horizons
// that fall between the next event and the one before and are followed by a
// schedule in that gap, and Stops right after an advance has moved several
// due events into the lane. Each case must occur, so the test is not inert.
func TestCalendarFarOracle(t *testing.T) {
	var cov oracleCoverage
	for seed := uint64(1); seed <= 40; seed++ {
		c := calendarOracle(t, seed, true)
		cov.farTies += c.farTies
		cov.straddles += c.straddles
		cov.highCancels += c.highCancels
		cov.gapSchedules += c.gapSchedules
		cov.laneStops += c.laneStops
	}
	t.Logf("%+v", cov)
	if cov.farTies < 100 || cov.straddles < 20 || cov.highCancels < 100 || cov.gapSchedules < 100 || cov.laneStops < 20 {
		t.Fatalf("oracle cases too rare: %+v", cov)
	}
}

// oracleCoverage counts the cases of TestCalendarFarOracle that occurred.
type oracleCoverage struct {
	farTies      int // events fired at the instant of the previous one, both scheduled 2^16 ns or more ahead
	straddles    int // events fired at 2^k right after one at 2^k−1
	highCancels  int // cancels of a live event in bucket 20 or above
	gapSchedules int // schedules by the Run caller between a horizon and the next event
	laneStops    int // Stops with events moved from a bucket still waiting in the lane
}

// calendarOracle runs one seed of the calendar against the reference model.
// With far unset, events fall 0–4 ns ahead and horizons −1–4 ns past now;
// with far set, delays and horizons are log-uniform up to 2^40 ns, and the
// far-only cases of oracleCoverage are driven on purpose.
func calendarOracle(t *testing.T, seed uint64, far bool) oracleCoverage {
	t.Helper()
	type ref struct {
		t       Time
		at      Time // the clock when it was scheduled
		order   int  // schedule order
		id      EventID
		pending bool
	}
	s := New()
	x := seed*2654435761 + 4242
	if far {
		x += 99991
	}
	next := func(n int) int {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int(x % uint64(n))
	}
	delay := func() Time {
		if !far {
			return Time(next(4))
		}
		k := next(41)
		return Time(1)<<k + Time(next(1<<k))
	}
	var cov oracleCoverage
	var evs []*ref
	live := 0
	var fired []*ref
	stopped := false
	var horizon Time
	check := func(where string) {
		t.Helper()
		if s.Pending() != live {
			t.Fatalf("seed %d, %s at %v: Pending() = %d, model %d", seed, where, s.Now(), s.Pending(), live)
		}
		for _, r := range evs {
			if s.Scheduled(r.id) != r.pending {
				t.Fatalf("seed %d, %s at %v: Scheduled(event %d) = %v, model %v",
					seed, where, s.Now(), r.order, !r.pending, r.pending)
			}
		}
	}
	// nextDue returns the earliest pending time in the model, or -1.
	nextDue := func() Time {
		tn := Time(-1)
		for _, o := range evs {
			if o.pending && (tn < 0 || o.t < tn) {
				tn = o.t
			}
		}
		return tn
	}
	var schedule func(at Time)
	fire := func(r *ref) {
		if !r.pending {
			t.Fatalf("seed %d: event %d fired although fired or cancelled", seed, r.order)
		}
		for _, o := range evs {
			if o.pending && (o.t < r.t || o.t == r.t && o.order < r.order) {
				t.Fatalf("seed %d: event %d (t=%v) fired before event %d (t=%v)", seed, r.order, r.t, o.order, o.t)
			}
		}
		if s.Now() != r.t || r.t > horizon {
			t.Fatalf("seed %d: event %d for %v fired at %v, horizon %v", seed, r.order, r.t, s.Now(), horizon)
		}
		if n := len(fired); n > 0 {
			prev := fired[n-1]
			if prev.t == r.t && prev.t-prev.at >= 1<<16 && r.t-r.at >= 1<<16 {
				cov.farTies++
			}
			if prev.t == r.t-1 && r.t&(r.t-1) == 0 {
				cov.straddles++
			}
		}
		r.pending = false
		live--
		fired = append(fired, r)
		if len(evs) < 1500 {
			kinds := 6
			if far {
				kinds++
			}
			for k := 1 + next(4); k > 0; k-- {
				switch next(kinds) {
				case 0:
					schedule(s.Now())
				case 1: // At(Now()) rather than After(0)
					schedule(-1)
				case 2: // a tie with a pending event, wherever it sits
					if o := evs[next(len(evs))]; o.pending {
						schedule(o.t)
					}
				case 6:
					// Events at 2^k−1 and 2^k, and ties there.
					k := bits.Len64(uint64(s.Now())) + next(3)
					for n := next(3); n >= 0; n-- {
						schedule(Time(1)<<k - 1)
						schedule(Time(1) << k)
					}
				default:
					schedule(s.Now() + delay())
				}
			}
		}
		for k := next(3); k > 0; k-- {
			var victim *ref
			if next(2) == 0 {
				// Prefer a pending event of this instant, often in the lane.
				for _, o := range evs {
					if o.pending && o.t == s.Now() {
						victim = o
						break
					}
				}
			}
			if victim == nil {
				victim = evs[next(len(evs))]
			}
			if e := s.pool[victim.id.slot]; victim.pending && e.idx >= 0 && e.idx&(1<<bucketBits-1) >= 20 {
				cov.highCancels++
			}
			for n := 1 + next(2); n > 0; n-- {
				s.Cancel(victim.id)
				if victim.pending {
					victim.pending = false
					live--
				}
			}
		}
		// Events due now that were scheduled before now came from a bucket
		// in the advance that fired r, and wait in the lane behind it.
		moved := 0
		for _, o := range evs {
			if o.pending && o.t == s.Now() && o.at < o.t {
				moved++
			}
		}
		if next(10) == 0 || far && moved > 0 && next(3) == 0 {
			s.Stop()
			stopped = true
			if moved > 0 {
				cov.laneStops++
			}
		}
		check("after an event")
	}
	schedule = func(at Time) {
		r := &ref{t: at, at: s.Now(), order: len(evs), pending: true}
		evs = append(evs, r)
		live++
		if at < 0 {
			r.t = s.Now()
			r.id = s.At(s.Now(), func() { fire(r) })
		} else {
			r.id = s.After(at-s.Now(), func() { fire(r) })
		}
	}
	for i := 0; i < 20; i++ {
		if far {
			schedule(delay())
		} else {
			schedule(Time(next(5)))
		}
	}
	for rounds := 0; s.Pending() > 0; rounds++ {
		if rounds > 10000 {
			t.Fatalf("seed %d: calendar never drained", seed)
		}
		before := s.Now()
		if next(4) == 0 {
			schedule(before) // from the Run caller, possibly after a Stop
		}
		h := before + Time(next(6)) - 1
		gap := false
		if far {
			h = before + delay()
			// A horizon short of the next event, so that the clock stops
			// between two events, and then a schedule into that gap.
			if tn := nextDue(); tn > before+1 && next(2) == 0 {
				h = before + 1 + Time(next(int(tn-before-1)))
				gap = tn-h >= 2
			}
		}
		horizon, stopped = h, false
		end := s.Run(h)
		check("after Run")
		if s.Now() != end || end < before {
			t.Fatalf("seed %d: Run(%v) from %v returned %v with Now() %v", seed, h, before, end, s.Now())
		}
		if !stopped && end != max(before, h) {
			t.Fatalf("seed %d: Run(%v) from %v left the clock at %v", seed, h, before, end)
		}
		if gap && !stopped {
			tn := nextDue()
			schedule(end + 1 + Time(next(int(tn-end-1))))
			cov.gapSchedules++
		}
	}
	if len(fired) < 200 {
		t.Fatalf("seed %d: only %d events fired; the oracle loop is inert", seed, len(fired))
	}
	if !sort.SliceIsSorted(fired, func(i, j int) bool {
		a, b := fired[i], fired[j]
		return a.t < b.t || a.t == b.t && a.order < b.order
	}) {
		t.Fatalf("seed %d: fire order differs from the (time, schedule order) sort", seed)
	}
	return cov
}

// TestManyProcsScale sanity-checks kernel throughput: ten thousand
// processes sleeping in a loop complete without issue.
func TestManyProcsScale(t *testing.T) {
	s := New()
	done := 0
	for i := 0; i < 10000; i++ {
		s.Spawn("p", func(p *Proc) {
			for j := 0; j < 3; j++ {
				p.Sleep(Millisecond)
			}
			done++
		})
	}
	s.RunAll()
	if done != 10000 {
		t.Fatalf("completed %d of 10000", done)
	}
	if s.LiveProcs() != 0 {
		t.Fatalf("%d leaked procs", s.LiveProcs())
	}
}

// TestStressHandOff drives every hand-off path at random: processes spawn
// children and contend on a resource and a mailbox, deferred functions run
// on unwinding, and callbacks kill processes — sometimes the one whose
// coroutine is running the callback, sometimes one parked elsewhere. Two
// runs of a seed must give the same trace, event count and Switches().
func TestStressHandOff(t *testing.T) {
	var hostKills, otherKills int
	run := func(seed uint64) (trace string, events, switches uint64) {
		s := New()
		res := NewResource(s, 2)
		mb := NewMailbox(s)
		x := seed*2654435761 + 7
		next := func(n int) int {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return int(x % uint64(n))
		}
		var b strings.Builder
		var live []*Proc
		nextID := 0
		var spawn func() *Proc
		spawn = func() *Proc {
			id := nextID
			nextID++
			p := s.Spawn(fmt.Sprintf("p%d", id), func(p *Proc) {
				defer func() {
					mb.Send(-id)
					fmt.Fprintf(&b, "x%d@%d;", id, int64(s.Now()))
				}()
				for j := 0; j < 8; j++ {
					switch next(4) {
					case 0:
						p.Sleep(Time(next(50)+1) * Microsecond)
					case 1:
						res.Acquire(p)
						p.Sleep(Time(next(20)+1) * Microsecond)
						res.Release()
					case 2:
						mb.Send(id)
					case 3:
						if v, ok := mb.RecvTimeout(p, Time(next(40)+1)*Microsecond); ok {
							fmt.Fprintf(&b, "r%d<%v;", id, v)
						}
					}
					if next(6) == 0 && nextID < 200 {
						live = append(live, spawn())
					}
					fmt.Fprintf(&b, "%d@%d;", id, int64(p.Now()))
				}
			})
			return p
		}
		for i := 0; i < 12; i++ {
			live = append(live, spawn())
		}
		var killer func()
		killer = func() {
			if len(live) > 0 {
				i := next(len(live))
				if next(2) == 0 {
					// Prefer the process whose coroutine runs this callback.
					for j, p := range live {
						if p == s.host {
							i = j
						}
					}
				}
				if live[i] == s.host {
					hostKills++
				} else if !live[i].Done() && live[i].co != nil {
					otherKills++
				}
				s.Kill(live[i])
				live = append(live[:i], live[i+1:]...)
			}
			s.After(Time(next(100)+1)*Microsecond, killer)
		}
		s.After(Time(next(100)+1)*Microsecond, killer)
		s.Run(20 * Millisecond)
		s.Shutdown()
		if s.LiveProcs() != 0 {
			t.Fatalf("seed %d: %d live procs after Shutdown", seed, s.LiveProcs())
		}
		return b.String(), s.EventCount(), s.Switches()
	}
	for seed := uint64(1); seed <= 6; seed++ {
		t1, e1, s1 := run(seed)
		t2, e2, s2 := run(seed)
		if t1 != t2 || e1 != e2 || s1 != s2 {
			t.Fatalf("seed %d: nondeterministic (events %d/%d, switches %d/%d)", seed, e1, e2, s1, s2)
		}
	}
	if hostKills == 0 || otherKills == 0 {
		t.Fatalf("kills of the host %d, of parked processes elsewhere %d: a path went unexercised",
			hostKills, otherKills)
	}
}
