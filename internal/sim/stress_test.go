package sim

import (
	"fmt"
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
					res.Acquire(p, next(3))
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
					res.Acquire(p, j%2)
					if res.InUse() > cap {
						over = true
					}
					p.Sleep(d)
					res.Release()
				}
			})
		}
		s.Run(10 * Second)
		s.Shutdown()
		return !over && res.InUse() == 0 && res.QueueLen() == 0
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
// goroutine is running the callback, sometimes one parked elsewhere. Two
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
						res.Acquire(p, next(3))
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
					// Prefer the process whose goroutine runs this callback.
					for j, p := range live {
						if p == s.host {
							i = j
						}
					}
				}
				if live[i] == s.host {
					hostKills++
				} else if !live[i].Done() && live[i].started {
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
