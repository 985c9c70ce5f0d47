package sim

// Mailbox is an unbounded FIFO of values with FIFO-ordered blocking
// receivers, the kernel analogue of a Go channel. Send may be called from
// kernel context or from a process; receivers are woken through the event
// calendar, preserving determinism.
type Mailbox struct {
	sim     *Sim
	vals    Queue[any]
	waiters Queue[*mboxWaiter]
}

type mboxWaiter struct {
	p        *Proc
	timer    EventID
	hasTimer bool
	removed  bool
}

// NewMailbox returns an empty mailbox bound to s.
func NewMailbox(s *Sim) *Mailbox { return &Mailbox{sim: s} }

// Len returns the number of queued (unconsumed) values.
func (m *Mailbox) Len() int { return m.vals.Len() }

// Send enqueues v and, if a receiver is waiting, schedules its wake-up at
// the current time.
func (m *Mailbox) Send(v any) {
	m.vals.Push(v)
	m.dispatch()
}

// dispatch pairs queued values with queued waiters.
func (m *Mailbox) dispatch() {
	for m.vals.Len() > 0 && m.waiters.Len() > 0 {
		w := m.waiters.Pop()
		if w.removed {
			continue
		}
		w.removed = true
		v := m.vals.Pop()
		if w.hasTimer {
			m.sim.Cancel(w.timer)
			w.timer = EventID{} // drop the stale handle; the slot will be recycled
			w.hasTimer = false
		}
		m.sim.After(0, func() { w.p.wake(recvResult{v, true}) })
	}
}

type recvResult struct {
	val any
	ok  bool
}

// Recv blocks the calling process until a value is available and returns it.
func (m *Mailbox) Recv(p *Proc) any {
	v, _ := m.RecvTimeout(p, -1)
	return v
}

// TryRecv returns a queued value without blocking. ok is false if the
// mailbox is empty.
func (m *Mailbox) TryRecv() (any, bool) {
	if m.vals.Len() == 0 {
		return nil, false
	}
	return m.vals.Pop(), true
}

// RecvTimeout blocks until a value arrives or d elapses. A negative d means
// no timeout. ok is false on timeout.
func (m *Mailbox) RecvTimeout(p *Proc, d Time) (any, bool) {
	if v, ok := m.TryRecv(); ok {
		return v, true
	}
	w := &mboxWaiter{p: p}
	m.waiters.Push(w)
	if d >= 0 {
		w.hasTimer = true
		w.timer = m.sim.After(d, func() {
			w.timer = EventID{} // fired: the ID is stale from here on
			w.hasTimer = false
			if w.removed {
				return
			}
			w.removed = true
			p.wake(recvResult{nil, false})
		})
	}
	r := p.park().(recvResult)
	return r.val, r.ok
}
