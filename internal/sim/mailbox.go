package sim

// Mailbox is an unbounded FIFO of values with FIFO-ordered blocking
// receivers, the kernel analogue of a Go channel, for a receiver that can
// have several values outstanding. Where one value answers one wait, a
// Waiter alone does the job. Send may be called from kernel context or from
// a process; each receiver waits on a Waiter of its own, woken through the
// event calendar, preserving determinism.
type Mailbox struct {
	vals    Queue[any]
	waiters Queue[Waiter]
}

// NewMailbox returns an empty mailbox. It needs nothing from s: a receiver's
// Waiter knows its simulation.
func NewMailbox(s *Sim) *Mailbox { return &Mailbox{} }

// Len returns the number of queued (unconsumed) values.
func (m *Mailbox) Len() int { return m.vals.Len() }

// Send enqueues v and, if a receiver is waiting, schedules its wake-up at
// the current time.
func (m *Mailbox) Send(v any) {
	m.vals.Push(v)
	m.dispatch()
}

// dispatch hands queued values to queued receivers, skipping a receiver
// whose wait is over: it timed out, so its token is no longer waiting.
func (m *Mailbox) dispatch() {
	for m.vals.Len() > 0 && m.waiters.Len() > 0 {
		if w := m.waiters.Pop(); w.waiting() {
			w.Deliver(m.vals.Pop())
		}
	}
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
	m.waiters.Push(p.Waiter())
	return p.Await(d)
}
