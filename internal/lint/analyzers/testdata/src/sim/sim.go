// Package sim is a miniature of dclue/internal/sim for the continuation
// and maporder fixtures: just enough surface to exercise the goroutine
// analyzer's continuation-only rule (Proc/Mailbox/NewMailbox/Waiter
// flagged, After/EventID legal) and maporder's scheduling calls (Sim's
// At/After/Spawn flagged in a map range, Queue's At not).
package sim

type Time int64

type EventID struct{ slot, gen int32 }

type Sim struct{}

func (s *Sim) After(d Time, fn func()) EventID { fn(); return EventID{} }

func (s *Sim) At(t Time, fn func()) EventID { fn(); return EventID{} }

func (s *Sim) Cancel(id EventID) {}

type Proc struct{}

func (p *Proc) Sleep(d Time) {}

func (s *Sim) Spawn(name string, fn func(*Proc)) *Proc { return &Proc{} }

type Mailbox struct{}

func NewMailbox(s *Sim) *Mailbox { return &Mailbox{} }

func (m *Mailbox) Recv(p *Proc) any { return nil }

type Waiter struct{}

func (w Waiter) Deliver(v any) {}

type Queue[T any] struct{ buf []T }

func (q *Queue[T]) At(i int) *T { return &q.buf[i] }
