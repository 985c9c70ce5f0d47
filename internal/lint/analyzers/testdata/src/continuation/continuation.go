// Fixture for the goroutine analyzer's continuation-only rule: this package
// path is on the continuation-only list, standing in for a per-packet hot
// path (the real entry is dclue/internal/netsim). Goroutine-backed kernel
// primitives are flagged; pure callback scheduling is not.
package continuation

import "sim"

type actor struct {
	s    *sim.Sim
	ev   sim.EventID
	step func()
}

// Callback scheduling is the sanctioned style: no diagnostics.
func newActor(s *sim.Sim) *actor {
	a := &actor{s: s}
	a.step = func() { a.ev = a.s.After(1, a.step) }
	return a
}

func (a *actor) stop() { a.s.Cancel(a.ev) }

type server struct {
	inbox *sim.Mailbox // want `sim\.Mailbox in a continuation-only package`
}

func makeInbox(s *sim.Sim) *sim.Mailbox { // want `sim\.Mailbox in a continuation-only package`
	return sim.NewMailbox(s) // want `sim\.NewMailbox in a continuation-only package`
}

// A reply token is the process API too: something must Await it.
func reply(w sim.Waiter) { // want `sim\.Waiter in a continuation-only package`
	w.Deliver(nil)
}

func serve(s *sim.Sim) {
	s.Spawn("srv", func(p *sim.Proc) { // want `sim\.Proc in a continuation-only package`
		p.Sleep(1)
	})
}

func suppressed(s *sim.Sim) {
	//lint:allow goroutine fixture demonstrates a justified suppression
	_ = sim.NewMailbox(s)
}
