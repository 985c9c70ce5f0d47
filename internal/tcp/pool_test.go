package tcp

import (
	"testing"

	"dclue/internal/rng"
	"dclue/internal/sim"
)

// TestPoolsBalancedAfterFaultedRun is the kill/cancel stress witness for the
// static ownership contract. A transfer runs through a burst-loss window
// (the flt-loss schedule shape) and both stacks are power-cycled mid-window,
// while segments are in flight, retransmission timers are armed, and the
// receiver is holding out-of-order segments for reassembly. After the fabric
// quiesces, every pool-drawn object must be accounted for:
//
//   - the packet pool is fully recycled (packets die in the fabric or at a
//     NIC, never in a stack), and
//   - the only segments still outstanding are exactly the ones the fabric
//     dropped with their packets (AbandonedPayloads) — connection teardown
//     must have recycled everything a conn retained, including the
//     out-of-order reassembly buffer.
//
// The poolown analyzer proves the per-path obligations statically; this test
// pins the same invariant at run time across the paths the analyzer cannot
// follow (processor continuations, the fabric, timer cancellation).
func TestPoolsBalancedAfterFaultedRun(t *testing.T) {
	s, sa, sb, _ := testNet(t, 1e9, 1e6)
	n := sa.dom.net
	dom := sa.dom
	link := n.NIC(0).Link()
	link.SetFaultRand(rng.Derive(1, "fault/pool-test"))

	sb.Listen(99, func(c *Conn) {
		c.SetOnMessage(func(Message) {})
	})
	s.Spawn("client", func(p *sim.Proc) {
		c := Dial(p, sa, 1, 99, DialOptions{})
		if c == nil {
			return // aborted during handshake; still a valid pool run
		}
		for i := 0; i < 60; i++ {
			c.Enqueue(i, 4000)
			p.Sleep(2 * sim.Millisecond)
		}
	})
	// Loss window 10–60 ms; both nodes lose power at 50 ms, inside the
	// window, so connections die with segments in flight and retransmits
	// pending.
	s.At(10*sim.Millisecond, func() { link.SetLoss(0.3) })
	oobAtAbort := 0
	s.At(50*sim.Millisecond, func() {
		// Record how many out-of-order segments the receiver is holding so
		// the test can prove the abort exercised reassembly-buffer teardown.
		for _, c := range sb.conns {
			for i := 1; i < c.oob.Len(); i++ {
				if *c.oob.At(i) != nil {
					oobAtAbort++
				}
			}
		}
		sa.AbortConns()
		sb.AbortConns()
	})
	s.At(60*sim.Millisecond, func() { link.SetLoss(0) })

	s.Run(20 * sim.Second)
	s.Shutdown()

	if dom.Retransmits == 0 {
		t.Fatal("no retransmissions despite the loss window; stress did not engage")
	}
	if n.AbandonedPayloads == 0 {
		t.Fatal("no packets died carrying segments; stress did not engage")
	}
	if oobAtAbort == 0 {
		t.Fatal("receiver held no out-of-order segments at abort; pick a seed that does")
	}
	if out := n.PoolOutstanding(); out != 0 {
		t.Fatalf("packet pool outstanding %d after quiesce, want 0", out)
	}
	if got, want := dom.PoolOutstanding(), int(n.AbandonedPayloads); got != want {
		t.Fatalf("segment pool outstanding %d, want %d (= packets dropped with segments aboard): teardown leaked or double-freed",
			got, want)
	}
}
