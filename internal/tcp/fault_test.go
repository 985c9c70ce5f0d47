package tcp

import (
	"testing"

	"dclue/internal/rng"
	"dclue/internal/sim"
)

// TestRetransmissionRecoversInjectedBurstLoss: a burst-loss window on the
// sender's access link loses segments outright (not congestion drops); Reno
// retransmission must still deliver every message, in order, and the loss
// must be visible in the domain's retransmit counter and the network's
// fault-drop counter — not in ECN marks or queue tail-drops, which stay at
// whatever congestion alone produces (zero here).
func TestRetransmissionRecoversInjectedBurstLoss(t *testing.T) {
	s, sa, sb, _ := testNet(t, 1e9, 1e6)
	n := sa.dom.net
	link := n.NIC(0).Link()
	link.SetFaultRand(rng.Derive(11, "fault/tcp-test"))

	var got []Message
	sb.Listen(99, func(c *Conn) {
		c.SetOnMessage(func(m Message) { got = append(got, m) })
	})

	const msgs = 60
	s.Spawn("client", func(p *sim.Proc) {
		c := Dial(p, sa, 1, 99, DialOptions{})
		if c == nil {
			t.Error("dial failed")
			return
		}
		for i := 0; i < msgs; i++ {
			c.Enqueue(i, 1200)
			p.Sleep(2 * sim.Millisecond)
		}
	})
	// Burst loss for a stretch of the transfer, then a clean tail so
	// recovery completes.
	s.At(10*sim.Millisecond, func() { link.SetLoss(0.3) })
	s.At(60*sim.Millisecond, func() { link.SetLoss(0) })

	s.Run(20 * sim.Second)
	s.Shutdown()

	if len(got) != msgs {
		t.Fatalf("delivered %d/%d messages through the loss window", len(got), msgs)
	}
	for i, m := range got {
		if m.Meta != i {
			t.Fatalf("out-of-order delivery: got[%d] = %v", i, m.Meta)
		}
	}
	if sa.dom.Retransmits == 0 {
		t.Fatal("no retransmissions recorded despite injected loss")
	}
	if n.FaultDrops == 0 {
		t.Fatal("injected losses not counted in Network.FaultDrops")
	}
	// The injected losses are wire losses, not queue overflows or
	// congestion marks: every recorded drop must be fault-attributed.
	if n.Drops != n.FaultDrops {
		t.Fatalf("drops=%d vs faultDrops=%d: tail-drop counter polluted by injected loss",
			n.Drops, n.FaultDrops)
	}
	if n.Marks != 0 {
		t.Fatalf("ECN marks=%d on an uncongested path", n.Marks)
	}
}

// TestCorruptionBehavesAsLossForTCP: corrupted frames are delivered to the
// host and discarded by its checksum; the transport must recover exactly as
// it does from loss.
func TestCorruptionBehavesAsLossForTCP(t *testing.T) {
	s, sa, sb, _ := testNet(t, 1e9, 1e6)
	n := sa.dom.net
	link := n.NIC(0).Link()
	link.SetFaultRand(rng.Derive(12, "fault/tcp-test"))

	var got []Message
	sb.Listen(99, func(c *Conn) {
		c.SetOnMessage(func(m Message) { got = append(got, m) })
	})
	const msgs = 20
	s.Spawn("client", func(p *sim.Proc) {
		c := Dial(p, sa, 1, 99, DialOptions{})
		if c == nil {
			t.Error("dial failed")
			return
		}
		for i := 0; i < msgs; i++ {
			c.Enqueue(i, 1200)
			p.Sleep(2 * sim.Millisecond)
		}
	})
	s.At(5*sim.Millisecond, func() { link.SetCorrupt(0.25) })
	s.At(40*sim.Millisecond, func() { link.SetCorrupt(0) })

	s.Run(20 * sim.Second)
	s.Shutdown()

	if len(got) != msgs {
		t.Fatalf("delivered %d/%d messages through the corruption window", len(got), msgs)
	}
	if n.CorruptDrops == 0 {
		t.Fatal("no corruption drops recorded despite the window")
	}
	if sa.dom.Retransmits == 0 {
		t.Fatal("corruption must surface as retransmissions")
	}
}

// TestAckedSegmentsAreReleased: once every message a connection sent is
// acknowledged, the connection holds no send-side segment, so neither the
// segments nor the messages riding on them outlive their ack. The lossy
// case drops segments while messages keep coming, so SACK recovery
// (retransmitHole) and the retransmission timer index the send queue while
// sndUna moves under them.
func TestAckedSegmentsAreReleased(t *testing.T) {
	for _, tc := range []struct {
		name  string
		lossy bool
	}{{"clean", false}, {"lossy", true}} {
		t.Run(tc.name, func(t *testing.T) {
			s, sa, sb, _ := testNet(t, 1e9, 1e6)
			link := sa.dom.net.NIC(0).Link()
			link.SetFaultRand(rng.Derive(13, "fault/tcp-test"))

			var got []Message
			sb.Listen(99, func(c *Conn) {
				c.SetOnMessage(func(m Message) { got = append(got, m) })
			})
			const msgs = 80
			var c *Conn
			rtos := 0
			s.Spawn("client", func(p *sim.Proc) {
				c = Dial(p, sa, 1, 99, DialOptions{})
				if c == nil {
					t.Error("dial failed")
					return
				}
				c.rtoFn = func() { rtos++; c.onRTO() }
				for i := 0; i < msgs; i++ {
					c.Enqueue(i, 4000) // 3 segments each
					p.Sleep(sim.Millisecond)
				}
			})
			if tc.lossy {
				s.At(10*sim.Millisecond, func() { link.SetLoss(0.3) })
				s.At(60*sim.Millisecond, func() { link.SetLoss(0) })
			}
			s.Run(20 * sim.Second)
			s.Shutdown()

			if len(got) != msgs {
				t.Fatalf("delivered %d/%d messages", len(got), msgs)
			}
			for i, m := range got {
				if m.Meta != i {
					t.Fatalf("out-of-order delivery: got[%d] = %v", i, m.Meta)
				}
			}
			if n := c.segs.Len(); n != 0 {
				t.Fatalf("%d segments still held after every message was acked", n)
			}
			if c.sndUna != 3*msgs || c.sndNxt != 3*msgs || c.sacked != 0 {
				t.Fatalf("sndUna %d, sndNxt %d, sacked %d; want %d, %d, 0", c.sndUna, c.sndNxt, c.sacked, 3*msgs, 3*msgs)
			}
			if tc.lossy && (sa.dom.FastRecovers == 0 || rtos == 0) {
				t.Fatalf("fast recoveries %d, retransmission timeouts %d: the loss window missed a recovery path",
					sa.dom.FastRecovers, rtos)
			}
		})
	}
}
