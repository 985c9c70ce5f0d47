package tcp

import (
	"testing"

	"dclue/internal/netsim"
	"dclue/internal/sim"
)

// testNet builds two stacks joined by one router. Returns sim, the stacks,
// and the router for knob-twisting.
func testNet(t *testing.T, bps float64, fwdRate float64) (*sim.Sim, *Stack, *Stack, *netsim.Router) {
	t.Helper()
	s := sim.New()
	n := netsim.New(s)
	r := netsim.NewRouter(n, "r", fwdRate, 0)
	for _, a := range []netsim.Addr{0, 1} {
		n.NIC(a).Attach(r, bps, sim.Microsecond)
	}
	dom := NewDomain(n, DefaultConfig(1))
	sa := dom.NewStack(0, InstantProcessor{}, CostModel{})
	sb := dom.NewStack(1, InstantProcessor{}, CostModel{})
	return s, sa, sb, r
}

func TestHandshakeAndSmallMessage(t *testing.T) {
	s, sa, sb, _ := testNet(t, 1e9, 1e6)
	var got []Message
	sb.Listen(99, func(c *Conn) {
		c.SetOnMessage(func(m Message) { got = append(got, m) })
	})
	var dialed *Conn
	s.Spawn("client", func(p *sim.Proc) {
		dialed = Dial(p, sa, 1, 99, DialOptions{})
		if dialed == nil {
			t.Error("dial failed")
			return
		}
		dialed.Enqueue("hello", 250)
	})
	s.Run(1 * sim.Second)
	s.Shutdown()
	if len(got) != 1 || got[0].Meta != "hello" || got[0].Size != 250 {
		t.Fatalf("got %+v", got)
	}
	if sa.dom.Handshakes != 2 {
		t.Fatalf("handshakes %d, want 2 (one per side)", sa.dom.Handshakes)
	}
}

func TestLargeMessageSegmentation(t *testing.T) {
	s, sa, sb, _ := testNet(t, 1e9, 1e6)
	var got []Message
	sb.Listen(99, func(c *Conn) {
		c.SetOnMessage(func(m Message) { got = append(got, m) })
	})
	const size = 64 * 1024 // 45 segments
	s.Spawn("client", func(p *sim.Proc) {
		c := Dial(p, sa, 1, 99, DialOptions{})
		c.Enqueue("big", size)
	})
	s.Run(2 * sim.Second)
	s.Shutdown()
	if len(got) != 1 || got[0].Size != size {
		t.Fatalf("got %+v", got)
	}
}

func TestManyMessagesInOrder(t *testing.T) {
	s, sa, sb, _ := testNet(t, 1e8, 1e6)
	var got []int
	sb.Listen(99, func(c *Conn) {
		c.SetOnMessage(func(m Message) { got = append(got, m.Meta.(int)) })
	})
	s.Spawn("client", func(p *sim.Proc) {
		c := Dial(p, sa, 1, 99, DialOptions{})
		for i := 0; i < 50; i++ {
			c.Enqueue(i, 8000)
		}
	})
	s.Run(5 * sim.Second)
	s.Shutdown()
	if len(got) != 50 {
		t.Fatalf("delivered %d messages", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order at %d: %d", i, v)
		}
	}
}

func TestBidirectional(t *testing.T) {
	s, sa, sb, _ := testNet(t, 1e9, 1e6)
	var fromClient, fromServer []Message
	sb.Listen(99, func(c *Conn) {
		c.SetOnMessage(func(m Message) {
			fromClient = append(fromClient, m)
			c.Enqueue("reply", 500)
		})
	})
	s.Spawn("client", func(p *sim.Proc) {
		c := Dial(p, sa, 1, 99, DialOptions{})
		c.SetOnMessage(func(m Message) { fromServer = append(fromServer, m) })
		c.Enqueue("req", 250)
	})
	s.Run(1 * sim.Second)
	s.Shutdown()
	if len(fromClient) != 1 || len(fromServer) != 1 {
		t.Fatalf("client->server %d, server->client %d", len(fromClient), len(fromServer))
	}
}

func TestThroughputApproachesLineRate(t *testing.T) {
	s, sa, sb, _ := testNet(t, 1e8, 1e7) // 100 Mb/s
	var rcvd int
	sb.Listen(99, func(c *Conn) {
		c.SetOnMessage(func(m Message) { rcvd += m.Size })
	})
	s.Spawn("client", func(p *sim.Proc) {
		c := Dial(p, sa, 1, 99, DialOptions{})
		for i := 0; i < 200; i++ {
			c.Enqueue(i, 64*1024)
		}
	})
	s.Run(2 * sim.Second)
	s.Shutdown()
	// 100 Mb/s for ~2s = 25 MB ceiling; expect at least half after slow start.
	if rcvd < 10*1024*1024 {
		t.Fatalf("received %d bytes in 2s on 100 Mb/s, want >=10MB", rcvd)
	}
}

func TestLossRecoveryUnderCongestion(t *testing.T) {
	// Two senders into one 10 Mb/s bottleneck port overflow the queue;
	// everything must still arrive, via fast retransmit/RTO.
	s := sim.New()
	n := netsim.New(s)
	r := netsim.NewRouter(n, "r", 1e6, 0)
	const nsend = 4 // 4 x 64KB windows overflow the 128KB port queue
	for a := netsim.Addr(0); a <= nsend; a++ {
		n.NIC(a).Attach(r, 1e7, sim.Microsecond)
	}
	cfg := DefaultConfig(1)
	cfg.ECN = false // force drops, not marks
	dom := NewDomain(n, cfg)
	recv := dom.NewStack(nsend, InstantProcessor{}, CostModel{})
	total := 0
	want := 0
	recv.Listen(99, func(c *Conn) {
		c.SetOnMessage(func(m Message) { total += m.Size })
	})
	for a := netsim.Addr(0); a < nsend; a++ {
		st := dom.NewStack(a, InstantProcessor{}, CostModel{})
		want += 100 * 16 * 1024
		s.Spawn("snd", func(p *sim.Proc) {
			c := Dial(p, st, nsend, 99, DialOptions{MaxRetx: 100})
			for i := 0; i < 100; i++ {
				c.Enqueue(i, 16*1024)
			}
		})
	}
	s.Run(20 * sim.Second)
	s.Shutdown()
	if dom.Retransmits == 0 {
		t.Fatal("expected retransmissions under congestion")
	}
	if total != want {
		t.Fatalf("received %d bytes, want %d (reliability violated)", total, want)
	}
}

func TestECNAvoidsDrops(t *testing.T) {
	s, sa, sb, _ := testNet(t, 1e7, 1e6) // 10 Mb/s bottleneck at host NIC? egress won't mark
	_ = sa
	_ = sb
	_ = s
	// ECN marking happens at router ports; build a dedicated scenario:
	s2 := sim.New()
	n := netsim.New(s2)
	r := netsim.NewRouter(n, "r", 1e6, 0)
	n.NIC(0).Attach(r, 1e9, sim.Microsecond)
	n.NIC(1).Attach(r, 1e7, sim.Microsecond) // slow egress toward receiver
	dom := NewDomain(n, DefaultConfig(1))
	st0 := dom.NewStack(0, InstantProcessor{}, CostModel{})
	st1 := dom.NewStack(1, InstantProcessor{}, CostModel{})
	got := 0
	st1.Listen(9, func(c *Conn) {
		c.SetOnMessage(func(m Message) { got += m.Size })
	})
	s2.Spawn("snd", func(p *sim.Proc) {
		c := Dial(p, st0, 1, 9, DialOptions{})
		for i := 0; i < 100; i++ {
			c.Enqueue(i, 32*1024)
		}
	})
	s2.Run(10 * sim.Second)
	s2.Shutdown()
	if dom.ECNCwndCuts == 0 {
		t.Fatal("expected ECN-induced cwnd cuts")
	}
	if got != 100*32*1024 {
		t.Fatalf("received %d", got)
	}
}

func TestOrderlyClose(t *testing.T) {
	s, sa, sb, _ := testNet(t, 1e9, 1e6)
	serverClosed := false
	var serverReset bool
	sb.Listen(99, func(c *Conn) {
		c.SetOnClose(func(reset bool) { serverClosed = true; serverReset = reset })
	})
	clientOK := false
	s.Spawn("client", func(p *sim.Proc) {
		c := Dial(p, sa, 1, 99, DialOptions{})
		c.Enqueue("x", 1000)
		c.Close()
		clientOK = c.WaitClosed(p)
	})
	s.Run(5 * sim.Second)
	s.Shutdown()
	if !clientOK {
		t.Fatal("client close not orderly")
	}
	if !serverClosed || serverReset {
		t.Fatalf("server closed=%v reset=%v", serverClosed, serverReset)
	}
}

func TestDialNoListenerTimesOut(t *testing.T) {
	s, sa, _, _ := testNet(t, 1e9, 1e6)
	var c *Conn
	done := false
	s.Spawn("client", func(p *sim.Proc) {
		c = Dial(p, sa, 1, 7, DialOptions{MaxRetx: 3})
		done = true
	})
	s.Run(120 * sim.Second)
	s.Shutdown()
	if !done {
		t.Fatal("Dial never returned")
	}
	if c != nil {
		t.Fatal("Dial to missing listener succeeded")
	}
}

func TestResetAfterMaxRetx(t *testing.T) {
	// Kill the path mid-flight by dropping the router's forwarding ability:
	// use a tiny forwarding queue and huge load so everything drops... easier:
	// give the connection maxRetx=1 and a black-holed peer via no listener,
	// covered above. Here verify data-phase reset: stop the sim network by
	// detaching the receiver endpoint.
	s, sa, sb, _ := testNet(t, 1e9, 1e6)
	resetSeen := false
	sb.Listen(99, func(c *Conn) {})
	s.Spawn("client", func(p *sim.Proc) {
		c := Dial(p, sa, 1, 99, DialOptions{MaxRetx: 2})
		if c == nil {
			t.Error("dial failed")
			return
		}
		// Black-hole the peer: remove its conn state so data is ignored
		// (simulates a dead peer).
		for id := range sb.conns {
			delete(sb.conns, id)
		}
		c.SetOnClose(func(reset bool) { resetSeen = reset })
		c.Enqueue("x", 1000)
	})
	s.Run(60 * sim.Second)
	s.Shutdown()
	if !resetSeen {
		t.Fatal("connection did not reset after max retransmissions")
	}
}

func TestCostModelDelaysDelivery(t *testing.T) {
	// A processor that adds fixed latency per operation should slow the
	// transfer measurably.
	run := func(mk func(*sim.Sim) Processor) sim.Time {
		s := sim.New()
		n := netsim.New(s)
		r := netsim.NewRouter(n, "r", 1e6, 0)
		n.NIC(0).Attach(r, 1e9, sim.Microsecond)
		n.NIC(1).Attach(r, 1e9, sim.Microsecond)
		dom := NewDomain(n, DefaultConfig(1))
		proc := mk(s)
		st0 := dom.NewStack(0, proc, CostModel{SendPerSegment: 1})
		st1 := dom.NewStack(1, proc, CostModel{RecvPerSegment: 1})
		var doneAt sim.Time
		st1.Listen(9, func(c *Conn) {
			c.SetOnMessage(func(m Message) { doneAt = s.Now() })
		})
		s.Spawn("snd", func(p *sim.Proc) {
			c := Dial(p, st0, 1, 9, DialOptions{})
			c.Enqueue("m", 60000)
		})
		s.Run(10 * sim.Second)
		s.Shutdown()
		return doneAt
	}
	fast := run(func(*sim.Sim) Processor { return InstantProcessor{} })
	slow := run(func(s *sim.Sim) Processor { return &delayProcessor{s: s, d: 100 * sim.Microsecond} })
	if slow <= fast {
		t.Fatalf("slow processor (%v) not slower than instant (%v)", slow, fast)
	}
}

// delayProcessor completes each work item after a fixed delay.
type delayProcessor struct {
	s *sim.Sim
	d sim.Time
}

func (p *delayProcessor) Process(pathLen float64, done func()) {
	p.s.After(p.d, done)
}

func (p *delayProcessor) ProcessArg(pathLen float64, fn func(any), arg any) {
	p.Process(pathLen, func() { fn(arg) })
}
