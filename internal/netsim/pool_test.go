package netsim

import (
	"testing"

	"dclue/internal/rng"
	"dclue/internal/sim"
)

// nullEndpoint consumes deliveries without recording (so pool tests can
// measure the fabric's own allocations, not the recorder's).
type nullEndpoint struct{ delivered int }

func (e *nullEndpoint) Deliver(pkt *Packet) { e.delivered++ }

// TestPacketPoolHitPathDoesNotAllocate pins the pool's purpose: once a
// packet has been through the pool, the alloc/free cycle touches the heap
// zero times. A regression here (e.g. freePacket dropping packets, or
// AllocPacket ignoring the pool) silently reintroduces per-packet GC work
// on the wire path.
func TestPacketPoolHitPathDoesNotAllocate(t *testing.T) {
	s := sim.New()
	n := New(s)
	n.freePacket(n.AllocPacket()) // warm: pool holds one packet
	allocs := testing.AllocsPerRun(100, func() {
		n.freePacket(n.AllocPacket())
	})
	if allocs != 0 {
		t.Fatalf("pool hit path allocates %.1f objects per cycle, want 0", allocs)
	}
}

// TestQdiscPassThroughDoesNotAllocate: once a qdisc's class queues have
// grown to their high-water mark, packets pass through Enqueue and dequeue
// without touching the heap, under strict priority and under WFQ, one at a
// time and in bursts that mix the classes.
func TestQdiscPassThroughDoesNotAllocate(t *testing.T) {
	for _, disc := range []struct {
		name string
		d    Discipline
	}{{"priority", DiscPriority}, {"wfq", DiscWFQ}} {
		for _, burst := range []int{1, 4} {
			n := New(sim.New())
			q := NewQdisc(n, bigCfg())
			q.SetDiscipline(disc.d)
			pkts := make([]*Packet, burst)
			for i := range pkts {
				pkts[i] = n.AllocPacket()
				pkts[i].Size = 1000
				pkts[i].Class = Class(i % NumClasses)
			}
			passed := 0
			cycle := func() {
				for _, pkt := range pkts {
					q.Enqueue(pkt)
				}
				for range pkts {
					if q.dequeue() != nil {
						passed++
					}
				}
			}
			if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
				t.Errorf("%s, %d in %d out: %v allocs/op, want 0", disc.name, burst, burst, avg)
			}
			if want := 101 * burst; passed != want || q.Len() != 0 {
				t.Errorf("%s, %d in %d out: %d packets out of %d, %d left queued", disc.name, burst, burst, passed, want, q.Len())
			}
			for _, pkt := range pkts {
				n.freePacket(pkt)
			}
		}
	}
}

// TestPoolBalancedAfterLossyRun is the runtime witness for the static
// ownership contract under faults: every pool-drawn packet injected into a
// lossy fabric dies exactly once — delivered, tail-dropped, or lost to the
// fault — and is recycled where it dies. Payload accounting must agree:
// a packet abandoned with its payload attached is counted once per drop,
// and delivered payloads are never counted.
func TestPoolBalancedAfterLossyRun(t *testing.T) {
	s := sim.New()
	n := New(s)
	r := NewRouter(n, "r", 1e6, 0)
	a := n.NIC(0)
	b := n.NIC(1)
	a.Attach(r, 1e9, sim.Microsecond)
	b.Attach(r, 1e9, sim.Microsecond)
	ep := &nullEndpoint{}
	b.SetEndpoint(ep)

	link := a.Link()
	link.SetFaultRand(rng.Derive(7, "fault/pool-test"))
	link.SetLoss(0.5)

	type payload struct{ seq int }
	const sent = 200
	for i := 0; i < sent; i++ {
		pkt := n.AllocPacket()
		pkt.Src, pkt.Dst, pkt.Size = 0, 1, 1500
		pkt.Payload = &payload{seq: i}
		n.Send(pkt)
		if i%16 == 0 {
			s.RunAll() // interleave drain so queues see varied depth
		}
	}
	s.RunAll()

	if out := n.PoolOutstanding(); out != 0 {
		t.Fatalf("pool outstanding %d after quiesce, want 0 (leaked packets)", out)
	}
	if n.FaultDrops == 0 {
		t.Fatal("loss schedule injected no drops; the test exercised nothing")
	}
	// Drops already folds in fault and tail drops; corrupt frames are
	// discarded at the receiver and counted separately.
	wantAbandoned := n.Drops + n.CorruptDrops
	if n.AbandonedPayloads != wantAbandoned {
		t.Fatalf("abandoned payloads %d, want drops+corruptDrops = %d",
			n.AbandonedPayloads, wantAbandoned)
	}
	if got := uint64(ep.delivered) + n.AbandonedPayloads; got != sent {
		t.Fatalf("delivered %d + abandoned %d != sent %d (a packet died twice or not at all)",
			ep.delivered, n.AbandonedPayloads, sent)
	}
}
