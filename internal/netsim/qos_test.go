package netsim

import (
	"testing"

	"dclue/internal/sim"
)

// drainRatio saturates a qdisc with both classes and measures the byte
// share each receives over the first n dequeues.
func drainRatio(q *Qdisc, n int) (be, af int) {
	for i := 0; i < 200; i++ {
		q.Enqueue(&Packet{Size: 1000, Class: ClassBestEffort})
		q.Enqueue(&Packet{Size: 1000, Class: ClassAF21})
	}
	for i := 0; i < n; i++ {
		pkt := q.dequeue()
		if pkt == nil {
			break
		}
		if pkt.Class == ClassAF21 {
			af += pkt.Size
		} else {
			be += pkt.Size
		}
	}
	return
}

func bigCfg() QdiscConfig {
	return QdiscConfig{LimitBytes: [NumClasses]int{1 << 20, 1 << 20}}
}

func TestPriorityStarvesBestEffort(t *testing.T) {
	s := sim.New()
	n := New(s)
	q := NewQdisc(n, bigCfg())
	be, af := drainRatio(q, 100)
	if be != 0 {
		t.Fatalf("priority let %d best-effort bytes through while AF backlogged", be)
	}
	if af == 0 {
		t.Fatal("nothing dequeued")
	}
}

func TestWFQSharesEvenly(t *testing.T) {
	s := sim.New()
	n := New(s)
	q := NewQdisc(n, bigCfg())
	q.SetDiscipline(DiscWFQ)
	be, af := drainRatio(q, 200)
	if be == 0 || af == 0 {
		t.Fatalf("WFQ starved a class: be=%d af=%d", be, af)
	}
	ratio := float64(af) / float64(be)
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("equal-weight WFQ ratio %.2f, want ~1", ratio)
	}
}

func TestWFQDrainsCompletely(t *testing.T) {
	s := sim.New()
	n := New(s)
	q := NewQdisc(n, bigCfg())
	q.SetDiscipline(DiscWFQ)
	for i := 0; i < 10; i++ {
		q.Enqueue(&Packet{Size: 500, Class: ClassBestEffort})
	}
	got := 0
	for q.dequeue() != nil {
		got++
	}
	if got != 10 {
		t.Fatalf("drained %d of 10", got)
	}
	if q.Len() != 0 {
		t.Fatal("queue not empty")
	}
}

// TestWFQProtectsDBMSUnderCrossTraffic is the end-to-end point of the
// extension: with FTP at AF21, strict priority lets FTP bytes monopolize a
// congested link, while WFQ preserves roughly the configured share for
// best-effort (DBMS) traffic.
func TestWFQProtectsDBMSUnderCrossTraffic(t *testing.T) {
	run := func(wfq bool) (beDelay sim.Time) {
		s := sim.New()
		n := New(s)
		r := NewRouter(n, "r", 1e6, 0)
		n.NIC(0).Attach(r, 1e9, sim.Microsecond)
		back := n.NIC(1).Attach(r, 1e7, sim.Microsecond) // 10 Mb/s bottleneck
		n.NIC(1).SetEndpoint(&collector{s: s})
		if wfq {
			back.SetDiscipline(DiscWFQ)
		}
		// Saturating AF21 aggressor plus sparse best-effort probes.
		s.Spawn("load", func(p *sim.Proc) {
			for i := 0; i < 2000; i++ {
				n.Send(&Packet{Src: 0, Dst: 1, Size: 1500, Class: ClassAF21})
				if i%20 == 0 {
					n.Send(&Packet{Src: 0, Dst: 1, Size: 250, Class: ClassBestEffort})
				}
				p.Sleep(sim.Millisecond) // ~12 Mb/s offered AF21
			}
		})
		s.Run(3 * sim.Second)
		s.Shutdown()
		return n.DelayByClass[ClassBestEffort].Mean()
	}
	prio := run(false)
	wfq := run(true)
	if wfq >= prio {
		t.Fatalf("WFQ did not reduce best-effort delay: %v vs %v under priority", wfq, prio)
	}
}
