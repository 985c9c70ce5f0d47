package tcp

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"dclue/internal/netsim"
	"dclue/internal/rng"
	"dclue/internal/sim"
)

// ackRecorder is a Processor for a receive-only stack: it runs inbound
// work at once and, in place of putting an outbound ACK on the wire,
// records its cumulative ack and SACK list and recycles it.
type ackRecorder struct {
	dom  *Domain
	acks []recordedAck
}

type recordedAck struct {
	ack   int
	sacks []int
}

func (r *ackRecorder) Process(pathLen float64, done func()) { done() }

func (r *ackRecorder) ProcessArg(pathLen float64, fn func(any), arg any) {
	seg := arg.(*segment)
	r.acks = append(r.acks, recordedAck{ack: seg.ack, sacks: slices.Clone(seg.sacks)})
	r.dom.freeSeg(seg)
}

// refReassembly is a reference receive side: held out-of-order sequence
// numbers in a map, sorted whenever they are listed.
type refReassembly struct {
	rcvNxt    int
	held      map[int]bool
	delivered []int
}

func (r *refReassembly) arrive(seq int) {
	switch {
	case seq < r.rcvNxt:
	case seq == r.rcvNxt:
		r.delivered = append(r.delivered, seq)
		r.rcvNxt++
		for r.held[r.rcvNxt] {
			delete(r.held, r.rcvNxt)
			r.delivered = append(r.delivered, r.rcvNxt)
			r.rcvNxt++
		}
	default:
		r.held[seq] = true
	}
}

func (r *refReassembly) sortedHeld() []int {
	seqs := make([]int, 0, len(r.held))
	for seq := range r.held {
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)
	return seqs
}

// TestReassemblyMatchesReference feeds a connection's receive side random
// arrival orders with gaps and duplicates, every sequence number within the
// receive window a sender may use, and checks it against refReassembly:
// messages are delivered in sequence order, every ACK carries the
// reference's cumulative ack and its lowest 16 held sequence numbers in
// ascending order, and teardown returns every held segment to the pool in
// sequence order.
func TestReassemblyMatchesReference(t *testing.T) {
	r := rng.Derive(1, "reassembly-oracle")
	maxHeld, tornDown := 0, 0
	for trial := 0; trial < 200; trial++ {
		t.Run(fmt.Sprint(trial), func(t *testing.T) {
			most, atTeardown := checkReassembly(t, r, 20+r.Intn(400))
			maxHeld = max(maxHeld, most)
			tornDown += atTeardown
		})
	}
	if maxHeld <= 16 || tornDown == 0 {
		t.Fatalf("walk did not engage: at most %d segments held, %d freed at teardown", maxHeld, tornDown)
	}
}

// checkReassembly runs one connection through the given number of random
// arrivals, then aborts it. It returns the most segments held at once and
// the number held at teardown.
func checkReassembly(t *testing.T, r *rng.Stream, arrivals int) (maxHeld, atTeardown int) {
	n := netsim.New(sim.New())
	dom := NewDomain(n, DefaultConfig(1))
	rec := &ackRecorder{dom: dom}
	st := dom.NewStack(1, rec, CostModel{})
	c := newConn(st, 1, 0, 0, 0, false, DefaultMaxRetx)
	c.state = stEstablished
	st.conns[c.id] = c
	var delivered []int
	c.SetOnMessage(func(m Message) { delivered = append(delivered, m.Meta.(int)) })

	ref := &refReassembly{held: map[int]bool{}}
	retained := map[int]*segment{} // the held copy of each out-of-order seq
	for i := 0; i < arrivals; i++ {
		// The sender never passes rcvNxt+rwndSegs; some arrivals repeat
		// delivered or held sequence numbers.
		seq := ref.rcvNxt + r.Intn(c.rwndSegs)
		if ref.rcvNxt > 0 && r.Bool(0.1) {
			seq = ref.rcvNxt - 1 - r.Intn(min(ref.rcvNxt, 4))
		}
		seg := dom.allocSeg()
		seg.conn, seg.kind, seg.seq = c.id, segData, seq
		seg.payload, seg.meta, seg.msgSize = 100, seq, 100
		if seq > ref.rcvNxt && !ref.held[seq] {
			retained[seq] = seg
		}
		st.handleSegment(seg)
		ref.arrive(seq)

		if !slices.Equal(delivered, ref.delivered) {
			t.Fatalf("arrival %d (seq %d): delivered %v, reference %v", i, seq, delivered, ref.delivered)
		}
		held := ref.sortedHeld()
		want := held[:min(len(held), 16)]
		if len(rec.acks) != i+1 {
			t.Fatalf("arrival %d (seq %d): %d ACKs sent, want one per arrival", i, seq, len(rec.acks))
		}
		got := rec.acks[i]
		if got.ack != ref.rcvNxt || !slices.Equal(got.sacks, want) {
			t.Fatalf("arrival %d (seq %d): ACK %d SACK %v, reference %d SACK %v", i, seq, got.ack, got.sacks, ref.rcvNxt, want)
		}
		if c.oob.Len() > c.rwndSegs || c.oob.Len() > 0 && *c.oob.At(0) != nil {
			t.Fatalf("arrival %d (seq %d): ring of %d slots, window %d, slot 0 filled", i, seq, c.oob.Len(), c.rwndSegs)
		}
		maxHeld = max(maxHeld, len(held))
	}
	for seq := range retained {
		if !ref.held[seq] {
			delete(retained, seq)
		}
	}

	held := ref.sortedHeld()
	c.Abort()
	if got, want := dom.PoolOutstanding(), int(n.AbandonedPayloads); got != want {
		t.Fatalf("%d segments outstanding after teardown with %d held, want %d", got, len(held), want)
	}
	freed := dom.segPool[len(dom.segPool)-len(held):]
	for i, seq := range held {
		if freed[i] != retained[seq] {
			t.Fatalf("teardown freed the held segments %v out of sequence order", held)
		}
	}
	return maxHeld, len(held)
}
