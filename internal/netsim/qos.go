package netsim

import "dclue/internal/rng"

// This file implements the parts of the diff-serv design space the paper
// enumerates but leaves unexplored (§3.4): weighted fair queueing as an
// alternative to strict priority, and (W)RED early dropping as an
// alternative to tail drop. The paper's conclusion asks for "QoS schemes
// that can minimize inter-application interference and yet provide a good
// performance for all" — WFQ is the canonical answer, and the ablation
// experiments compare it against the priority arrangement that hurt the
// DBMS so much.

// Discipline selects the scheduling algorithm of a Qdisc.
type Discipline int

const (
	// DiscPriority is strict priority across classes (the paper's setup:
	// higher AF classes preempt best effort at the router).
	DiscPriority Discipline = iota
	// DiscWFQ is weighted fair queueing: classes share the link in
	// proportion to configured weights, so a greedy priority class cannot
	// starve best-effort DBMS traffic.
	DiscWFQ
)

// DropPolicy selects the queue admission algorithm.
type DropPolicy int

const (
	// DropTail drops arrivals once the class queue is full (the paper's
	// routers "use simple tail-drop").
	DropTail DropPolicy = iota
	// DropRED drops arrivals probabilistically between a minimum and
	// maximum threshold (Random Early Detection); with per-class limits
	// this is WRED in the usual router sense.
	DropRED
)

// REDConfig parameterizes DropRED.
type REDConfig struct {
	MinBytes float64 // below this queue depth, never drop
	MaxBytes float64 // above this, drop every arrival
	MaxProb  float64 // drop probability at MaxBytes (linear in between)
}

// DefaultREDConfig drops from 25% to 75% of the limit with 10% max
// probability, per classic RED guidance scaled to the port queues.
func DefaultREDConfig(limitBytes int) REDConfig {
	return REDConfig{
		MinBytes: 0.25 * float64(limitBytes),
		MaxBytes: 0.75 * float64(limitBytes),
		MaxProb:  0.1,
	}
}

// SetDiscipline switches the qdisc's scheduler. WFQ uses the given weights
// (nil means equal weights).
func (q *Qdisc) SetDiscipline(d Discipline, weights []float64) {
	q.discipline = d
	for c := 0; c < NumClasses; c++ {
		w := 1.0
		if c < len(weights) && weights[c] > 0 {
			w = weights[c]
		}
		q.weights[c] = w
	}
}

// SetDropPolicy switches the admission algorithm. rnd supplies the RED coin
// flips; it must be non-nil for DropRED.
func (q *Qdisc) SetDropPolicy(p DropPolicy, red REDConfig, rnd *rng.Stream) {
	q.dropPolicy = p
	q.red = red
	q.rnd = rnd
}

// admit applies the drop policy for a packet arriving at class c. It
// returns false when the packet must be dropped.
func (q *Qdisc) admit(pkt *Packet, c Class) bool {
	limit := q.cfg.LimitBytes[c]
	depth := q.size[c]
	if limit > 0 && depth+pkt.Size > limit {
		return false // hard limit applies under every policy
	}
	if q.dropPolicy == DropRED && q.rnd != nil {
		d := float64(depth)
		switch {
		case d <= q.red.MinBytes:
			// No early drop.
		case d >= q.red.MaxBytes:
			return false
		default:
			p := q.red.MaxProb * (d - q.red.MinBytes) / (q.red.MaxBytes - q.red.MinBytes)
			if q.rnd.Bool(p) {
				return false
			}
		}
	}
	return true
}

// wfqDequeue picks the class whose virtual finish time is smallest: a
// byte-weighted deficit round robin, which approximates WFQ closely enough
// for two classes while staying O(classes).
func (q *Qdisc) wfqDequeue() *Packet {
	// Replenish deficit counters when every backlogged class is exhausted.
	for {
		best := -1
		for c := 0; c < NumClasses; c++ {
			if q.q[c].Len() == 0 {
				continue
			}
			if q.deficit[c] >= float64((*q.q[c].At(0)).Size) {
				if best < 0 || q.deficit[best]/q.weights[best] < q.deficit[c]/q.weights[c] {
					best = c
				}
			}
		}
		if best >= 0 {
			pkt := q.q[best].Pop()
			q.size[best] -= pkt.Size
			q.deficit[best] -= float64(pkt.Size)
			return pkt
		}
		// Nothing eligible: if any class is backlogged, grant quanta.
		backlogged := false
		for c := 0; c < NumClasses; c++ {
			if q.q[c].Len() > 0 {
				backlogged = true
				q.deficit[c] += q.weights[c] * wfqQuantum
			} else {
				q.deficit[c] = 0
			}
		}
		if !backlogged {
			return nil
		}
	}
}

// wfqQuantum is the per-round byte quantum at weight 1.0 (one MTU).
const wfqQuantum = 1518
