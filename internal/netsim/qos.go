package netsim

// This file implements the part of the diff-serv design space the paper
// enumerates but leaves unexplored (§3.4) that the QoS ablation selects:
// weighted fair queueing with equal class weights as an alternative to
// strict priority. The paper's conclusion asks for "QoS schemes that can
// minimize inter-application interference and yet provide a good
// performance for all" — WFQ is the canonical answer, and the ablation
// compares it against the priority arrangement that hurt the DBMS so much.

// Discipline selects the scheduling algorithm of a Qdisc.
type Discipline int

const (
	// DiscPriority is strict priority across classes (the paper's setup:
	// higher AF classes preempt best effort at the router).
	DiscPriority Discipline = iota
	// DiscWFQ is weighted fair queueing with equal weights: backlogged
	// classes share the link evenly, so a greedy priority class cannot
	// starve best-effort DBMS traffic.
	DiscWFQ
)

// SetDiscipline switches the qdisc's scheduler.
func (q *Qdisc) SetDiscipline(d Discipline) { q.discipline = d }

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
				if best < 0 || q.deficit[best] < q.deficit[c] {
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
				q.deficit[c] += wfqQuantum
			} else {
				q.deficit[c] = 0
			}
		}
		if !backlogged {
			return nil
		}
	}
}

// wfqQuantum is the per-round byte quantum of every class (one MTU).
const wfqQuantum = 1518
