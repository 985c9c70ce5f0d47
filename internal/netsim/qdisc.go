package netsim

import (
	"dclue/internal/sim"
	"dclue/internal/telemetry"
)

// QdiscConfig sets the per-class queue limits of an output queue.
type QdiscConfig struct {
	// LimitBytes is the per-class tail-drop limit. Classes beyond the slice
	// reuse the last entry. The paper notes OPNET gives higher AF classes a
	// larger queue in addition to priority treatment.
	LimitBytes [NumClasses]int
	// ECNThresholdBytes marks (rather than drops) ECN-capable packets once
	// a class queue exceeds this depth. Zero disables marking.
	ECNThresholdBytes int
}

// DefaultQdiscConfig returns the configuration used for router ports:
// best-effort gets a 128 KB queue, AF21 a 256 KB queue (the paper notes
// OPNET gives higher AF classes larger queues), and ECN marking starts at
// 48 KB — below the 64 KB TCP receive window so even a single bulk flow is
// signalled before it fills the port.
func DefaultQdiscConfig() QdiscConfig {
	return QdiscConfig{
		LimitBytes:        [NumClasses]int{128 * 1024, 256 * 1024},
		ECNThresholdBytes: 48 * 1024,
	}
}

// Qdisc is the output queue at every NIC and router output port. The
// default configuration matches the paper: strict priority across classes
// with tail drop and optional ECN marking; WFQ scheduling is available for
// the QoS ablation (see qos.go).
type Qdisc struct {
	net  *Network
	cfg  QdiscConfig
	q    [NumClasses]sim.Queue[*Packet]
	size [NumClasses]int // queued bytes per class
	link *Link

	discipline Discipline
	deficit    [NumClasses]float64

	// Statistics.
	DropsByClass [NumClasses]uint64
	MaxDepth     int

	// tel, when set, tracks byte occupancy at every enqueue/dequeue. Nil on
	// untelemetered runs (the fast path).
	tel *telemetry.QueueTel
}

// SetTelemetry attaches a queue-occupancy instrument (nil detaches).
func (q *Qdisc) SetTelemetry(t *telemetry.QueueTel) { q.tel = t }

// NewQdisc returns an empty queue with the given limits, in the paper's
// default arrangement (strict priority, tail drop).
func NewQdisc(n *Network, cfg QdiscConfig) *Qdisc {
	return &Qdisc{net: n, cfg: cfg}
}

// Enqueue adds pkt, applying tail drop and ECN marking, and kicks the
// attached link.
func (q *Qdisc) Enqueue(pkt *Packet) {
	c := pkt.Class
	if c < 0 || c >= NumClasses {
		c = ClassBestEffort
		pkt.Class = c
	}
	if limit := q.cfg.LimitBytes[c]; limit > 0 && q.size[c]+pkt.Size > limit {
		q.DropsByClass[c]++
		q.net.Drops++
		q.net.freePacket(pkt)
		return
	}
	if q.cfg.ECNThresholdBytes > 0 && pkt.ECN && !pkt.Marked &&
		q.size[c] > q.cfg.ECNThresholdBytes {
		pkt.Marked = true
		q.net.Marks++
	}
	q.q[c].Push(pkt)
	q.size[c] += pkt.Size
	d := q.Depth()
	if d > q.MaxDepth {
		q.MaxDepth = d
	}
	q.tel.OnDepth(q.net.sim.Now(), d)
	if q.link != nil {
		q.link.kick()
	}
}

// dequeue removes the next packet under the configured discipline, handing
// ownership back to the caller (the link), or nil when every class is
// empty.
//
//pool:alloc
func (q *Qdisc) dequeue() *Packet {
	pkt := q.pick()
	if pkt != nil {
		q.tel.OnDepth(q.net.sim.Now(), q.Depth())
	}
	return pkt
}

// pick removes the next packet without touching instrumentation.
func (q *Qdisc) pick() *Packet {
	if q.discipline == DiscWFQ {
		return q.wfqDequeue()
	}
	// Strict priority: highest class first, FIFO within class.
	for c := NumClasses - 1; c >= 0; c-- {
		if q.q[c].Len() > 0 {
			pkt := q.q[c].Pop()
			q.size[c] -= pkt.Size
			return pkt
		}
	}
	return nil
}

// Depth returns the total queued bytes across classes.
func (q *Qdisc) Depth() int {
	total := 0
	for _, s := range q.size {
		total += s
	}
	return total
}

// Len returns the total queued packet count across classes.
func (q *Qdisc) Len() int {
	total := 0
	for c := range q.q {
		total += q.q[c].Len()
	}
	return total
}
