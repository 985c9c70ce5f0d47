package netsim

import (
	"dclue/internal/rng"
	"dclue/internal/sim"
	"dclue/internal/telemetry"
)

// Link is a unidirectional wire: it serializes packets at the configured
// bandwidth, then delivers them to the far end after the propagation delay.
// The transmit queue in front of the link is a Qdisc owned by the sending
// device (NIC or router output port); Link itself holds at most the packet
// currently on the wire.
type Link struct {
	net   *Network
	bps   float64 // bandwidth, bits per second
	prop  sim.Time
	to    sink
	qdisc *Qdisc

	busy bool
	cur  *Packet // frame currently being serialized

	// inflight holds frames that finished serialization and are propagating,
	// oldest first. Arrival events pop from the front: the wire is FIFO and
	// the propagation delay is fixed at construction, so this is exact.
	inflight sim.Queue[*Packet]

	// Prebuilt continuations, so serialization and arrival events do not
	// allocate a closure per frame.
	serDoneFn func()
	arriveFn  func()

	// Fault-injection state (all zero on a healthy link). down models a
	// failed wire: everything queued or in flight is lost. stalled models a
	// frozen transmitter (NIC stall): frames queue but nothing is sent, and
	// transmission resumes where it left off. lossP/corruptP are per-packet
	// probabilities drawn from faultRnd at serialization completion.
	down     bool
	stalled  bool
	lossP    float64
	corruptP float64
	faultRnd *rng.Stream

	// Statistics.
	BytesSent  uint64
	PktsSent   uint64
	FaultDrops uint64 // packets lost to injected faults on this link
	busyTime   sim.Time
	lastStart  sim.Time

	// tel, when set, attributes every serialization slice to the packet's
	// traffic class. Nil on untelemetered runs (the fast path).
	tel *telemetry.LinkTel
}

// NewLink creates a link of the given bandwidth (bits/s) and one-way
// propagation delay, draining from q into to. The qdisc notifies the link
// when work arrives.
func NewLink(n *Network, bps float64, prop sim.Time, q *Qdisc, to sink) *Link {
	l := &Link{net: n, bps: bps, prop: prop, to: to, qdisc: q}
	l.serDoneFn = l.serDone
	l.arriveFn = l.arrive
	q.link = l
	return l
}

// SerializationDelay returns the wire time for a packet of the given size.
func (l *Link) SerializationDelay(bytes int) sim.Time {
	return sim.Time(float64(bytes*8) / l.bps * float64(sim.Second))
}

// Queue returns the Qdisc feeding this link (the sending device's transmit
// queue — a NIC egress or a router output port), for occupancy gauges.
func (l *Link) Queue() *Qdisc { return l.qdisc }

// Utilization returns the fraction of elapsed time the wire was busy.
func (l *Link) Utilization() float64 {
	now := l.net.sim.Now()
	if now == 0 {
		return 0
	}
	busy := l.busyTime
	if l.busy {
		busy += now - l.lastStart
	}
	return float64(busy) / float64(now)
}

// kick starts the transmit loop if the wire is idle. Called by the qdisc on
// enqueue and by the link itself on transmit completion.
func (l *Link) kick() {
	if l.busy || l.stalled {
		return
	}
	if l.down {
		// A dead wire loses everything handed to it immediately.
		for {
			pkt := l.qdisc.dequeue()
			if pkt == nil {
				return
			}
			l.dropFault(pkt)
		}
	}
	pkt := l.qdisc.dequeue()
	if pkt == nil {
		return
	}
	l.busy = true
	l.cur = pkt
	l.lastStart = l.net.sim.Now()
	l.net.sim.After(l.SerializationDelay(pkt.Size), l.serDoneFn)
}

// serDone fires when the frame on the wire finishes serializing.
func (l *Link) serDone() {
	pkt := l.cur
	l.cur = nil
	now := l.net.sim.Now()
	l.busyTime += now - l.lastStart
	// The identical integer slice just added to busyTime, attributed to
	// exactly one class: per-class sums equal BusyTime exactly. Recorded
	// before the fault-drop check because a dropped frame still consumed
	// its wire time.
	l.tel.OnTransmit(pkt.TC, l.lastStart, now, pkt.Size)
	l.busy = false
	if l.down || (l.lossP > 0 && l.faultRnd != nil && l.faultRnd.Float64() < l.lossP) {
		// Lost on the wire: the frame consumed its serialization slot
		// but never arrives (link went down mid-flight, or burst loss).
		l.dropFault(pkt)
		l.kick()
		return
	}
	if l.corruptP > 0 && l.faultRnd != nil && l.faultRnd.Float64() < l.corruptP {
		pkt.Corrupt = true
	}
	l.BytesSent += uint64(pkt.Size)
	l.PktsSent++
	// Propagation: the wire is free for the next frame while this one
	// flies.
	l.inflight.Push(pkt)
	l.net.sim.After(l.prop, l.arriveFn)
	l.kick()
}

// arrive fires when the oldest propagating frame reaches the far end.
func (l *Link) arrive() {
	l.to.receive(l.inflight.Pop())
}

// dropFault discards a packet lost to an injected fault.
func (l *Link) dropFault(pkt *Packet) {
	l.FaultDrops++
	l.net.FaultDrops++
	l.net.Drops++
	l.net.freePacket(pkt)
}

// SetFaultRand installs the random stream used for loss/corruption draws.
// Each link should get its own derived stream so fault draws on one link
// never perturb another (common-random-numbers discipline).
func (l *Link) SetFaultRand(r *rng.Stream) { l.faultRnd = r }

// SetDown raises or clears a link-down fault. Bringing the link down drops
// everything already queued; packets enqueued while down are dropped as they
// arrive. The packet currently being serialized (if any) is lost when its
// serialization completes.
func (l *Link) SetDown(down bool) {
	l.down = down
	if !l.busy {
		l.kick()
	}
}

// SetStalled freezes or resumes the transmitter. Unlike a down link, a
// stalled link keeps its queue: frames accumulate (subject to qdisc limits)
// and transmission resumes when the stall clears.
func (l *Link) SetStalled(stalled bool) {
	l.stalled = stalled
	if !stalled && !l.busy {
		l.kick()
	}
}

// SetLoss sets the per-packet drop probability (0 disables). Draws come
// from the stream installed with SetFaultRand.
func (l *Link) SetLoss(p float64) { l.lossP = p }

// SetCorrupt sets the per-packet corruption probability (0 disables).
// Corrupted frames travel the fabric normally but are discarded by the
// receiving host's checksum, so the transport sees them as losses.
func (l *Link) SetCorrupt(p float64) { l.corruptP = p }

// Down reports whether a link-down fault is active.
func (l *Link) Down() bool { return l.down }

// BusyTime returns the accumulated wire time of completed serializations —
// the exact integer total the telemetry layer's per-class attribution must
// sum to.
func (l *Link) BusyTime() sim.Time { return l.busyTime }

// SetTelemetry attaches a per-class busy-time instrument (nil detaches).
func (l *Link) SetTelemetry(t *telemetry.LinkTel) { l.tel = t }
