package netsim

import "dclue/internal/sim"

// NIC is an endpoint's network interface: an egress queue + link toward the
// attached router, and the delivery point for inbound packets.
type NIC struct {
	net      *Network
	addr     Addr
	endpoint Endpoint
	egress   *Qdisc
	link     *Link

	// Loopback frames in flight (constant local delay, so strictly FIFO)
	// and the prebuilt delivery continuation.
	loopQ  sim.Queue[*Packet]
	loopFn func()
}

// Addr returns the NIC's fabric address.
func (nic *NIC) Addr() Addr { return nic.addr }

// SetEndpoint registers the consumer of inbound packets.
func (nic *NIC) SetEndpoint(e Endpoint) { nic.endpoint = e }

// Attach wires the NIC's egress to a router via a link of the given
// bandwidth and propagation delay, and returns the router-side port that
// must carry return traffic (the caller routes the NIC's address to it).
//
// Host egress queues are deliberately generous (hosts feel backpressure via
// TCP, not local drops): 1 MB per class.
func (nic *NIC) Attach(r *Router, bps float64, prop sim.Time) *Qdisc {
	cfg := QdiscConfig{
		LimitBytes:        [NumClasses]int{1 << 20, 1 << 20},
		ECNThresholdBytes: 0,
	}
	nic.egress = NewQdisc(nic.net, cfg)
	nic.link = NewLink(nic.net, bps, prop, nic.egress, r)
	// Return path: a port on the router back to this NIC.
	back := r.AddPort(bps, prop, DefaultQdiscConfig(), nic)
	r.Route(nic.addr, back)
	return back
}

// Link returns the NIC's uplink (for utilization stats).
func (nic *NIC) Link() *Link { return nic.link }

// transmit queues an outbound packet on the egress qdisc.
func (nic *NIC) transmit(pkt *Packet) {
	if pkt.Dst == nic.addr {
		// Loopback: deliver after a negligible local delay without touching
		// the fabric.
		if nic.loopFn == nil {
			nic.loopFn = func() { nic.net.deliver(nic.loopQ.Pop()) }
		}
		nic.loopQ.Push(pkt)
		nic.net.sim.After(sim.Microsecond, nic.loopFn)
		return
	}
	nic.egress.Enqueue(pkt)
}

// receive implements sink for inbound packets from the router.
func (nic *NIC) receive(pkt *Packet) { nic.net.deliver(pkt) }
