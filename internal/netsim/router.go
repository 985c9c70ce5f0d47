package netsim

import (
	"fmt"

	"dclue/internal/sim"
)

// Router is a store-and-forward router. All arriving packets pass through a
// single forwarding engine with a finite rate (packets/second) — the
// resource the paper throttles in its Fig 8 experiment — then are placed on
// the output port toward their destination. Output ports run the diff-serv
// Qdisc, so priority traffic receives priority treatment "only at the
// router", as §3.4 notes.
type Router struct {
	net     *Network
	name    string
	fwdRate float64  // packets per second through the forwarding engine
	latency sim.Time // fixed per-packet forwarding latency

	fwdQ      sim.Queue[*Packet]
	fwdBusy   bool
	fwdLimit  int     // max queued packets in the forwarding engine
	inService *Packet // packet in the forwarding engine
	fwdDoneFn func()  // prebuilt completion (no closure per packet)

	routes      map[Addr]*Qdisc
	defaultPort *Qdisc
	ports       []*port

	// Statistics.
	Forwarded uint64
	FwdDrops  uint64
}

type port struct {
	q    *Qdisc
	link *Link
}

// NewRouter creates a router with the given forwarding rate (pkt/s) and
// fixed forwarding latency, registered on the network.
func NewRouter(n *Network, name string, fwdRate float64, latency sim.Time) *Router {
	r := &Router{
		net:      n,
		name:     name,
		fwdRate:  fwdRate,
		latency:  latency,
		fwdLimit: 4096,
		routes:   make(map[Addr]*Qdisc),
	}
	r.fwdDoneFn = r.fwdDone
	n.routers = append(n.routers, r)
	return r
}

// AddPort attaches an output link to the router: packets routed to this
// port are queued in a fresh Qdisc with cfg and drained onto a link of the
// given bandwidth and propagation delay toward 'to'. The returned port
// handle is used in route entries.
func (r *Router) AddPort(bps float64, prop sim.Time, cfg QdiscConfig, to sink) *Qdisc {
	q := NewQdisc(r.net, cfg)
	if r.net.portSetup != nil {
		r.net.portSetup(q)
	}
	l := NewLink(r.net, bps, prop, q, to)
	r.ports = append(r.ports, &port{q: q, link: l})
	return q
}

// PortLink returns the link behind a port queue (for utilization stats and
// the latency experiments). It panics if q is not one of r's ports.
func (r *Router) PortLink(q *Qdisc) *Link {
	for _, p := range r.ports {
		if p.q == q {
			return p.link
		}
	}
	panic(fmt.Sprintf("netsim: %s: unknown port", r.name))
}

// Route directs packets for addr to the given port.
func (r *Router) Route(addr Addr, q *Qdisc) { r.routes[addr] = q }

// DefaultRoute directs packets with no specific route to the given port.
func (r *Router) DefaultRoute(q *Qdisc) { r.defaultPort = q }

// receive implements sink: a packet arrives from some link.
func (r *Router) receive(pkt *Packet) {
	if r.fwdQ.Len() >= r.fwdLimit {
		r.FwdDrops++
		r.net.Drops++
		r.net.freePacket(pkt)
		return
	}
	r.fwdQ.Push(pkt)
	r.pump()
}

// pump drives the forwarding engine.
func (r *Router) pump() {
	if r.fwdBusy || r.fwdQ.Len() == 0 {
		return
	}
	r.fwdBusy = true
	r.inService = r.fwdQ.Pop()
	service := sim.Time(float64(sim.Second)/r.fwdRate) + r.latency
	r.net.sim.After(service, r.fwdDoneFn)
}

// fwdDone fires when the forwarding engine finishes one packet.
func (r *Router) fwdDone() {
	pkt := r.inService
	r.inService = nil
	r.Forwarded++
	r.forward(pkt)
	r.fwdBusy = false
	r.pump()
}

// forward places the packet on its output port.
func (r *Router) forward(pkt *Packet) {
	q, ok := r.routes[pkt.Dst]
	if !ok {
		q = r.defaultPort
	}
	if q == nil {
		panic(fmt.Sprintf("netsim: %s: no route to %d", r.name, pkt.Dst))
	}
	q.Enqueue(pkt)
}

// Name returns the router's name ("inner" or "outer").
func (r *Router) Name() string { return r.name }

// Ports returns the output-port queues in creation order (read-only view
// for occupancy gauges).
func (r *Router) Ports() []*Qdisc {
	qs := make([]*Qdisc, len(r.ports))
	for i, p := range r.ports {
		qs[i] = p.q
	}
	return qs
}
