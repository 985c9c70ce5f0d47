// Package tcp models TCP Reno (with SACK-style loss recovery and ECN) at
// segment granularity over the netsim fabric. It provides message framing —
// the unit the DBMS layers think in — on top of the byte stream, and charges
// configurable protocol-processing path lengths to a host Processor so that
// software vs. hardware (offloaded) TCP can be compared, as in the paper's
// Fig 11.
package tcp

import (
	"fmt"
	"sort"

	"dclue/internal/netsim"
	"dclue/internal/sim"
)

// MSS is the maximum segment payload in bytes (Ethernet MTU minus headers).
const MSS = 1460

// HeaderBytes is the per-segment wire overhead (Ethernet+IP+TCP).
const HeaderBytes = 58

// Processor schedules protocol-processing work on a host CPU. The platform
// package implements it; tests can use instant processors. Process must
// eventually invoke done in kernel context, and ProcessArg fn(arg): the
// per-segment hot path's form, whose prebuilt continuation spares the
// caller a closure per task.
type Processor interface {
	Process(pathLen float64, done func())
	ProcessArg(pathLen float64, fn func(any), arg any)
}

// InstantProcessor is a Processor with zero cost (ideal full offload).
type InstantProcessor struct{}

// Process implements Processor by completing immediately.
func (InstantProcessor) Process(pathLen float64, done func()) { done() }

// ProcessArg implements Processor by completing immediately.
func (InstantProcessor) ProcessArg(pathLen float64, fn func(any), arg any) { fn(arg) }

// CostModel gives the path lengths (instructions) charged for protocol
// processing. Separate send and receive costs capture the copy asymmetry
// the paper cites (one copy on send, two on receive for software TCP).
type CostModel struct {
	SendPerSegment float64 // per outbound segment
	SendPerByte    float64 // per outbound payload byte
	RecvPerSegment float64 // per inbound segment (incl. pure ACKs)
	RecvPerByte    float64 // per inbound payload byte
	ConnSetup      float64 // per connection establishment/teardown event
}

// SendCost returns the instructions to transmit one segment.
func (c CostModel) SendCost(payload int) float64 {
	return c.SendPerSegment + c.SendPerByte*float64(payload)
}

// RecvCost returns the instructions to receive one segment.
func (c CostModel) RecvCost(payload int) float64 {
	return c.RecvPerSegment + c.RecvPerByte*float64(payload)
}

// Config sets the transport parameters for a Domain.
type Config struct {
	RecvWindowBytes int      // advertised receive window (paper: 64 KB)
	MinRTO          sim.Time // clamp on the retransmission timer
	InitialRTO      sim.Time
	MaxRTO          sim.Time
	ECN             bool // negotiate ECN on all connections
}

// DefaultConfig returns the paper's configuration at the given system scale
// factor: 64 KB receive buffers, SACK and ECN on, and TCP timer values
// "reduced by 100X" from the RFC defaults (§2.3). At the paper's scale
// factor of 100 the minimum RTO is 200 ms against worst-case queueing RTTs
// of ~50 ms on the scaled 10 Mb/s links (64 KB of window draining at line
// rate), preserving the real-world property that the RTO floor sits safely
// above the RTT so timeouts remain a last resort behind fast retransmit.
func DefaultConfig(scale float64) Config {
	unit := scale / 100
	return Config{
		RecvWindowBytes: 64 * 1024,
		MinRTO:          sim.Time(200 * unit * float64(sim.Millisecond)),
		InitialRTO:      sim.Time(600 * unit * float64(sim.Millisecond)),
		MaxRTO:          sim.Time(6 * unit * float64(sim.Second)),
		ECN:             true,
	}
}

// Domain is a collection of stacks sharing a fabric and configuration.
type Domain struct {
	sim    *sim.Sim
	net    *netsim.Network
	cfg    Config
	nextID uint64

	// segPool recycles wire segments: the sender draws from the pool, the
	// receiving stack returns each segment once it has been fully consumed.
	// Segments dropped in the fabric fall to the garbage collector; the
	// network counts each one in AbandonedPayloads, which is what keeps
	// PoolOutstanding auditable after a faulted run.
	segPool []*segment

	// segAllocs/segFrees audit the pool contract; see PoolOutstanding.
	segAllocs, segFrees int64

	// Domain-wide statistics.
	SegsSent     uint64
	SegsRecv     uint64
	Retransmits  uint64
	Resets       uint64
	Handshakes   uint64
	ECNCwndCuts  uint64
	FastRecovers uint64
}

// NewDomain creates a TCP domain over the given network.
func NewDomain(n *netsim.Network, cfg Config) *Domain {
	return &Domain{sim: n.Sim(), net: n, cfg: cfg}
}

// PoolOutstanding reports how many pool-drawn segments are live. After a
// run in which every connection finished or was aborted, the only legal
// residue is the segments the fabric dropped with their packets
// (netsim.Network.AbandonedPayloads); anything beyond that is a leak.
func (d *Domain) PoolOutstanding() int {
	return int(d.segAllocs - d.segFrees)
}

// allocSeg draws a zeroed segment from the pool; the caller owns it and
// must send it or free it on every path.
//
//pool:alloc
func (d *Domain) allocSeg() *segment {
	d.segAllocs++
	if n := len(d.segPool); n > 0 {
		seg := d.segPool[n-1]
		d.segPool[n-1] = nil
		d.segPool = d.segPool[:n-1]
		return seg
	}
	return &segment{}
}

// freeSeg recycles a fully-consumed segment, keeping its sack buffer.
//
//pool:free
func (d *Domain) freeSeg(seg *segment) {
	d.segFrees++
	sacks := seg.sacks[:0]
	*seg = segment{}
	seg.sacks = sacks
	d.segPool = append(d.segPool, seg)
}

// Stack is one host's TCP instance. It implements netsim.Endpoint.
type Stack struct {
	dom       *Domain
	addr      netsim.Addr
	proc      Processor
	costs     CostModel
	conns     map[uint64]*Conn
	listeners map[int]func(*Conn)

	// Prebuilt continuations for the per-segment hot path.
	recvFn func(any)
	sendFn func(any)
}

// NewStack creates a host stack at addr, registers it as the NIC endpoint,
// and charges protocol work to proc using costs.
func (d *Domain) NewStack(addr netsim.Addr, proc Processor, costs CostModel) *Stack {
	st := &Stack{
		dom:       d,
		addr:      addr,
		proc:      proc,
		costs:     costs,
		conns:     make(map[uint64]*Conn),
		listeners: make(map[int]func(*Conn)),
	}
	st.recvFn = func(v any) { st.handleSegment(v.(*segment)) }
	st.sendFn = func(v any) { st.putOnWire(v.(*segment)) }
	d.net.NIC(addr).SetEndpoint(st)
	return st
}

// Addr returns the stack's fabric address.
func (s *Stack) Addr() netsim.Addr { return s.addr }

// Domain returns the stack's domain.
func (s *Stack) Domain() *Domain { return s.dom }

// SetProcessor repoints protocol work at a new CPU complex; a restarted node
// keeps its stack (peers hold its address) but boots fresh processors.
func (s *Stack) SetProcessor(proc Processor) { s.proc = proc }

// AbortConns abandons every connection on the stack without wire traffic —
// the node lost power; nothing it could say would reach anyone. Connections
// die in id order so teardown side effects stay deterministic.
func (s *Stack) AbortConns() {
	ids := make([]uint64, 0, len(s.conns))
	for id := range s.conns {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if c, ok := s.conns[id]; ok {
			c.Abort()
		}
	}
}

// Listen registers accept for connections arriving on port. The callback
// runs in kernel context once the connection is established.
func (s *Stack) Listen(port int, accept func(*Conn)) {
	if _, dup := s.listeners[port]; dup {
		panic(fmt.Sprintf("tcp: duplicate listener on port %d", port))
	}
	s.listeners[port] = accept
}

// Deliver implements netsim.Endpoint: an inbound frame. The packet is
// consumed within this call (netsim recycles it on return); only the payload
// segment travels on into protocol processing.
func (s *Stack) Deliver(pkt *netsim.Packet) {
	seg := pkt.Payload.(*segment)
	if pkt.Marked {
		seg.marked = true
	}
	s.dom.SegsRecv++
	s.proc.ProcessArg(s.costs.RecvCost(seg.payload), s.recvFn, seg)
}

// handleSegment runs after receive-side protocol processing. It recycles the
// segment unless the connection retained it (out-of-order data waiting for
// reassembly).
func (s *Stack) handleSegment(seg *segment) {
	if seg.kind == segSYN {
		s.handleSYN(seg, seg.from)
		s.dom.freeSeg(seg)
		return
	}
	c, ok := s.conns[seg.conn]
	if !ok {
		s.dom.freeSeg(seg) // connection gone (reset/closed); drop silently
		return
	}
	if !c.handleSegment(seg) {
		s.dom.freeSeg(seg)
	}
}

// handleSYN creates the passive side of a connection.
func (s *Stack) handleSYN(seg *segment, from netsim.Addr) {
	if c, ok := s.conns[seg.conn]; ok {
		// Retransmitted SYN: resend SYNACK.
		c.sendControl(segSYNACK)
		return
	}
	accept, ok := s.listeners[seg.port]
	if !ok {
		return // no listener: black-hole (dialer will time out)
	}
	c := newConn(s, seg.conn, from, seg.class, seg.tc, seg.ecnOn, seg.maxRetx)
	c.state = stSynRcvd
	c.acceptFn = accept
	s.conns[seg.conn] = c
	s.proc.Process(s.costs.ConnSetup, func() { c.sendControl(segSYNACK) })
}

// sendSegment stamps the frame and pushes it through send-side processing
// onto the wire. It takes ownership of the segment: after protocol
// processing it rides a packet into the fabric, where it is either
// delivered to the peer stack (which frees or retains it) or dies with the
// packet. The hand-off happens through a processor continuation the
// ownership engine cannot follow, hence the explicit contract.
//
//pool:sink
func (s *Stack) sendSegment(seg *segment, to netsim.Addr) {
	s.dom.SegsSent++
	seg.from = s.addr
	seg.to = to
	s.proc.ProcessArg(s.costs.SendCost(seg.payload), s.sendFn, seg)
}

// putOnWire wraps the segment in a (pooled) packet and injects it into the
// fabric; runs after send-side protocol processing.
func (s *Stack) putOnWire(seg *segment) {
	pkt := s.dom.net.AllocPacket()
	pkt.Src = s.addr
	pkt.Dst = seg.to
	pkt.Size = seg.payload + HeaderBytes
	pkt.Class = seg.class
	pkt.TC = seg.tc
	pkt.ECN = seg.ecnOn && seg.kind == segData
	pkt.Payload = seg
	s.dom.net.Send(pkt)
}
