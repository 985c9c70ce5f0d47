package tcp

import (
	"dclue/internal/netsim"
	"dclue/internal/sim"
	"dclue/internal/telemetry"
)

// Connection states.
type connState int

const (
	stSynSent connState = iota
	stSynRcvd
	stEstablished
	stFinWait // our FIN sent, awaiting ack
	stClosed  // orderly shutdown complete
	stReset   // torn down after too many retransmissions
)

// DefaultMaxRetx is the consecutive-RTO limit before a connection resets.
// The paper bumps this "to rather high values" for the static DBMS
// connections so overload cannot reset them.
const DefaultMaxRetx = 10

// Message is one framed application message delivered by a connection.
type Message struct {
	Meta any
	Size int
}

// Conn is one endpoint of a TCP connection.
type Conn struct {
	stack   *Stack
	id      uint64
	remote  netsim.Addr
	class   netsim.Class
	tc      telemetry.Class // default traffic class for messages and control segments
	ecnOn   bool
	maxRetx int
	state   connState

	// Send side. segs holds the unacked data segments, sent or not, in
	// sequence order: segment seq is segs.At(seq - sndUna).
	segs      sim.Queue[sndSeg]
	sndUna    int // first unacked seq
	sndNxt    int // next never-sent seq
	sacked    int // count of sacked segs in [sndUna, sndNxt)
	cwnd      float64
	ssthresh  float64
	dupAcks   int
	inRecov   bool
	recovPt   int
	rtxScan   int // next seq to consider for SACK-hole retransmission
	srtt      sim.Time
	rttvar    sim.Time
	rto       sim.Time
	rtoTimer  sim.EventID
	rtoFn     func() // prebuilt onRTO continuation (no per-arm closure)
	rtoCount  int    // consecutive expiries
	cutPoint  int    // sndNxt at last ECN-induced cut
	finQueued bool
	finSeq    int

	// Receive side. oob holds the out-of-order data segments for
	// reassembly: slot i holds seq rcvNxt+i, nil until it arrives, so slot
	// 0, when there is one, is nil. The sender never passes
	// sndUna+rwndSegs and sndUna <= rcvNxt, so the ring stays within
	// rwndSegs slots.
	rcvNxt   int
	oob      sim.Queue[*segment]
	finRcvd  bool
	rfinSeq  int
	echoECN  bool
	rwndSegs int

	// Application interface.
	onMessage func(m Message)
	onClose   func(reset bool)
	waiter    sim.Waiter // the Dial or WaitClosed caller's, for the established/closed notification
	acceptFn  func(*Conn)
	dialPort  int

	// Per-connection statistics.
	BytesSent   uint64
	BytesRecv   uint64
	MsgsSent    uint64
	MsgsRecv    uint64
	Retransmits uint64
}

type sndSeg struct {
	payload int
	meta    any
	msgSize int
	tc      telemetry.Class
	sentAt  sim.Time
	sacked  bool
	rtx     bool // ever retransmitted (Karn)
	sent    bool
}

func newConn(s *Stack, id uint64, remote netsim.Addr, class netsim.Class, tc telemetry.Class, ecn bool, maxRetx int) *Conn {
	cfg := s.dom.cfg
	c := &Conn{
		stack:    s,
		id:       id,
		remote:   remote,
		class:    class,
		tc:       tc,
		ecnOn:    ecn && cfg.ECN,
		maxRetx:  maxRetx,
		cwnd:     2,
		ssthresh: 64,
		rto:      cfg.InitialRTO,
		rwndSegs: cfg.RecvWindowBytes / MSS,
	}
	c.rtoFn = c.onRTO
	return c
}

// DialOptions tunes a new connection.
type DialOptions struct {
	Class   netsim.Class
	TC      telemetry.Class // traffic class for telemetry attribution
	MaxRetx int             // 0 means DefaultMaxRetx
}

// Dial opens a connection from s to the given address and port, blocking
// the calling process until the handshake completes. It returns nil if the
// connection could not be established (reset during handshake).
func Dial(p *sim.Proc, s *Stack, to netsim.Addr, port int, opts DialOptions) *Conn {
	maxRetx := opts.MaxRetx
	if maxRetx == 0 {
		maxRetx = DefaultMaxRetx
	}
	s.dom.nextID++
	c := newConn(s, s.dom.nextID, to, opts.Class, opts.TC, true, maxRetx)
	c.state = stSynSent
	c.dialPort = port
	s.conns[c.id] = c
	c.waiter = p.Waiter()
	s.proc.Process(s.costs.ConnSetup, func() {
		c.sendControl(segSYN)
		c.armRTO()
	})
	if v, _ := p.Await(-1); v == "established" {
		return c
	}
	return nil
}

// SetOnMessage registers the in-order message delivery callback (kernel
// context).
func (c *Conn) SetOnMessage(fn func(m Message)) { c.onMessage = fn }

// SetOnClose registers a callback fired when the connection fully closes or
// resets.
func (c *Conn) SetOnClose(fn func(reset bool)) { c.onClose = fn }

// Remote returns the peer address.
func (c *Conn) Remote() netsim.Addr { return c.remote }

// State helpers.
func (c *Conn) Established() bool { return c.state == stEstablished }

// IsReset reports whether the connection died from retransmission overrun.
func (c *Conn) IsReset() bool { return c.state == stReset }

// Enqueue frames a message of size bytes onto the connection. meta rides on
// the final segment and is handed to the peer's OnMessage. Enqueue never
// blocks; the send buffer is unbounded and actual transmission is paced by
// the congestion and receive windows. Safe from kernel or process context.
func (c *Conn) Enqueue(meta any, size int) { c.EnqueueTC(meta, size, c.tc) }

// EnqueueTC is Enqueue with an explicit traffic class for this message's
// segments, for senders that multiplex workloads over one connection (the
// membership heartbeats riding the IPC mesh). The class is inert data: it
// only feeds telemetry attribution, never queueing or pacing decisions.
func (c *Conn) EnqueueTC(meta any, size int, tc telemetry.Class) {
	if c.state == stClosed || c.state == stReset {
		return
	}
	if c.finQueued {
		panic("tcp: Enqueue after Close")
	}
	c.MsgsSent++
	c.BytesSent += uint64(size)
	remaining := size
	for remaining > 0 || size == 0 {
		chunk := remaining
		if chunk > MSS {
			chunk = MSS
		}
		if chunk == 0 {
			chunk = 1 // zero-length app message still needs a carrier
		}
		remaining -= chunk
		if remaining <= 0 {
			c.segs.Push(sndSeg{payload: chunk, tc: tc, meta: meta, msgSize: size})
			break
		}
		c.segs.Push(sndSeg{payload: chunk, tc: tc})
	}
	c.trySend()
}

// Close performs an orderly shutdown after all queued data: FIN is sent
// once everything else is acknowledged. Non-blocking; OnClose fires when
// done.
func (c *Conn) Close() {
	if c.state == stClosed || c.state == stReset || c.finQueued {
		return
	}
	c.finQueued = true
	c.finSeq = c.sndEnd()
	c.trySend()
}

// sendControl emits a control segment of the given kind.
func (c *Conn) sendControl(kind segKind) {
	seg := c.stack.dom.allocSeg()
	seg.conn = c.id
	seg.kind = kind
	seg.port = c.dialPort
	seg.class = c.class
	seg.tc = c.tc
	seg.ecnOn = c.ecnOn
	seg.maxRetx = c.maxRetx
	if kind == segACK {
		seg.ack = c.rcvNxt
		seg.sacks = c.appendSacks(seg.sacks[:0])
		seg.ecnEcho = c.echoECN
		c.echoECN = false
	}
	if kind == segFIN {
		seg.seq = c.finSeq
	}
	c.stack.sendSegment(seg, c.remote)
}

// appendSacks appends the lowest 16 out-of-order sequence numbers held, in
// ascending order. The caller passes a reusable buffer so steady-state
// acking does not allocate.
func (c *Conn) appendSacks(buf []int) []int {
	for i := 1; i < c.oob.Len() && len(buf) < 16; i++ {
		if *c.oob.At(i) != nil {
			buf = append(buf, c.rcvNxt+i)
		}
	}
	return buf
}

// sndEnd returns the sequence number the next queued segment will get.
func (c *Conn) sndEnd() int { return c.sndUna + c.segs.Len() }

// flight returns outstanding unacked, un-sacked segments.
func (c *Conn) flight() int { return c.sndNxt - c.sndUna - c.sacked }

// trySend transmits new segments while the windows allow, plus the FIN when
// its turn comes.
func (c *Conn) trySend() {
	if c.state != stEstablished && c.state != stFinWait {
		return
	}
	for c.sndNxt < c.sndEnd() &&
		float64(c.flight()) < c.cwnd &&
		c.sndNxt-c.sndUna < c.rwndSegs {
		c.transmit(c.sndNxt)
		c.sndNxt++
	}
	if c.finQueued && c.state == stEstablished && c.segs.Len() == 0 && c.sndNxt == c.sndUna {
		c.state = stFinWait
		c.sendControl(segFIN)
		c.armRTO()
	}
	if c.flight() > 0 && !c.stack.dom.sim.Scheduled(c.rtoTimer) {
		c.armRTO()
	}
}

// transmit puts segment seq on the wire.
func (c *Conn) transmit(seq int) {
	s := c.segs.At(seq - c.sndUna)
	if s.sent {
		s.rtx = true
		c.Retransmits++
		c.stack.dom.Retransmits++
	}
	s.sent = true
	s.sentAt = c.stack.dom.sim.Now()
	out := c.stack.dom.allocSeg()
	out.conn = c.id
	out.kind = segData
	out.class = c.class
	out.tc = s.tc
	out.ecnOn = c.ecnOn
	out.seq = seq
	out.payload = s.payload
	out.meta = s.meta
	out.msgSize = s.msgSize
	out.rtx = s.rtx
	c.stack.sendSegment(out, c.remote)
}

// handleSegment is the per-connection receive path (post CPU processing). It
// reports whether the connection retained the segment (out-of-order data held
// for reassembly); when false the caller recycles it.
func (c *Conn) handleSegment(seg *segment) bool {
	if c.state == stClosed {
		// TIME_WAIT-ish: keep acking the peer's FIN/data retransmissions so
		// the peer can finish too.
		if seg.kind == segFIN || seg.kind == segData {
			c.sendControl(segACK)
		}
		return false
	}
	if c.state == stReset {
		return false
	}
	switch seg.kind {
	case segSYNACK:
		if c.state == stSynSent {
			c.state = stEstablished
			c.disarmRTO()
			c.rtoCount = 0
			c.stack.dom.Handshakes++
			c.sendControl(segACK)
			c.waiter.Deliver("established")
			c.trySend()
		} else {
			c.sendControl(segACK) // duplicate SYNACK: re-ack
		}
	case segACK:
		if c.state == stSynRcvd {
			c.establishPassive()
		}
		c.handleAck(seg)
	case segData:
		if c.state == stSynRcvd {
			c.establishPassive()
		}
		return c.handleData(seg)
	case segFIN:
		c.finRcvd = true
		c.rfinSeq = seg.seq
		c.sendControl(segACK)
		c.maybeFinish()
	case segRST:
		c.teardown(true)
	}
	return false
}

// establishPassive completes the passive open.
func (c *Conn) establishPassive() {
	c.state = stEstablished
	c.disarmRTO()
	c.stack.dom.Handshakes++
	if c.acceptFn != nil {
		fn := c.acceptFn
		c.acceptFn = nil
		fn(c)
	}
}

// handleData processes an inbound data segment and acks it, reporting
// whether the segment was retained in the out-of-order buffer.
func (c *Conn) handleData(seg *segment) (retained bool) {
	if seg.marked {
		c.echoECN = true
	}
	switch {
	case seg.seq < c.rcvNxt:
		// Duplicate; re-ack.
	case seg.seq == c.rcvNxt:
		c.consume(seg) // caller recycles seg itself
		if c.oob.Len() > 0 {
			c.oob.Pop() // seg's own slot, never filled
		}
		for c.oob.Len() > 0 && *c.oob.At(0) != nil {
			next := c.oob.Pop()
			c.consume(next)
			c.stack.dom.freeSeg(next)
		}
	default:
		i := seg.seq - c.rcvNxt
		for c.oob.Len() <= i {
			c.oob.Push(nil)
		}
		if slot := c.oob.At(i); *slot == nil {
			*slot = seg
			retained = true
		}
		// A duplicate of a held segment carries nothing new; recycle it.
	}
	c.sendControl(segACK)
	c.maybeFinish()
	return retained
}

// consume advances rcvNxt over one in-order segment, delivering a message
// if this segment completes one.
func (c *Conn) consume(seg *segment) {
	c.rcvNxt++
	c.BytesRecv += uint64(seg.payload)
	if seg.meta != nil || seg.msgSize > 0 {
		c.MsgsRecv++
		if c.onMessage != nil {
			c.onMessage(Message{Meta: seg.meta, Size: seg.msgSize})
		}
	}
}

// handleAck drives the Reno sender.
func (c *Conn) handleAck(seg *segment) {
	if c.state != stEstablished && c.state != stFinWait {
		return
	}
	// ECN: one multiplicative decrease per window.
	if seg.ecnEcho && c.sndUna >= c.cutPoint {
		c.ssthresh = maxf(c.cwnd/2, 2)
		c.cwnd = c.ssthresh
		c.cutPoint = c.sndNxt
		c.stack.dom.ECNCwndCuts++
	}
	// Record SACK information.
	for _, sq := range seg.sacks {
		if i := sq - c.sndUna; i >= 0 && i < c.segs.Len() {
			if s := c.segs.At(i); !s.sacked {
				s.sacked = true
				c.sacked++
			}
		}
	}
	switch {
	case seg.ack > c.sndUna:
		newly := seg.ack - c.sndUna
		for i := 0; i < newly; i++ {
			s := c.segs.Pop()
			if s.sacked {
				c.sacked--
			}
			if !s.rtx {
				c.srttSample(s.sentAt) // Karn: never sample retransmitted segments
			}
		}
		c.sndUna = seg.ack
		c.rtoCount = 0
		c.dupAcks = 0
		if c.inRecov && c.sndUna >= c.recovPt {
			c.inRecov = false
			c.cwnd = c.ssthresh
		}
		if !c.inRecov {
			if c.cwnd < c.ssthresh {
				c.cwnd += float64(newly) // slow start
			} else {
				c.cwnd += float64(newly) / c.cwnd // congestion avoidance
			}
		}
		if c.flight() > 0 {
			c.armRTO()
		} else {
			c.disarmRTO()
		}
	case seg.ack == c.sndUna && c.flight() > 0:
		c.dupAcks++
		if !c.inRecov && c.dupAcks >= 3 {
			c.inRecov = true
			c.recovPt = c.sndNxt
			c.ssthresh = maxf(float64(c.flight())/2, 2)
			c.cwnd = c.ssthresh
			c.rtxScan = c.sndUna
			c.retransmitHole()
			c.stack.dom.FastRecovers++
		} else if c.inRecov {
			c.retransmitHole()
		}
	}
	c.trySend()
	c.maybeFinish()
}

// retransmitHole resends the next unacked, un-sacked segment below the
// recovery point (SACK-based recovery).
func (c *Conn) retransmitHole() {
	if c.rtxScan < c.sndUna {
		c.rtxScan = c.sndUna
	}
	for c.rtxScan < c.recovPt {
		if !c.segs.At(c.rtxScan - c.sndUna).sacked {
			c.transmit(c.rtxScan)
			c.rtxScan++
			c.armRTO()
			return
		}
		c.rtxScan++
	}
}

// srttSample folds one RTT observation into the estimator (RFC 6298).
func (c *Conn) srttSample(sentAt sim.Time) bool {
	r := c.stack.dom.sim.Now() - sentAt
	if c.srtt == 0 {
		c.srtt = r
		c.rttvar = r / 2
	} else {
		d := c.srtt - r
		if d < 0 {
			d = -d
		}
		c.rttvar = (3*c.rttvar + d) / 4
		c.srtt = (7*c.srtt + r) / 8
	}
	c.rto = c.srtt + 4*c.rttvar
	cfg := c.stack.dom.cfg
	if c.rto < cfg.MinRTO {
		c.rto = cfg.MinRTO
	}
	if c.rto > cfg.MaxRTO {
		c.rto = cfg.MaxRTO
	}
	return true
}

// SRTT exposes the smoothed RTT estimate.
func (c *Conn) SRTT() sim.Time { return c.srtt }

// armRTO (re)starts the retransmission timer.
func (c *Conn) armRTO() {
	c.disarmRTO()
	shift := c.rtoCount // exponential backoff
	if shift > 6 {
		shift = 6 // MaxRTO clamps anyway; avoid shift overflow at high limits
	}
	d := c.rto << uint(shift)
	if max := c.stack.dom.cfg.MaxRTO; d > max {
		d = max
	}
	c.rtoTimer = c.stack.dom.sim.After(d, c.rtoFn)
}

// disarmRTO stops the retransmission timer. A fired or cancelled timer's
// handle is stale, so cancelling it again is a no-op.
func (c *Conn) disarmRTO() { c.stack.dom.sim.Cancel(c.rtoTimer) }

// onRTO fires when the retransmission timer expires. The kernel frees the
// event's slot before running it, so rtoTimer no longer reads as scheduled.
func (c *Conn) onRTO() {
	c.rtoCount++
	if c.rtoCount > c.maxRetx {
		// Too many consecutive losses: reset, notifying the peer.
		rst := c.stack.dom.allocSeg()
		rst.conn = c.id
		rst.kind = segRST
		rst.class = c.class
		rst.tc = c.tc
		c.stack.sendSegment(rst, c.remote)
		c.teardown(true)
		return
	}
	switch c.state {
	case stSynSent:
		c.sendControl(segSYN)
		c.armRTO()
		return
	case stSynRcvd:
		c.sendControl(segSYNACK)
		c.armRTO()
		return
	case stFinWait:
		if c.segs.Len() == 0 {
			c.sendControl(segFIN)
			c.armRTO()
			return
		}
	case stClosed, stReset:
		return
	}
	// Data RTO: collapse to slow start and resend the first hole.
	c.ssthresh = maxf(float64(c.flight())/2, 2)
	c.cwnd = 1
	c.inRecov = false
	c.dupAcks = 0
	if c.segs.Len() > 0 && c.sndUna < c.sndNxt {
		c.transmit(c.sndUna)
	}
	c.armRTO()
}

// maybeFinish completes an orderly close when both directions are done.
func (c *Conn) maybeFinish() {
	if c.state == stFinWait && c.segs.Len() == 0 && c.finAcked() {
		c.teardown(false)
		return
	}
	if c.finRcvd && c.rcvNxt >= c.rfinSeq && c.state == stEstablished && !c.finQueued {
		// Peer closed; close our side too (half-close not modeled).
		c.Close()
	}
}

// finAcked approximates FIN acknowledgement: all data acked and the peer
// has acked at least the FIN sequence. We treat any ACK arriving in
// stFinWait with everything acked as covering the FIN.
func (c *Conn) finAcked() bool { return c.sndUna >= c.finSeq }

// Abort kills the connection locally without sending anything: the crash
// model for a powered-off host. The peer discovers the loss through its own
// retransmission timeouts (and a restarted host's fresh stack drops the
// stale segments). Safe to call from kernel context.
func (c *Conn) Abort() { c.teardown(true) }

// teardown finalizes the connection.
func (c *Conn) teardown(reset bool) {
	if c.state == stClosed || c.state == stReset {
		return
	}
	if reset {
		c.state = stReset
		c.stack.dom.Resets++
	} else {
		c.state = stClosed
	}
	c.disarmRTO()
	// Return any retained out-of-order segments to the pool, in sequence
	// order: the reassembly gap they were waiting behind will never fill
	// now. A closed connection never touches c.oob again (handleSegment
	// returns before reassembly for stClosed/stReset), so freeing here
	// cannot double-free.
	for c.oob.Len() > 0 {
		if seg := c.oob.Pop(); seg != nil {
			c.stack.dom.freeSeg(seg)
		}
	}
	// Linger (TIME_WAIT) so late retransmissions from the peer still find
	// us and get acked, then reap the connection state.
	linger := 2 * c.stack.dom.cfg.MaxRTO
	c.stack.dom.sim.After(linger, func() { delete(c.stack.conns, c.id) })
	if c.state == stReset {
		c.waiter.Deliver("reset")
	} else {
		c.waiter.Deliver("closed")
	}
	if c.onClose != nil {
		c.onClose(reset)
	}
}

// WaitClosed blocks the process until the connection closes or resets,
// returning true for orderly close.
func (c *Conn) WaitClosed(p *sim.Proc) bool {
	if c.state == stClosed {
		return true
	}
	if c.state == stReset {
		return false
	}
	c.waiter = p.Waiter()
	v, _ := p.Await(-1)
	return v == "closed"
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
