// Package iscsi models iSCSI block access between cluster nodes over the
// dedicated per-pair storage TCP connection of the paper. Each node is both
// an initiator (for remote partitions) and a target (serving its local
// drives). Processing costs are path lengths on the host CPUs; the paper
// notes iSCSI path lengths are small "except for the rather large overhead
// of CRC calculations" in software, which the cost models reflect.
package iscsi

import (
	"errors"

	"dclue/internal/disk"
	"dclue/internal/sim"
	"dclue/internal/tcp"
	"dclue/internal/trace"
)

// ErrIO is returned when an iSCSI operation fails after exhausting its
// retries: either the target kept reporting a check condition (injected
// drive error) or status PDUs kept timing out (lost to network faults).
var ErrIO = errors.New("iscsi: i/o failed")

// Port is the iSCSI listener port.
const Port = 3260

// PDUBytes is the basic header segment size for command/status PDUs.
const PDUBytes = 48

// CostModel gives iSCSI processing path lengths (instructions).
type CostModel struct {
	PerPDU     float64 // command/status/data PDU handling
	CRCPerByte float64 // header+data digest over payload bytes
}

// SWCosts returns the software-iSCSI cost model: modest per-PDU handling
// with the dominant per-byte CRC.
func SWCosts() CostModel { return CostModel{PerPDU: 4000, CRCPerByte: 1.2} }

// HWCosts returns the offloaded cost model: a small host touch per PDU and
// no host CRC.
func HWCosts() CostModel { return CostModel{PerPDU: 600, CRCPerByte: 0} }

// opcodes
type op int

const (
	opRead op = iota
	opWrite
)

// cmdPDU travels initiator -> target. For writes it is immediately followed
// (same message) by the data, which we fold into the message size.
type cmdPDU struct {
	id    uint64
	op    op
	table int
	block int64
	size  int
	encl  int // enclosure (home node) whose drives to use; -1 = target's own
}

// respPDU travels target -> initiator. For reads the data rides in the same
// message (Data-In + status collapsed).
type respPDU struct {
	id  uint64
	err bool // check condition: the drive failed the request
}

// Target serves local drives to remote initiators.
type Target struct {
	cpu     tcp.Processor
	costs   CostModel
	drive   func(table int) *disk.Drive
	exports map[int]func(table int) *disk.Drive
	Served  uint64
}

// NewTarget creates a target; drive selects the local drive for a table.
func NewTarget(cpu tcp.Processor, costs CostModel, drive func(table int) *disk.Drive) *Target {
	return &Target{cpu: cpu, costs: costs, drive: drive}
}

// Export additionally serves another node's drive enclosure through this
// target (the dual-ported failover path: a buddy node takes over a crashed
// peer's drives). pick selects the drive within that enclosure for a table.
func (t *Target) Export(node int, pick func(table int) *disk.Drive) {
	if t.exports == nil {
		t.exports = make(map[int]func(table int) *disk.Drive)
	}
	t.exports[node] = pick
}

// Unexport stops serving the given node's enclosure (the owner rejoined).
func (t *Target) Unexport(node int) { delete(t.exports, node) }

// Attach serves one accepted connection.
func (t *Target) Attach(conn *tcp.Conn) {
	conn.SetOnMessage(func(m tcp.Message) { t.HandleMessage(conn, m) })
}

// HandleMessage processes one command PDU arriving on conn (exposed so a
// shared per-pair storage connection can be demuxed between the local
// target and initiator, keeping the paper's two-connections-per-pair
// layout).
func (t *Target) HandleMessage(conn *tcp.Conn, m tcp.Message) {
	cmd := m.Meta.(*cmdPDU)
	var inBytes int
	if cmd.op == opWrite {
		inBytes = cmd.size
	}
	t.cpu.Process(t.costs.PerPDU+t.costs.CRCPerByte*float64(inBytes), func() {
		t.serve(conn, cmd)
	})
}

// serve runs the disk operation and replies.
func (t *Target) serve(conn *tcp.Conn, cmd *cmdPDU) {
	pick := t.drive
	if cmd.encl >= 0 {
		e, ok := t.exports[cmd.encl]
		if !ok {
			// Enclosure not (or no longer) exported here: check condition.
			t.Served++
			t.cpu.Process(t.costs.PerPDU, func() {
				conn.Enqueue(&respPDU{id: cmd.id, err: true}, PDUBytes)
			})
			return
		}
		pick = e
	}
	d := pick(cmd.table)
	req := &disk.Request{
		Table: cmd.table,
		Block: cmd.block,
		Size:  cmd.size,
		Write: cmd.op == opWrite,
	}
	req.Done = func() {
		t.Served++
		respSize := PDUBytes
		var outBytes int
		if cmd.op == opRead && !req.Failed {
			respSize += cmd.size
			outBytes = cmd.size
		}
		t.cpu.Process(t.costs.PerPDU+t.costs.CRCPerByte*float64(outBytes), func() {
			// A failed drive request becomes a check-condition status PDU
			// (no data); the initiator decides whether to retry.
			conn.Enqueue(&respPDU{id: cmd.id, err: req.Failed}, respSize)
		})
	}
	d.Submit(req)
}

// Initiator issues block requests to remote targets.
type Initiator struct {
	cpu     tcp.Processor
	costs   CostModel
	conns   map[int]*tcp.Conn
	pending map[uint64]sim.Waiter
	nextID  uint64

	// Timeout bounds the wait for a status PDU; 0 means wait forever (the
	// pre-fault-injection behaviour). MaxRetries is how many times a timed
	// out or check-condition command is reissued before ErrIO.
	Timeout    sim.Time
	MaxRetries int

	Reads    uint64
	Writes   uint64
	Timeouts uint64 // commands whose status PDU never arrived in time
	IOErrors uint64 // check-condition statuses received
	Failed   uint64 // operations abandoned after exhausting retries
}

// NewInitiator creates an initiator charging work to cpu.
func NewInitiator(cpu tcp.Processor, costs CostModel) *Initiator {
	return &Initiator{
		cpu:     cpu,
		costs:   costs,
		conns:   make(map[int]*tcp.Conn),
		pending: make(map[uint64]sim.Waiter),
	}
}

// SetConn registers the storage connection toward a target node and hooks
// response handling.
func (i *Initiator) SetConn(node int, conn *tcp.Conn) {
	i.conns[node] = conn
	conn.SetOnMessage(func(m tcp.Message) { i.HandleMessage(m) })
}

// RegisterConn records the connection toward node without claiming its
// OnMessage callback (for demuxed shared connections).
func (i *Initiator) RegisterConn(node int, conn *tcp.Conn) { i.conns[node] = conn }

// HandleMessage processes one response PDU.
func (i *Initiator) HandleMessage(m tcp.Message) {
	resp := m.Meta.(*respPDU)
	var dataBytes int
	if m.Size > PDUBytes {
		dataBytes = m.Size - PDUBytes
	}
	i.cpu.Process(i.costs.PerPDU+i.costs.CRCPerByte*float64(dataBytes), func() {
		// A late response to a command the initiator already timed out and
		// abandoned finds no pending entry and is dropped here.
		if w, ok := i.pending[resp.id]; ok {
			delete(i.pending, resp.id)
			w.Deliver(resp.err)
		}
	})
}

// Demux routes PDUs on a shared per-pair storage connection: commands go to
// the local target, responses to the local initiator.
func Demux(conn *tcp.Conn, t *Target, i *Initiator) {
	conn.SetOnMessage(func(m tcp.Message) {
		switch m.Meta.(type) {
		case *cmdPDU:
			t.HandleMessage(conn, m)
		case *respPDU:
			i.HandleMessage(m)
		}
	})
}

// HasTarget reports whether a connection to node is registered.
func (i *Initiator) HasTarget(node int) bool { return i.conns[node] != nil }

// Read fetches size bytes of (table, block) from the target at node,
// blocking the calling process until the data arrives (or the command fails
// after exhausting retries).
func (i *Initiator) Read(p *sim.Proc, node, table int, block int64, size int) error {
	i.Reads++
	return i.issue(p, node, &cmdPDU{op: opRead, table: table, block: block, size: size, encl: -1}, PDUBytes)
}

// Write sends size bytes to (table, block) on the target at node, blocking
// until the status PDU returns.
func (i *Initiator) Write(p *sim.Proc, node, table int, block int64, size int) error {
	i.Writes++
	return i.issue(p, node, &cmdPDU{op: opWrite, table: table, block: block, size: size, encl: -1}, PDUBytes+size)
}

// ReadFrom fetches (table, block) of enclosure encl via the target at node:
// the failover path, where a buddy node serves a crashed peer's dual-ported
// drives.
func (i *Initiator) ReadFrom(p *sim.Proc, node, encl, table int, block int64, size int) error {
	i.Reads++
	return i.issue(p, node, &cmdPDU{op: opRead, table: table, block: block, size: size, encl: encl}, PDUBytes)
}

// WriteFrom writes (table, block) of enclosure encl via the target at node.
func (i *Initiator) WriteFrom(p *sim.Proc, node, encl, table int, block int64, size int) error {
	i.Writes++
	return i.issue(p, node, &cmdPDU{op: opWrite, table: table, block: block, size: size, encl: encl}, PDUBytes+size)
}

// issue sends the command and waits for its response, reissuing it (with a
// fresh task tag) on timeout or check condition up to MaxRetries times. The
// whole exchange — including the command/data/status network round trip —
// charges the disk trace phase: iSCSI wire time is storage latency in the
// paper's decomposition.
func (i *Initiator) issue(p *sim.Proc, node int, cmd *cmdPDU, wireBytes int) error {
	trace.Enter(p, trace.PhaseDisk)
	err := i.doIssue(p, node, cmd, wireBytes)
	trace.Exit(p)
	return err
}

func (i *Initiator) doIssue(p *sim.Proc, node int, cmd *cmdPDU, wireBytes int) error {
	conn, ok := i.conns[node]
	if !ok {
		panic("iscsi: no connection to target node")
	}
	var outBytes int
	if cmd.op == opWrite {
		outBytes = cmd.size
	}
	for attempt := 0; ; attempt++ {
		i.nextID++
		cmd.id = i.nextID
		i.pending[cmd.id] = p.Waiter()
		i.cpu.Process(i.costs.PerPDU+i.costs.CRCPerByte*float64(outBytes), func() {
			conn.Enqueue(cmd, wireBytes)
		})
		timeout := i.Timeout
		if timeout <= 0 {
			timeout = -1 // no bound
		}
		v, recvOK := p.Await(timeout)
		if !recvOK {
			// Status PDU never came: drop the stale tag so a late response
			// is ignored, and reissue.
			delete(i.pending, cmd.id)
			i.Timeouts++
		} else if errFlag, _ := v.(bool); errFlag {
			i.IOErrors++
		} else {
			return nil
		}
		if attempt >= i.MaxRetries {
			i.Failed++
			return ErrIO
		}
	}
}
