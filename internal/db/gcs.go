package db

import (
	"errors"
	"math/bits"

	"dclue/internal/sim"
	"dclue/internal/stats"
	"dclue/internal/telemetry"
)

// ErrFetchFailed aborts the current transaction attempt: a block fetch kept
// timing out or failing (lost XFER, unreachable supplier, failing disk)
// after exhausting the bounded retries. Like ErrLockFailed, the caller
// releases everything and retries after a delay.
var ErrFetchFailed = errors.New("db: block fetch failed")

// Transport carries IPC messages between nodes' GCS instances. The core
// package implements it over the per-pair IPC TCP connections; tests use a
// loopback. Control messages are CtlMsgBytes on the wire; data messages
// carry a block plus version payload.
type Transport interface {
	// Send delivers m to node to's GCS.HandleMessage. size is the wire
	// payload.
	Send(to int, m Msg, size int)
}

// MaxNodes bounds the cluster size. Nodes are numbered densely from 0, and
// a NodeSet keeps one bit per node in a uint64.
const MaxNodes = 64

// NodeSet is a set of node ids in [0, MaxNodes), one bit per node.
type NodeSet uint64

// Has reports whether node n is in the set. Has(-1) is false, so a
// directory entry's lastWriter of -1 ("none") needs no test of its own.
func (s NodeSet) Has(n int) bool { return s&(1<<uint(n)) != 0 }

// lowest returns the smallest node in the set, or -1 if it is empty.
func (s NodeSet) lowest() int {
	if s == 0 {
		return -1
	}
	return bits.TrailingZeros64(uint64(s))
}

// CtlMsgBytes is the size of IPC control messages (§3.2: "about 250 bytes").
const CtlMsgBytes = 250

// Msg is any inter-node GCS message.
type Msg interface{ isMsg() }

// Directory / cache-fusion messages (§2.1's numbered protocol).
type (
	// MsgBlkReq: A asks directory master B for block X. HaveCopy says A
	// already holds a (stale) copy and only needs the current image for
	// writing; a negative response then means "your copy is current
	// enough", not "read from disk".
	MsgBlkReq struct {
		ReqID    uint64
		Blk      BlockID
		ForWrite bool
		HaveCopy bool
	}
	// MsgBlkNeg: negative response; A must read from disk.
	MsgBlkNeg struct{ ReqID uint64 }
	// MsgBlkFwd: B asks holder C to supply the block to Requester. ReqID
	// identifies B's forward state (echoed in MsgBlkFwdFail); DestReqID is
	// the requester's own pending id, which must ride the MsgBlkXfer so A
	// can match the arriving block to its wait.
	MsgBlkFwd struct {
		ReqID     uint64
		DestReqID uint64
		Blk       BlockID
		Requester int
	}
	// MsgBlkFwdFail: C no longer holds the block; B retries.
	MsgBlkFwdFail struct {
		ReqID     uint64
		Blk       BlockID
		Requester int
	}
	// MsgBlkXfer: C ships the block (data message) to A.
	MsgBlkXfer struct {
		ReqID uint64
		Blk   BlockID
	}
	// MsgBlkAck: A tells B it now holds the block (step 4).
	MsgBlkAck struct {
		Blk      BlockID
		Holder   int
		ForWrite bool
	}
	// MsgEvict: a node dropped its copy; master updates the directory.
	MsgEvict struct {
		Blk    BlockID
		Holder int
	}
	// MsgOwnerRevoke: write ownership of a block moved to another node;
	// the previous owner keeps its copy for snapshot reads but must fetch
	// the current image before writing again.
	MsgOwnerRevoke struct {
		Blk BlockID
	}
)

// Global lock messages.
type (
	// MsgLockReq asks the master for a lock.
	MsgLockReq struct {
		ReqID  uint64
		Res    ResourceID
		Txn    TxnRef
		NoWait bool
	}
	// MsgLockGrant grants a request; Waited says it queued first.
	MsgLockGrant struct {
		ReqID  uint64
		Waited bool
	}
	// MsgLockDeny refuses a NoWait request that would queue.
	MsgLockDeny struct{ ReqID uint64 }
	// MsgLockCancel withdraws a waiting request (timeout at requester).
	MsgLockCancel struct {
		Res ResourceID
		Txn TxnRef
	}
	// MsgLockRelease drops all of a transaction's locks mastered at the
	// destination (sent once per master at commit).
	MsgLockRelease struct {
		Txn TxnRef
		Res []ResourceID
	}
)

// Centralized logging messages (Fig 9).
type (
	// MsgLogWrite carries a log record to the central log node.
	MsgLogWrite struct {
		ReqID uint64
		From  int
		Size  int
	}
	// MsgLogDone acknowledges durability.
	MsgLogDone struct{ ReqID uint64 }
)

// Recovery messages (crash fencing, remastering, log replay, rejoin). The
// GCS transports and prices them like any other IPC; the recovery
// coordinator in core drives the protocol through the OnClusterMsg hook.
type (
	// MsgFence: the coordinator tells a survivor to fence Dead — drop it
	// from directories, release its locks, stop talking to it.
	MsgFence struct {
		ReqID uint64
		Dead  int
	}
	// MsgFenceAck confirms the fence took effect on From.
	MsgFenceAck struct {
		ReqID uint64
		From  int
	}
	// MsgRemasterReq: the surrogate master asks a survivor to report its
	// cached holdings homed at Dead so the directory can be rebuilt.
	MsgRemasterReq struct {
		ReqID uint64
		Dead  int
	}
	// MsgRemaster ships one batch of holdings (control-plane bulk data).
	MsgRemaster struct {
		ReqID    uint64
		From     int
		Holdings []Holding
	}
	// MsgRemasterDone ends a survivor's holdings stream.
	MsgRemasterDone struct {
		ReqID uint64
		From  int
	}
	// MsgReplayReq asks the buddy (dual-ported enclosure server) to scan
	// Bytes of the dead node's redo log off its log device.
	MsgReplayReq struct {
		ReqID uint64
		Dead  int
		Bytes int64
	}
	// MsgReplayChunk streams scanned log back (data message).
	MsgReplayChunk struct {
		ReqID uint64
		Bytes int
		Last  bool
	}
	// MsgJoinReq: a restarted node asks the coordinator to re-admit it.
	MsgJoinReq struct {
		ReqID uint64
		Node  int
	}
	// MsgJoinDir hands a batch of directory entries for the joiner's
	// partition back from the surrogate.
	MsgJoinDir struct {
		ReqID   uint64
		Entries []DirExport
	}
	// MsgJoinOK completes re-admission. The coordinator sends it to the
	// joiner (echoing its ReqID) and broadcasts it to survivors (ReqID 0),
	// who clear their fences and failover routes for Node.
	MsgJoinOK struct {
		ReqID uint64
		Node  int
	}
	// MsgRecoveryOpen: the coordinator tells survivors that Dead's partition
	// is open again under surrogate mastering — their gates lift and
	// requests flow to the surrogate instead of failing fast.
	MsgRecoveryOpen struct {
		Dead int
	}
)

// Holding reports one cached block during remastering.
type Holding struct {
	Blk        BlockID
	WriteOwner bool
}

// DirExport is one directory entry shipped during mastering hand-back.
type DirExport struct {
	Blk        BlockID
	Holders    NodeSet
	LastWriter int
}

func (MsgFence) isMsg()        {}
func (MsgFenceAck) isMsg()     {}
func (MsgRemasterReq) isMsg()  {}
func (MsgRemaster) isMsg()     {}
func (MsgRemasterDone) isMsg() {}
func (MsgReplayReq) isMsg()    {}
func (MsgReplayChunk) isMsg()  {}
func (MsgJoinReq) isMsg()      {}
func (MsgJoinDir) isMsg()      {}
func (MsgJoinOK) isMsg()       {}
func (MsgRecoveryOpen) isMsg() {}

func (MsgBlkReq) isMsg()      {}
func (MsgBlkNeg) isMsg()      {}
func (MsgBlkFwd) isMsg()      {}
func (MsgBlkFwdFail) isMsg()  {}
func (MsgBlkXfer) isMsg()     {}
func (MsgBlkAck) isMsg()      {}
func (MsgEvict) isMsg()       {}
func (MsgOwnerRevoke) isMsg() {}
func (MsgLockReq) isMsg()     {}
func (MsgLockGrant) isMsg()   {}
func (MsgLockDeny) isMsg()    {}
func (MsgLockCancel) isMsg()  {}
func (MsgLockRelease) isMsg() {}
func (MsgLogWrite) isMsg()    {}
func (MsgLogDone) isMsg()     {}

// dirEntry is the master-side directory record for one block. A block with
// no entry reads as the zero dirEntry, whose empty holder set names no
// supplier; a stored entry has at least one holder, and lastWriter is -1
// until some holder writes.
type dirEntry struct {
	holders    NodeSet
	lastWriter int
}

// writerSupplier returns the last writer when it holds a copy and is not
// requester (its image is the current one), else -1.
func (e dirEntry) writerSupplier(requester int) int {
	if e.lastWriter != requester && e.holders.Has(e.lastWriter) {
		return e.lastWriter
	}
	return -1
}

// GCSStats aggregates one node's IPC and locking measurements.
type GCSStats struct {
	CtlMsgsSent  uint64
	DataMsgsSent uint64
	DataBytes    uint64

	BlockHits       uint64 // local buffer cache hits
	BlockTransfers  uint64 // blocks received via cache fusion
	BlockDiskReads  uint64 // blocks fetched from disk
	CurrencyFetches uint64 // current-image fetches for writes to stale copies

	LockWaits    uint64
	LockWaitTime stats.Tally // seconds per wait
	LockFails    uint64

	// Fault-tolerance counters: protocol replies that timed out, fetches
	// abandoned after exhausting retries, and commits whose central log
	// write fell back to the local log device.
	FetchTimeouts uint64
	FetchFails    uint64
	LogFallbacks  uint64

	// GateRejects counts requests refused fast because their master was
	// inside a fence-to-reopen recovery window (failover fast-fail).
	GateRejects uint64

	// Per-table contention breakdown (diagnostics).
	WaitsByTable map[TableID]uint64
	FailsByTable map[TableID]uint64
}

// noteWait records a lock wait on a table.
func (s *GCSStats) noteWait(t TableID) {
	if s.WaitsByTable == nil {
		s.WaitsByTable = make(map[TableID]uint64)
	}
	s.WaitsByTable[t]++
}

// noteFail records a lock failure on a table.
func (s *GCSStats) noteFail(t TableID) {
	if s.FailsByTable == nil {
		s.FailsByTable = make(map[TableID]uint64)
	}
	s.FailsByTable[t]++
}

// GCS is one node's global cache+lock service: the requester side used by
// the executor, and the master side for blocks and locks homed here.
type GCS struct {
	sim   *sim.Sim
	self  int
	cat   *Catalog
	host  Host
	tr    Transport
	cache *BufferCache
	pager *Pager
	vm    *VersionManager
	locks *LockService
	costs *OpCosts

	dir        map[BlockID]dirEntry
	pendingFwd map[uint64]fwdState

	nextReq  uint64
	pending  map[uint64]sim.Waiter
	inflight map[BlockID][]sim.Waiter

	// DeadlockTimeout bounds the blocking wait on a transaction's first
	// contended lock; expiry is treated as a deadlock-suspected failure.
	DeadlockTimeout sim.Time

	// FetchTimeout bounds each wait for a block-protocol or log reply; 0
	// waits forever (safe only on a fault-free fabric). MaxFetchRetries is
	// how many times a timed-out exchange is reissued before the fetch
	// fails with ErrFetchFailed.
	FetchTimeout    sim.Time
	MaxFetchRetries int

	// CentralLogNode >= 0 routes every commit's log write to that node
	// (Fig 9); -1 logs locally.
	CentralLogNode int
	logDisk        LogDevice

	// Gate, when set, vets the home node of every fetch and lock request.
	// A false return fails the request immediately (ErrFetchFailed /
	// ErrLockFailed) instead of letting it time out against a node inside a
	// fence-to-reopen recovery window. It receives the home (not the
	// surrogate) so fenced-partition requests fail fast even after a
	// surrogate takes over mastering.
	Gate func(home int) bool

	// OnClusterMsg, when set, receives recovery-protocol messages (fence,
	// remaster, replay, join) that the GCS itself does not interpret. The
	// cluster's recovery coordinator installs it.
	OnClusterMsg func(from int, m Msg)

	// redoBytes accumulates log volume written since the last checkpoint:
	// the amount a crash at this instant would force recovery to replay.
	redoBytes int64

	// tel, when set, records message rates and lock-wait timelines. Nil on
	// untelemetered runs (the fast path).
	tel *telemetry.GCSTel

	Stats GCSStats
}

// LogDevice is the slice of disk.LogDisk the GCS needs (allows tests to
// stub it).
type LogDevice interface {
	Submit(size int, done func())
}

// NewGCS assembles a node's global cache service.
func NewGCS(s *sim.Sim, self int, cat *Catalog, host Host, cache *BufferCache,
	pager *Pager, vm *VersionManager, costs *OpCosts, logDisk LogDevice) *GCS {
	return &GCS{
		sim:             s,
		self:            self,
		cat:             cat,
		host:            host,
		cache:           cache,
		pager:           pager,
		vm:              vm,
		locks:           NewLockService(),
		costs:           costs,
		dir:             make(map[BlockID]dirEntry),
		pendingFwd:      make(map[uint64]fwdState),
		pending:         make(map[uint64]sim.Waiter),
		inflight:        make(map[BlockID][]sim.Waiter),
		DeadlockTimeout: 500 * sim.Millisecond,
		MaxFetchRetries: 2,
		CentralLogNode:  -1,
		logDisk:         logDisk,
	}
}

// SetTransport wires the IPC transport (done by the cluster assembly after
// all nodes exist).
func (g *GCS) SetTransport(tr Transport) { g.tr = tr }

// SetTelemetry attaches a GCS instrument (nil detaches). The cluster
// re-attaches it when a crashed node boots a fresh engine.
func (g *GCS) SetTelemetry(t *telemetry.GCSTel) { g.tel = t }

// recordLockWait charges the elapsed wait to stats and, when telemetry is
// attached, to the lock-wait timeline.
func (g *GCS) recordLockWait(start sim.Time) {
	g.Stats.LockWaitTime.Add((g.sim.Now() - start).Seconds())
	g.tel.OnLockWait(start, g.sim.Now())
}

type fwdState struct {
	requester int
	blk       BlockID
	forWrite  bool
	tried     NodeSet
	reqID     uint64 // requester-side request id
}

// sendCtl charges send-side handling and ships a control message.
func (g *GCS) sendCtl(to int, m Msg) {
	g.Stats.CtlMsgsSent++
	g.tel.OnCtlMsg(g.sim.Now())
	g.host.Process(g.costs.CtlMsgHandle, func() { g.tr.Send(to, m, CtlMsgBytes) })
}

// sendData charges send-side handling and ships a data message.
func (g *GCS) sendData(to int, m Msg, size int) {
	g.Stats.DataMsgsSent++
	g.Stats.DataBytes += uint64(size)
	g.tel.OnDataMsg(g.sim.Now())
	g.host.Process(g.costs.DataMsgHandle, func() { g.tr.Send(to, m, size) })
}

// HandleMessage is the inbound entry point (kernel context); it charges
// receive-side handling then dispatches.
func (g *GCS) HandleMessage(from int, m Msg) {
	cost := g.costs.CtlMsgHandle
	if _, ok := m.(MsgBlkXfer); ok {
		cost = g.costs.DataMsgHandle
	}
	if _, ok := m.(MsgLogWrite); ok {
		cost = g.costs.DataMsgHandle
	}
	if _, ok := m.(MsgReplayChunk); ok {
		cost = g.costs.DataMsgHandle
	}
	g.host.Process(cost, func() { g.dispatch(from, m) })
}

// dispatch routes one message after CPU processing.
func (g *GCS) dispatch(from int, m Msg) {
	switch msg := m.(type) {
	case MsgFence, MsgFenceAck, MsgRemasterReq, MsgRemaster, MsgRemasterDone,
		MsgReplayReq, MsgReplayChunk, MsgJoinReq, MsgJoinDir, MsgJoinOK,
		MsgRecoveryOpen:
		if g.OnClusterMsg != nil {
			g.OnClusterMsg(from, m)
		}
	case MsgBlkReq:
		g.masterBlockReq(from, msg)
	case MsgBlkNeg:
		// Negative: requester reads from disk; wake it with "neg".
		g.wake(msg.ReqID, "neg")
	case MsgBlkFwd:
		g.holderForward(from, msg)
	case MsgBlkFwdFail:
		g.masterFwdFail(from, msg)
	case MsgBlkXfer:
		g.wake(msg.ReqID, "xfer")
	case MsgBlkAck:
		g.masterRegisterHolder(msg.Blk, msg.Holder, msg.ForWrite)
	case MsgEvict:
		g.masterEvict(msg.Blk, msg.Holder)
	case MsgOwnerRevoke:
		g.revokeOwnership(msg.Blk)
	case MsgLockReq:
		g.masterLockReq(from, msg)
	case MsgLockGrant:
		g.wake(msg.ReqID, m)
	case MsgLockDeny:
		g.wake(msg.ReqID, m)
	case MsgLockCancel:
		g.locks.Cancel(msg.Res, msg.Txn)
	case MsgLockRelease:
		for _, r := range msg.Res {
			g.locks.Release(r, msg.Txn)
		}
	case MsgLogWrite:
		g.logDisk.Submit(msg.Size, func() {
			g.sendCtl(msg.From, MsgLogDone{ReqID: msg.ReqID})
		})
	case MsgLogDone:
		g.wake(msg.ReqID, "logged")
	}
}

// wake completes a pending request.
func (g *GCS) wake(reqID uint64, v any) {
	if w, ok := g.pending[reqID]; ok {
		delete(g.pending, reqID)
		w.Deliver(v)
	}
}

// newReq registers a pending request, answered to p's Await.
func (g *GCS) newReq(p *sim.Proc) uint64 {
	g.nextReq++
	g.pending[g.nextReq] = p.Waiter()
	return g.nextReq
}
