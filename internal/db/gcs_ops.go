package db

import (
	"dclue/internal/sim"
	"dclue/internal/trace"
)

// ---- Block access (cache fusion, §2.1 steps 1-4) ----

// GetBlock ensures blk is resident in the local buffer cache, pinned once.
// The calling process blocks for the protocol's duration. A non-nil error
// (ErrFetchFailed) means the protocol kept failing under injected faults;
// nothing is left pinned and the caller aborts the transaction attempt.
func (g *GCS) GetBlock(p *sim.Proc, blk BlockID, forWrite bool) error {
	trace.Enter(p, trace.PhaseGCS)
	err := g.fetch(p, blk, forWrite, false)
	trace.Exit(p)
	return err
}

// GetBlockCreate is GetBlock for a block that has no disk image yet (a
// fresh append target): if nobody holds it, it is formatted in the cache
// instead of being read from disk.
func (g *GCS) GetBlockCreate(p *sim.Proc, blk BlockID) error {
	trace.Enter(p, trace.PhaseGCS)
	err := g.fetch(p, blk, true, true)
	trace.Exit(p)
	return err
}

func (g *GCS) fetch(p *sim.Proc, blk BlockID, forWrite, create bool) error {
	if f := g.cache.Lookup(blk); f != nil {
		if !forWrite || f.WriteOwner {
			g.Stats.BlockHits++
			return nil
		}
		// The copy is stale for writing: write ownership lives elsewhere.
		// Fetch the current image from the last writer (the cache-fusion
		// ping-pong that dominates clustered-DBMS IPC traffic). The frame
		// is pinned, so it cannot vanish while we block.
		g.Stats.CurrencyFetches++
		if err := g.currencyFetch(p, blk); err != nil {
			g.cache.Unpin(blk)
			g.Stats.FetchFails++
			return ErrFetchFailed
		}
		f.WriteOwner = true
		return nil
	}
	// Coalesce concurrent fetches of the same block.
	if waiters, busy := g.inflight[blk]; busy {
		g.inflight[blk] = append(waiters, p.Waiter())
		p.Await(-1)
		g.host.Dispatch(p, g.costs.ResumeDispatch)
		if f := g.cache.Lookup(blk); f != nil {
			return nil
		}
		// Evicted between fill and wake (rare), or the fill failed under
		// faults: fall through and fetch on our own behalf.
	}
	g.inflight[blk] = nil

	if g.Gate != nil && !g.Gate(g.cat.Home(blk)) {
		// The home is inside a fence-to-reopen recovery window: fail fast so
		// the transaction retries against recovered state instead of timing
		// out against a master that cannot answer yet.
		delete(g.inflight, blk)
		g.Stats.GateRejects++
		g.Stats.FetchFails++
		return ErrFetchFailed
	}
	master := g.cat.Master(blk)
	var err error
	if master == g.self {
		err = g.localMasterFetch(p, blk, forWrite, create)
	} else {
		err = g.remoteFetch(p, blk, master, forWrite, create)
	}
	if err != nil {
		// Failed fill: wake coalesced waiters so they retry (or fail) on
		// their own behalf instead of parking forever.
		for _, w := range g.inflight[blk] {
			w.Deliver(nil)
		}
		delete(g.inflight, blk)
		g.Stats.FetchFails++
		return ErrFetchFailed
	}

	// Fill complete: admit, wake coalesced waiters.
	f := g.cache.InsertPinned(blk)
	if forWrite || create {
		f.WriteOwner = true
	}
	for _, w := range g.inflight[blk] {
		w.Deliver(nil)
	}
	delete(g.inflight, blk)
	return nil
}

// recvReply waits for the reply to a pending request, bounded by
// FetchTimeout when one is configured. On timeout the pending entry is
// dropped so a late reply is ignored harmlessly (wake on an unknown id is a
// no-op).
func (g *GCS) recvReply(p *sim.Proc, reqID uint64) (any, bool) {
	timeout := g.FetchTimeout
	if timeout <= 0 {
		timeout = -1 // no bound
	}
	v, ok := p.Await(timeout)
	if !ok {
		delete(g.pending, reqID)
		g.Stats.FetchTimeouts++
	}
	return v, ok
}

// currencyFetch obtains the current image of a block we already hold a
// stale copy of: a directory exchange plus a data transfer from the last
// writer, but never a disk read (our copy plus the log are current enough
// if the writer is gone).
func (g *GCS) currencyFetch(p *sim.Proc, blk BlockID) error {
	if g.Gate != nil && !g.Gate(g.cat.Home(blk)) {
		g.Stats.GateRejects++
		return ErrFetchFailed
	}
	master := g.cat.Master(blk)
	if master == g.self {
		g.host.Execute(p, g.costs.DirLookup)
		if supplier := g.dir[blk].writerSupplier(g.self); supplier >= 0 {
			for attempt := 0; ; attempt++ {
				reqID := g.newReq(p)
				g.sendCtl(supplier, MsgBlkFwd{ReqID: reqID, DestReqID: reqID, Blk: blk, Requester: g.self})
				v, ok := g.recvReply(p, reqID)
				g.host.Dispatch(p, g.costs.ResumeDispatch)
				if ok {
					if v != "neg" {
						g.Stats.BlockTransfers++
					}
					break
				}
				if attempt >= g.MaxFetchRetries {
					// The supplier is unreachable: our copy plus the log are
					// current enough once the writer is effectively gone.
					break
				}
			}
		}
		g.masterRegisterHolder(blk, g.self, true)
		return nil
	}
	for attempt := 0; ; attempt++ {
		reqID := g.newReq(p)
		g.sendCtl(master, MsgBlkReq{ReqID: reqID, Blk: blk, ForWrite: true, HaveCopy: true})
		v, ok := g.recvReply(p, reqID)
		g.host.Dispatch(p, g.costs.ResumeDispatch)
		if ok {
			if v != "neg" {
				g.Stats.BlockTransfers++
			}
			g.sendCtl(master, MsgBlkAck{Blk: blk, Holder: g.self, ForWrite: true})
			return nil
		}
		if attempt >= g.MaxFetchRetries {
			return ErrFetchFailed
		}
	}
}

// revokeOwnership clears the local write-owner flag: another node now holds
// the current image.
func (g *GCS) revokeOwnership(blk BlockID) {
	if f := g.cache.Peek(blk); f != nil {
		f.WriteOwner = false
	}
}

// localMasterFetch handles A == B: the directory is local.
func (g *GCS) localMasterFetch(p *sim.Proc, blk BlockID, forWrite, create bool) error {
	g.host.Execute(p, g.costs.DirLookup)
	supplier := g.pickSupplier(blk, g.self)
	if supplier < 0 {
		// No holder anywhere: disk read (step 2), local disk since we are
		// the home — unless the block is brand new and formatted in place.
		if !create {
			g.Stats.BlockDiskReads++
			if err := g.pager.ReadBlock(p, blk, BlockBytes); err != nil {
				return err
			}
			g.host.Dispatch(p, g.costs.ResumeDispatch)
		}
		g.masterRegisterHolder(blk, g.self, forWrite)
		return nil
	}
	// Step 3 with B == A: ask C directly, wait for the data.
	reqID := g.newReq(p)
	g.sendCtl(supplier, MsgBlkFwd{ReqID: reqID, DestReqID: reqID, Blk: blk, Requester: g.self})
	v, ok := g.recvReply(p, reqID)
	g.host.Dispatch(p, g.costs.ResumeDispatch)
	if !ok || v == "neg" {
		// Supplier lost the block (or the exchange timed out under faults)
		// and we are the master: fall back to disk.
		g.Stats.BlockDiskReads++
		if err := g.pager.ReadBlock(p, blk, BlockBytes); err != nil {
			return err
		}
		g.host.Dispatch(p, g.costs.ResumeDispatch)
	} else {
		g.Stats.BlockTransfers++
	}
	g.masterRegisterHolder(blk, g.self, forWrite)
	return nil
}

// remoteFetch handles A != B: full message protocol. A timed-out exchange
// is reissued from step 1 with a fresh request id (a late XFER or NEG for
// the stale id is dropped by wake) up to MaxFetchRetries times.
func (g *GCS) remoteFetch(p *sim.Proc, blk BlockID, master int, forWrite, create bool) error {
	for attempt := 0; ; attempt++ {
		reqID := g.newReq(p)
		g.sendCtl(master, MsgBlkReq{ReqID: reqID, Blk: blk, ForWrite: forWrite})
		v, ok := g.recvReply(p, reqID)
		g.host.Dispatch(p, g.costs.ResumeDispatch)
		if !ok {
			if attempt >= g.MaxFetchRetries {
				return ErrFetchFailed
			}
			continue
		}
		if v == "neg" {
			// Step 2: read from the home node's disk over iSCSI — unless the
			// block is brand new and formatted in place.
			if !create {
				g.Stats.BlockDiskReads++
				if err := g.pager.ReadBlock(p, blk, BlockBytes); err != nil {
					return err
				}
				g.host.Dispatch(p, g.costs.ResumeDispatch)
			}
		} else {
			g.Stats.BlockTransfers++
		}
		// Step 4: tell the directory we hold it now.
		g.sendCtl(master, MsgBlkAck{Blk: blk, Holder: g.self, ForWrite: forWrite})
		return nil
	}
}

// pickSupplier chooses a current holder other than requester: the last
// writer if it holds a copy (most recent image), else the lowest holder.
// Returns -1 if none.
func (g *GCS) pickSupplier(blk BlockID, requester int) int {
	e := g.dir[blk]
	if w := e.writerSupplier(requester); w >= 0 {
		return w
	}
	return (e.holders &^ (1 << requester)).lowest()
}

// masterBlockReq serves step 1 at the directory master.
func (g *GCS) masterBlockReq(from int, m MsgBlkReq) {
	var supplier int
	if m.HaveCopy {
		// Currency fetch: only the last writer's image improves on the
		// requester's own copy.
		supplier = g.dir[m.Blk].writerSupplier(from)
	} else {
		supplier = g.pickSupplier(m.Blk, from)
	}
	if supplier < 0 {
		g.sendCtl(from, MsgBlkNeg{ReqID: m.ReqID})
		return
	}
	if supplier == g.self {
		// Master itself supplies: ship data directly (C == B).
		g.sendData(from, MsgBlkXfer{ReqID: m.ReqID, Blk: m.Blk},
			BlockBytes+g.vm.VersionBytes(m.Blk))
		return
	}
	g.nextReq++
	fid := g.nextReq
	g.pendingFwd[fid] = fwdState{
		requester: from, blk: m.Blk, forWrite: m.ForWrite,
		tried: 1 << supplier, reqID: m.ReqID,
	}
	g.sendCtl(supplier, MsgBlkFwd{ReqID: fid, DestReqID: m.ReqID, Blk: m.Blk, Requester: from})
}

// holderForward serves step 3 at the supplier C.
func (g *GCS) holderForward(from int, m MsgBlkFwd) {
	if !g.cache.Contains(m.Blk) {
		// Raced an eviction; tell the master (or the requester when the
		// master asked on its own behalf).
		if m.Requester == from {
			g.sendCtl(from, MsgBlkNeg{ReqID: m.ReqID})
		} else {
			g.sendCtl(from, MsgBlkFwdFail{ReqID: m.ReqID, Blk: m.Blk, Requester: m.Requester})
		}
		return
	}
	size := BlockBytes + g.vm.VersionBytes(m.Blk)
	g.sendData(m.Requester, MsgBlkXfer{ReqID: m.DestReqID, Blk: m.Blk}, size)
}

// masterFwdFail retries with another supplier or negs the requester.
func (g *GCS) masterFwdFail(from int, m MsgBlkFwdFail) {
	st, ok := g.pendingFwd[m.ReqID]
	if !ok {
		return
	}
	g.masterEvict(st.blk, from)
	// Retry the lowest untried holder.
	next := (g.dir[st.blk].holders &^ st.tried &^ (1 << st.requester)).lowest()
	if next < 0 {
		delete(g.pendingFwd, m.ReqID)
		g.sendCtl(st.requester, MsgBlkNeg{ReqID: st.reqID})
		return
	}
	if next == g.self {
		delete(g.pendingFwd, m.ReqID)
		g.sendData(st.requester, MsgBlkXfer{ReqID: st.reqID, Blk: st.blk},
			BlockBytes+g.vm.VersionBytes(st.blk))
		return
	}
	st.tried |= 1 << next
	g.pendingFwd[m.ReqID] = st
	g.sendCtl(next, MsgBlkFwd{ReqID: m.ReqID, DestReqID: st.reqID, Blk: st.blk, Requester: st.requester})
}

// masterRegisterHolder records a new holder (step 4 / local fill), moving
// write ownership when the access was a write: the previous owner is told
// its image is no longer current. Also reaps any pendingFwd entries that
// completed (XFER went straight to the requester, so the master learns
// completion from the ack).
func (g *GCS) masterRegisterHolder(blk BlockID, holder int, forWrite bool) {
	e, ok := g.dir[blk]
	if !ok {
		e.lastWriter = -1
	}
	e.holders |= 1 << holder
	if forWrite && e.lastWriter != holder {
		prev := e.lastWriter
		e.lastWriter = holder
		if prev >= 0 {
			if prev == g.self {
				g.revokeOwnership(blk)
			} else {
				g.sendCtl(prev, MsgOwnerRevoke{Blk: blk})
			}
		}
	}
	g.dir[blk] = e
	for id, st := range g.pendingFwd {
		if st.blk == blk && st.requester == holder {
			delete(g.pendingFwd, id)
		}
	}
}

// Prewarm admits a self-homed block into the local cache and directory at
// build time (no messages involved); the home starts as write owner.
// Returns false when the cache is full.
func (g *GCS) Prewarm(blk BlockID) bool {
	if g.cat.Home(blk) != g.self {
		return false
	}
	if !g.cache.InsertWarm(blk) {
		return false
	}
	if f := g.cache.Peek(blk); f != nil {
		f.WriteOwner = true
	}
	g.masterRegisterHolder(blk, g.self, true)
	return true
}

// masterEvict removes a holder from the directory.
func (g *GCS) masterEvict(blk BlockID, holder int) {
	e := g.dir[blk]
	e.holders &^= 1 << holder
	if e.holders == 0 {
		delete(g.dir, blk)
	} else {
		g.dir[blk] = e
	}
}

// OnEvict is the buffer cache's eviction callback: write back dirty data
// and notify the directory (§2.1: "if A had to evict a block ... it informs
// B of that too").
func (g *GCS) OnEvict(blk BlockID, dirty bool) {
	if dirty {
		g.pager.WriteBack(blk, BlockBytes)
	}
	master := g.cat.Master(blk)
	if master == g.self {
		g.masterEvict(blk, g.self)
		return
	}
	g.sendCtl(master, MsgEvict{Blk: blk, Holder: g.self})
}

// ---- Global locks ----

// AcquireLock requests the exclusive lock on res for txn and reports
// whether it was granted. If wait is true the caller blocks until granted
// or the deadlock timeout expires; if false a would-block request is denied
// immediately (the paper's release-and-retry path for later locks in a
// sequence).
func (g *GCS) AcquireLock(p *sim.Proc, txn TxnRef, res ResourceID, wait bool) bool {
	trace.Enter(p, trace.PhaseLock)
	granted := g.acquireLock(p, txn, res, wait)
	trace.Exit(p)
	return granted
}

func (g *GCS) acquireLock(p *sim.Proc, txn TxnRef, res ResourceID, wait bool) bool {
	if g.Gate != nil && !g.Gate(g.cat.Home(BlockID{res.Table, res.Block})) {
		g.Stats.GateRejects++
		g.Stats.LockFails++
		g.Stats.noteFail(res.Table)
		return false
	}
	master := g.cat.Master(BlockID{res.Table, res.Block})
	start := g.sim.Now()
	if master == g.self {
		g.host.Execute(p, g.costs.LockRequest)
		if g.locks.TryLock(res, txn) {
			return true
		}
		if !wait {
			g.Stats.LockFails++
			g.Stats.noteFail(res.Table)
			return false
		}
		grant := p.Waiter()
		g.locks.Wait(res, txn, func() { grant.Deliver(nil) })
		g.Stats.LockWaits++
		g.Stats.noteWait(res.Table)
		_, ok := p.Await(g.DeadlockTimeout)
		if !ok {
			g.locks.Cancel(res, txn)
			g.Stats.LockFails++
			g.Stats.noteFail(res.Table)
		}
		g.recordLockWait(start)
		g.host.Dispatch(p, g.costs.ResumeDispatch)
		return ok
	}

	// Remote master.
	reqID := g.newReq(p)
	g.sendCtl(master, MsgLockReq{ReqID: reqID, Res: res, Txn: txn, NoWait: !wait})
	v, ok := p.Await(g.DeadlockTimeout)
	g.host.Dispatch(p, g.costs.ResumeDispatch)
	if !ok {
		delete(g.pending, reqID)
		g.sendCtl(master, MsgLockCancel{Res: res, Txn: txn})
		g.Stats.LockFails++
		g.Stats.noteFail(res.Table)
		g.Stats.LockWaits++
		g.Stats.noteWait(res.Table)
		g.recordLockWait(start)
		return false
	}
	switch r := v.(type) {
	case MsgLockGrant:
		if r.Waited {
			g.Stats.LockWaits++
			g.Stats.noteWait(res.Table)
			g.recordLockWait(start)
		}
		return true
	case MsgLockDeny:
		g.Stats.LockFails++
		g.Stats.noteFail(res.Table)
	}
	return false
}

// masterLockReq serves a remote lock request: a grant at once, a deny for a
// NoWait request that would queue, or a grant when the lock passes to it.
func (g *GCS) masterLockReq(from int, m MsgLockReq) {
	switch {
	case g.locks.TryLock(m.Res, m.Txn):
		g.sendCtl(from, MsgLockGrant{ReqID: m.ReqID})
	case m.NoWait:
		g.sendCtl(from, MsgLockDeny{ReqID: m.ReqID})
	default:
		g.locks.Wait(m.Res, m.Txn, func() {
			g.sendCtl(from, MsgLockGrant{ReqID: m.ReqID, Waited: true})
		})
	}
}

// ReleaseLocks drops every lock txn holds: local releases plus one batched
// control message per remote master.
func (g *GCS) ReleaseLocks(txn TxnRef, held []ResourceID) {
	var perMaster [MaxNodes][]ResourceID
	for _, r := range held {
		m := g.cat.Master(BlockID{r.Table, r.Block})
		if m == g.self {
			g.locks.Release(r, txn)
		} else {
			perMaster[m] = append(perMaster[m], r)
		}
	}
	for m, rs := range perMaster[:] {
		if len(rs) > 0 {
			g.sendCtl(m, MsgLockRelease{Txn: txn, Res: rs})
		}
	}
}

// ---- Logging ----

// WriteLog makes size bytes of log durable before returning: on the local
// log disk, or at the central log node over the fabric (Fig 9). When the
// central node stops answering (injected faults), the write is retried and
// finally falls back to the local log device so commits keep making
// progress instead of wedging the cluster on one unreachable node.
func (g *GCS) WriteLog(p *sim.Proc, size int) {
	trace.Enter(p, trace.PhaseDisk)
	g.writeLog(p, size)
	trace.Exit(p)
}

func (g *GCS) writeLog(p *sim.Proc, size int) {
	g.redoBytes += int64(size)
	if g.CentralLogNode < 0 || g.CentralLogNode == g.self {
		g.writeLocalLog(p, size)
		return
	}
	for attempt := 0; ; attempt++ {
		reqID := g.newReq(p)
		g.sendData(g.CentralLogNode, MsgLogWrite{ReqID: reqID, From: g.self, Size: size}, size)
		_, ok := g.recvReply(p, reqID)
		g.host.Dispatch(p, g.costs.ResumeDispatch)
		if ok {
			return
		}
		if attempt >= g.MaxFetchRetries {
			g.Stats.LogFallbacks++
			g.writeLocalLog(p, size)
			return
		}
	}
}

// writeLocalLog blocks until the local log device reports durability.
func (g *GCS) writeLocalLog(p *sim.Proc, size int) {
	durable := p.Waiter()
	g.logDisk.Submit(size, func() { durable.Deliver(nil) })
	p.Await(-1)
	g.host.Dispatch(p, g.costs.ResumeDispatch)
}
