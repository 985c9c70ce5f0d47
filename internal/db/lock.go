package db

import (
	"slices"
	"sort"
)

// resourceIDLess is the (table, block, subpage) order for sort.Slice over rs.
func resourceIDLess(rs []ResourceID) func(i, j int) bool {
	return func(i, j int) bool {
		a, b := rs[i], rs[j]
		if a.Table != b.Table {
			return a.Table < b.Table
		}
		if a.Block != b.Block {
			return a.Block < b.Block
		}
		return a.Subpage < b.Subpage
	}
}

// TxnRef names a transaction cluster-wide. Node.Begin numbers transactions
// from 1, so the zero TxnRef names none.
type TxnRef struct {
	Node int
	ID   uint64
}

// lockWaiter is a queued request at the master.
type lockWaiter struct {
	txn   TxnRef
	grant func()
}

// lockEntry is the master-side state of one locked resource: its holder and
// the requests queued behind it, oldest first. A zero holder marks the lock
// free; pump deletes an entry that is free with nobody queued.
type lockEntry struct {
	holder TxnRef
	queue  []lockWaiter
}

// LockService is the lock master role of one node: it owns the lock tables
// for every resource whose block it homes (partition-aware mastering, like
// the directory). With multi-version concurrency control reads never lock
// (§2.1), so every lock is exclusive and has at most one holder.
//
// Two transactions on one node can share a TxnRef: Node.Begin takes the
// next id only after its initiation work, so two Begins that overlap there
// build the same TxnRef. That race is the only reason the table grants a
// request whose TxnRef is the holder's, in TryLock and in pump alike.
type LockService struct {
	locks map[ResourceID]*lockEntry
}

// NewLockService returns an empty lock master.
func NewLockService() *LockService {
	return &LockService{locks: make(map[ResourceID]*lockEntry)}
}

// TryLock takes res for txn if it is free, or if txn's TxnRef already holds
// it, and reports whether it did.
func (ls *LockService) TryLock(res ResourceID, txn TxnRef) bool {
	e := ls.locks[res]
	if e == nil {
		ls.locks[res] = &lockEntry{holder: txn}
		return true
	}
	return e.holder == txn
}

// Wait queues txn for res after TryLock refused it; grant runs once, when
// the lock passes to txn.
func (ls *LockService) Wait(res ResourceID, txn TxnRef, grant func()) {
	e := ls.locks[res]
	e.queue = append(e.queue, lockWaiter{txn: txn, grant: grant})
}

// Release drops txn's hold on res and pumps the queue.
func (ls *LockService) Release(res ResourceID, txn TxnRef) {
	e := ls.locks[res]
	if e == nil {
		return
	}
	if e.holder == txn {
		e.holder = TxnRef{}
	}
	ls.pump(res, e)
}

// Cancel withdraws txn's oldest queued request on res (the requester gave
// up waiting). If txn has none queued, the grant raced the cancel and this
// is a release.
func (ls *LockService) Cancel(res ResourceID, txn TxnRef) {
	e := ls.locks[res]
	if e == nil {
		return
	}
	if i := slices.IndexFunc(e.queue, func(w lockWaiter) bool { return w.txn == txn }); i >= 0 {
		e.queue = slices.Delete(e.queue, i, i+1)
	} else if e.holder == txn {
		e.holder = TxnRef{}
	}
	ls.pump(res, e)
}

// pump hands a free lock to the head waiter, and grants every waiter at the
// head whose TxnRef is the holder's, in FIFO order. It deletes the entry
// once the lock is free with nobody queued.
func (ls *LockService) pump(res ResourceID, e *lockEntry) {
	for len(e.queue) > 0 {
		w := e.queue[0]
		if e.holder != (TxnRef{}) && e.holder != w.txn {
			break
		}
		e.queue = slices.Delete(e.queue, 0, 1)
		e.holder = w.txn
		w.grant()
	}
	if e.holder == (TxnRef{}) {
		delete(ls.locks, res)
	}
}

// ReleaseNode drops every hold and queued request belonging to transactions
// from node, pumping each affected queue: fencing a crashed node frees its
// locks so survivors stop waiting on a peer that will never answer.
// Resources are visited in sorted order for determinism.
func (ls *LockService) ReleaseNode(node int) {
	for _, res := range ls.sortedResources() {
		e := ls.locks[res]
		if e.holder.Node == node {
			e.holder = TxnRef{}
		}
		e.queue = slices.DeleteFunc(e.queue, func(w lockWaiter) bool { return w.txn.Node == node })
		ls.pump(res, e)
	}
}

// DropHomedAt discards master state for every resource satisfying pred
// without granting anyone: used when mastering moves (surrogate takeover or
// hand-back), where the new master rebuilds state from survivors.
func (ls *LockService) DropHomedAt(pred func(ResourceID) bool) {
	for res := range ls.locks {
		if pred(res) {
			delete(ls.locks, res)
		}
	}
}

// sortedResources returns the active resource ids in a total order.
func (ls *LockService) sortedResources() []ResourceID {
	out := make([]ResourceID, 0, len(ls.locks))
	for res := range ls.locks {
		out = append(out, res)
	}
	sort.Slice(out, resourceIDLess(out))
	return out
}
