package db

import (
	"cmp"
	"slices"
	"testing"

	"dclue/internal/rng"
)

var res1 = ResourceID{Table: 1, Block: 2, Subpage: 0}
var res2 = ResourceID{Table: 1, Block: 2, Subpage: 1}

func tx(n int, id uint64) TxnRef { return TxnRef{Node: n, ID: id} }

// request asks for res the way the GCS does: TryLock, then Wait with grant
// if the lock is taken. It reports whether the lock was granted at once.
func request(ls *LockService, res ResourceID, txn TxnRef, grant func()) bool {
	if ls.TryLock(res, txn) {
		return true
	}
	ls.Wait(res, txn, grant)
	return false
}

// holder returns res's holder, the zero TxnRef if the lock is free.
func holder(ls *LockService, res ResourceID) TxnRef {
	if e := ls.locks[res]; e != nil {
		return e.holder
	}
	return TxnRef{}
}

// queueLen returns the number of requests queued on res.
func queueLen(ls *LockService, res ResourceID) int {
	if e := ls.locks[res]; e != nil {
		return len(e.queue)
	}
	return 0
}

func TestLockImmediateGrant(t *testing.T) {
	ls := NewLockService()
	if !ls.TryLock(res1, tx(0, 1)) {
		t.Fatal("not granted")
	}
	if holder(ls, res1) != tx(0, 1) {
		t.Fatal("holder not recorded")
	}
}

func TestLockConflictQueuesThenGrants(t *testing.T) {
	ls := NewLockService()
	ls.TryLock(res1, tx(0, 1))
	got := false
	if request(ls, res1, tx(1, 2), func() { got = true }) || got {
		t.Fatal("conflicting lock granted immediately")
	}
	if queueLen(ls, res1) != 1 {
		t.Fatalf("queue %d", queueLen(ls, res1))
	}
	ls.Release(res1, tx(0, 1))
	if !got {
		t.Fatal("lock not granted after release")
	}
}

// TestLockReentrant: a request whose TxnRef is the holder's is granted at
// once. Two transactions that began together on one node can share a
// TxnRef (see LockService), and the table serves them as one holder.
func TestLockReentrant(t *testing.T) {
	ls := NewLockService()
	if !ls.TryLock(res1, tx(0, 1)) || !ls.TryLock(res1, tx(0, 1)) {
		t.Fatal("re-entrant request not granted")
	}
}

func TestLockFIFOOrder(t *testing.T) {
	ls := NewLockService()
	ls.TryLock(res1, tx(0, 1))
	var order []uint64
	for i := uint64(2); i <= 4; i++ {
		request(ls, res1, tx(1, i), func() { order = append(order, i) })
	}
	ls.Release(res1, tx(0, 1))
	ls.Release(res1, tx(1, 2))
	ls.Release(res1, tx(1, 3))
	if len(order) != 3 || order[0] != 2 || order[1] != 3 || order[2] != 4 {
		t.Fatalf("grant order %v", order)
	}
}

func TestLockCancelQueued(t *testing.T) {
	ls := NewLockService()
	ls.TryLock(res1, tx(0, 1))
	granted := false
	request(ls, res1, tx(1, 2), func() { granted = true })
	ls.Cancel(res1, tx(1, 2))
	ls.Release(res1, tx(0, 1))
	if granted {
		t.Fatal("cancelled waiter was granted")
	}
	if queueLen(ls, res1) != 0 {
		t.Fatal("queue not empty")
	}
}

func TestLockCancelAfterGrantActsAsRelease(t *testing.T) {
	ls := NewLockService()
	ls.TryLock(res1, tx(0, 1))
	ls.Cancel(res1, tx(0, 1)) // raced grant: treated as release
	if !ls.TryLock(res1, tx(1, 2)) {
		t.Fatal("resource not freed by cancel-as-release")
	}
}

func TestLockIndependentResources(t *testing.T) {
	ls := NewLockService()
	ls.TryLock(res1, tx(0, 1))
	if !ls.TryLock(res2, tx(1, 2)) {
		t.Fatal("different subpage blocked")
	}
}

func TestLockEntryCleanup(t *testing.T) {
	ls := NewLockService()
	ls.TryLock(res1, tx(0, 1))
	ls.Release(res1, tx(0, 1))
	if len(ls.locks) != 0 {
		t.Fatalf("lock entries %d after release", len(ls.locks))
	}
}

// refLock is the oracle's lock entry: a set of holders and a FIFO of
// waiters, served under the general lock manager's rule for exclusive
// requests (a request fits when every holder has its TxnRef).
type refLock struct {
	holders map[TxnRef]bool
	queue   []refWaiter
}

type refWaiter struct {
	txn TxnRef
	id  int
}

// refTable is the oracle for LockService. It logs the grants to queued
// waiters by id and counts those whose TxnRef already held the lock.
type refTable struct {
	locks       map[ResourceID]*refLock
	grants      []int
	sameRefPump int
}

func (m *refTable) fits(e *refLock, txn TxnRef) bool {
	for h := range e.holders {
		if h != txn {
			return false
		}
	}
	return true
}

func (m *refTable) request(res ResourceID, txn TxnRef) bool {
	e := m.locks[res]
	if e == nil {
		e = &refLock{holders: map[TxnRef]bool{}}
		m.locks[res] = e
	}
	if e.holders[txn] || (len(e.queue) == 0 && m.fits(e, txn)) {
		e.holders[txn] = true
		return true
	}
	return false
}

func (m *refTable) wait(res ResourceID, txn TxnRef, id int) {
	e := m.locks[res]
	e.queue = append(e.queue, refWaiter{txn, id})
}

func (m *refTable) release(res ResourceID, txn TxnRef) {
	if e := m.locks[res]; e != nil {
		delete(e.holders, txn)
		m.pump(res, e)
	}
}

func (m *refTable) cancel(res ResourceID, txn TxnRef) {
	e := m.locks[res]
	if e == nil {
		return
	}
	for i, w := range e.queue {
		if w.txn == txn {
			e.queue = append(e.queue[:i:i], e.queue[i+1:]...)
			m.pump(res, e)
			return
		}
	}
	if e.holders[txn] {
		delete(e.holders, txn)
		m.pump(res, e)
	}
}

func (m *refTable) pump(res ResourceID, e *refLock) {
	for len(e.queue) > 0 && m.fits(e, e.queue[0].txn) {
		w := e.queue[0]
		e.queue = e.queue[1:]
		if e.holders[w.txn] {
			m.sameRefPump++
		}
		e.holders[w.txn] = true
		m.grants = append(m.grants, w.id)
	}
	if len(e.holders) == 0 && len(e.queue) == 0 {
		delete(m.locks, res)
	}
}

func (m *refTable) releaseNode(node int) {
	var order []ResourceID
	for res := range m.locks {
		order = append(order, res)
	}
	slices.SortFunc(order, func(a, b ResourceID) int {
		return cmp.Or(cmp.Compare(a.Table, b.Table), cmp.Compare(a.Block, b.Block), cmp.Compare(a.Subpage, b.Subpage))
	})
	for _, res := range order {
		e := m.locks[res]
		for h := range e.holders {
			if h.Node == node {
				delete(e.holders, h)
			}
		}
		e.queue = slices.DeleteFunc(e.queue, func(w refWaiter) bool { return w.txn.Node == node })
		m.pump(res, e)
	}
}

// TestLockTableOracle drives random sequences of requests (TryLock, then
// Wait unless NoWait), releases (held and unheld), cancels (queued and
// granted), ReleaseNode and DropHomedAt against refTable, on 3 resources
// with TxnRefs from 3 nodes. Requests often reuse the TxnRef of a
// transaction already holding or queued on the resource, as two
// transactions that share a TxnRef do. After every step the holders and
// the queued TxnRefs must agree; the order in which queued waiters are
// granted must agree at the end, after every lock is released.
func TestLockTableOracle(t *testing.T) {
	resources := []ResourceID{res1, res2, {Table: 2, Block: 5, Subpage: 0}}
	kinds := map[string]int{}
	sameRef := 0
	for seed := uint64(1); seed <= 40; seed++ {
		r := rng.Derive(seed, "lock-oracle")
		ls := NewLockService()
		m := &refTable{locks: map[ResourceID]*refLock{}}
		var grants []int
		nextID := 0
		// known picks a TxnRef that holds or waits on res, or a random one.
		known := func(res ResourceID) TxnRef {
			if e := m.locks[res]; e != nil && r.Intn(4) > 0 {
				var refs []TxnRef
				for h := range e.holders {
					refs = append(refs, h)
				}
				for _, w := range e.queue {
					refs = append(refs, w.txn)
				}
				slices.SortFunc(refs, func(a, b TxnRef) int {
					return cmp.Or(cmp.Compare(a.Node, b.Node), cmp.Compare(a.ID, b.ID))
				})
				return refs[r.Intn(len(refs))]
			}
			return tx(r.Intn(3), uint64(1+r.Intn(3)))
		}
		check := func(step int, op string) {
			t.Helper()
			if len(ls.locks) != len(m.locks) {
				t.Fatalf("seed %d step %d (%s): %d entries, oracle %d", seed, step, op, len(ls.locks), len(m.locks))
			}
			for res, want := range m.locks {
				e := ls.locks[res]
				if e == nil {
					t.Fatalf("seed %d step %d (%s): %v missing", seed, step, op, res)
				}
				var wantHolder TxnRef
				for h := range want.holders {
					wantHolder = h
				}
				if len(want.holders) > 1 || e.holder != wantHolder {
					t.Fatalf("seed %d step %d (%s): %v held by %v, oracle %v", seed, step, op, res, e.holder, want.holders)
				}
				var got, wantQ []TxnRef
				for _, w := range e.queue {
					got = append(got, w.txn)
				}
				for _, w := range want.queue {
					wantQ = append(wantQ, w.txn)
				}
				if !slices.Equal(got, wantQ) {
					t.Fatalf("seed %d step %d (%s): %v queue %v, oracle %v", seed, step, op, res, got, wantQ)
				}
			}
		}
		for step := 0; step < 300; step++ {
			res := resources[r.Intn(len(resources))]
			var op string
			switch k := r.Intn(20); {
			case k < 10: // a request, NoWait when k >= 8
				txn := known(res)
				ok := ls.TryLock(res, txn)
				if want := m.request(res, txn); ok != want {
					t.Fatalf("seed %d step %d: request %v on %v granted %v, oracle %v", seed, step, txn, res, ok, want)
				}
				switch {
				case ok:
					op = "grant"
				case k >= 8:
					op = "nowait-refuse"
				default:
					op = "wait"
					id := nextID
					nextID++
					ls.Wait(res, txn, func() { grants = append(grants, id) })
					m.wait(res, txn, id)
				}
			case k < 14:
				txn := known(res)
				op = "release-unheld"
				if e := m.locks[res]; e != nil && e.holders[txn] {
					op = "release"
				}
				ls.Release(res, txn)
				m.release(res, txn)
			case k < 18:
				txn := known(res)
				op = "cancel-none"
				if e := m.locks[res]; e != nil {
					if slices.ContainsFunc(e.queue, func(w refWaiter) bool { return w.txn == txn }) {
						op = "cancel-queued"
					} else if e.holders[txn] {
						op = "cancel-granted"
					}
				}
				ls.Cancel(res, txn)
				m.cancel(res, txn)
			case k < 19:
				node := r.Intn(3)
				op = "release-node"
				ls.ReleaseNode(node)
				m.releaseNode(node)
			default:
				block := res.Block
				op = "drop-homed"
				pred := func(x ResourceID) bool { return x.Block == block }
				ls.DropHomedAt(pred)
				for x := range m.locks {
					if pred(x) {
						delete(m.locks, x)
					}
				}
			}
			kinds[op]++
			check(step, op)
		}
		// Release every lock until the table is empty, so every queued
		// waiter's place in the grant order is checked.
		for len(m.locks) > 0 {
			for _, res := range resources {
				if e := m.locks[res]; e != nil {
					h := holder(ls, res)
					ls.Release(res, h)
					m.release(res, h)
					check(-1, "drain")
				}
			}
		}
		if !slices.Equal(grants, m.grants) {
			t.Fatalf("seed %d: grant order %v, oracle %v", seed, grants, m.grants)
		}
		sameRef += m.sameRefPump
	}
	for _, op := range []string{"grant", "wait", "nowait-refuse", "release", "release-unheld",
		"cancel-queued", "cancel-granted", "release-node", "drop-homed"} {
		if kinds[op] == 0 {
			t.Errorf("no %s step in any seed", op)
		}
	}
	if sameRef == 0 {
		t.Error("no queued waiter was granted alongside a holder with its TxnRef")
	}
	t.Log(kinds, "same-TxnRef pump grants:", sameRef)
}
