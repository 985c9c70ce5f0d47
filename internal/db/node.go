package db

import (
	"errors"
	"slices"

	"dclue/internal/sim"
	"dclue/internal/stats"
)

// ErrLockFailed aborts the current transaction attempt: a lock could not be
// acquired and the paper's protocol (§2.3) releases everything and retries
// after a delay.
var ErrLockFailed = errors.New("db: lock acquisition failed")

// Txn is one transaction attempt executing on a node.
type Txn struct {
	Ref      TxnRef
	Snapshot sim.Time
	node     *Node

	locks     []ResourceID // held, in acquisition order
	freed     []freedRow
	writeRows int
	logBytes  int
}

type freedRow struct {
	table TableID
	row   int64
}

// NodeStats aggregates the executor-level measurements of one node.
type NodeStats struct {
	Commits      uint64
	Aborts       uint64
	RowsRead     uint64
	RowsWritten  uint64
	VersionsRead stats.Tally // snapshot hops per read
}

// Node is one cluster member's database engine: buffer cache, version
// manager, lock client/master, fusion directory client/master, pager and
// log — plus the executor API the workload drives.
type Node struct {
	Self  int
	sim   *sim.Sim
	cat   *Catalog
	host  Host
	Cache *BufferCache
	VM    *VersionManager
	GCS   *GCS
	Pager *Pager
	costs *OpCosts

	nextTxn uint64
	procs   []*sim.Proc // engine-internal processes, for teardown on crash
	Stats   NodeStats
}

// NodeConfig sizes a node's memory structures.
type NodeConfig struct {
	BufferFrames  int      // buffer cache capacity in 8 KB frames
	OverflowBytes int      // MVCC overflow area
	GCInterval    sim.Time // version GC cadence (0 disables)
	GCHorizon     sim.Time // versions older than now-horizon are reclaimable
}

// NewNode assembles a node engine. The caller wires the transport
// afterwards via n.GCS.SetTransport.
func NewNode(s *sim.Sim, self int, cat *Catalog, host Host, cfg NodeConfig,
	pagerMk func(costs *OpCosts, cache *BufferCache) *Pager, costs *OpCosts, logDisk LogDevice) *Node {

	n := &Node{Self: self, sim: s, cat: cat, host: host, costs: costs}
	var gcs *GCS
	n.Cache = NewBufferCache(cfg.BufferFrames, func(blk BlockID, dirty bool) {
		if gcs != nil {
			gcs.OnEvict(blk, dirty)
		}
	})
	n.Pager = pagerMk(costs, n.Cache)
	n.VM = NewVersionManager(cat, n.Cache, cfg.OverflowBytes)
	gcs = NewGCS(s, self, cat, host, n.Cache, n.Pager, n.VM, costs, logDisk)
	n.GCS = gcs

	// Version garbage collection: reclaim versions no active snapshot can
	// need. Snapshots live at most a transaction's lifetime; the horizon is
	// a safe multiple of healthy response times.
	if cfg.GCInterval > 0 {
		n.procs = append(n.procs, s.Spawn("mvcc-gc", func(p *sim.Proc) {
			for {
				p.Sleep(cfg.GCInterval)
				n.VM.GC(p.Now() - cfg.GCHorizon)
			}
		}))
	}
	return n
}

// Procs returns the engine's internal processes in spawn order, so a node
// crash can kill them deterministically.
func (n *Node) Procs() []*sim.Proc { return n.procs }

// CrashSnapshot reports what recovery must reconstruct if the node died at
// this instant: its dirty owned blocks (buffer-pool order) and the redo-log
// bytes written since the last checkpoint. The core crash injector captures
// this as the ground truth a real log scan would discover.
func (n *Node) CrashSnapshot() (dirty []BlockID, redoBytes int64) {
	n.Cache.Each(func(f *Frame) {
		if f.Dirty && f.WriteOwner {
			dirty = append(dirty, f.Blk)
		}
	})
	return dirty, n.GCS.RedoBytes()
}

// Begin starts a transaction attempt, charging initiation work.
func (n *Node) Begin(p *sim.Proc) *Txn {
	n.nextTxn++
	n.host.Execute(p, n.costs.TxnBegin)
	return &Txn{
		Ref:      TxnRef{Node: n.Self, ID: n.nextTxn},
		Snapshot: n.sim.Now(),
		node:     n,
	}
}

// access pins the index leaf and data block of a row (phase 1: latch and
// bring missing data into the cache), charging traversal costs. The caller
// unpins via release. On a fetch failure nothing is left pinned and the
// error (ErrFetchFailed) propagates so the transaction attempt aborts.
func (n *Node) access(p *sim.Proc, t *Table, row int64, forWrite bool) error {
	n.host.Execute(p, float64(t.Index.Height())*n.costs.IndexLevel+n.costs.Latch)
	ixBlk := t.IndexLeafOf(row)
	if err := n.GCS.GetBlock(p, ixBlk, false); err != nil {
		return err
	}
	dataBlk := t.BlockOf(row)
	if err := n.GCS.GetBlock(p, dataBlk, forWrite); err != nil {
		n.Cache.Unpin(ixBlk)
		return err
	}
	return nil
}

// release unpins a row's blocks.
func (n *Node) release(t *Table, row int64) {
	n.Cache.Unpin(t.IndexLeafOf(row))
	n.Cache.Unpin(t.BlockOf(row))
}

// Read performs a snapshot read of the row with the given key. With MVCC no
// lock is taken (§2.1); the read charges version-walk work for versions
// newer than the snapshot. Returns the row id, ok=false if the key does not
// exist, or an error if the block fetch failed under injected faults.
func (n *Node) Read(p *sim.Proc, txn *Txn, tid TableID, key int64) (int64, bool, error) {
	t := n.cat.Table(tid)
	row, ok := t.Lookup(key)
	if !ok {
		n.host.Execute(p, float64(t.Index.Height())*n.costs.IndexLevel)
		return 0, false, nil
	}
	if err := n.access(p, t, row, false); err != nil {
		return 0, false, err
	}
	hops := n.VM.SnapshotHops(tid, row, txn.Snapshot)
	n.host.Execute(p, n.costs.RowRead+float64(hops)*n.costs.VersionHop)
	n.Stats.RowsRead++
	n.Stats.VersionsRead.Add(float64(hops))
	n.release(t, row)
	return row, true, nil
}

// Update write-locks and updates the row with the given key, creating a new
// version. Returns ErrLockFailed when the lock cannot be acquired under the
// paper's wait-once policy; the caller must abort and retry.
func (n *Node) Update(p *sim.Proc, txn *Txn, tid TableID, key int64) (int64, error) {
	t := n.cat.Table(tid)
	row, ok := t.Lookup(key)
	if !ok {
		return 0, errors.New("db: update of missing key")
	}
	if err := n.lockRow(p, txn, t, row); err != nil {
		return 0, err
	}
	if err := n.access(p, t, row, true); err != nil {
		return 0, err
	}
	versions := n.VM.Create(t, row, n.sim.Now())
	n.host.Execute(p, n.costs.RowWrite+n.costs.VersionCreate+float64(versions-1)*n.costs.VersionHop/4)
	n.markDirty(t.BlockOf(row))
	n.Stats.RowsWritten++
	txn.writeRows++
	txn.logBytes += t.Spec.RowBytes
	n.release(t, row)
	return row, nil
}

// Insert creates a row for key, homed (for fresh blocks) on homeNode — the
// partition owner of the row's warehouse.
func (n *Node) Insert(p *sim.Proc, txn *Txn, tid TableID, key int64, homeNode int) (int64, error) {
	t := n.cat.Table(tid)
	row, fresh := t.InsertFresh(key, homeNode)
	if err := n.lockRow(p, txn, t, row); err != nil {
		t.Delete(key) // undo placement
		return 0, err
	}
	n.host.Execute(p, float64(t.Index.Height())*n.costs.IndexLevel+n.costs.Latch)
	if err := n.GCS.GetBlock(p, t.IndexLeafOf(row), false); err != nil {
		t.Delete(key) // undo placement
		return 0, err
	}
	var err error
	if fresh {
		err = n.GCS.GetBlockCreate(p, t.BlockOf(row))
	} else {
		err = n.GCS.GetBlock(p, t.BlockOf(row), true)
	}
	if err != nil {
		n.Cache.Unpin(t.IndexLeafOf(row))
		t.Delete(key) // undo placement
		return 0, err
	}
	n.host.Execute(p, n.costs.RowInsert+n.costs.IndexInsert+n.costs.VersionCreate)
	n.VM.Create(t, row, n.sim.Now())
	n.markDirty(t.BlockOf(row))
	n.Stats.RowsWritten++
	txn.writeRows++
	txn.logBytes += t.Spec.RowBytes
	n.release(t, row)
	return row, nil
}

// TryDelete deletes the row for key if its lock is immediately available,
// returning claimed=false (without aborting the transaction) when another
// transaction holds it or the key is already gone. Deferred-mode delivery
// uses it to skip a district whose oldest order is being delivered by
// someone else.
func (n *Node) TryDelete(p *sim.Proc, txn *Txn, tid TableID, key int64) (claimed bool) {
	t := n.cat.Table(tid)
	row, ok := t.Lookup(key)
	if !ok {
		return false
	}
	res := t.ResourceOf(row)
	if !slices.Contains(txn.locks, res) {
		if !n.GCS.AcquireLock(p, txn.Ref, res, false) {
			return false
		}
		txn.locks = append(txn.locks, res)
	}
	// The row could have been deleted while the lock message was in flight.
	if _, still := t.Lookup(key); !still {
		return false
	}
	if err := n.access(p, t, row, true); err != nil {
		// The lock stays held until commit/abort releases it; the district
		// is simply skipped this round.
		return false
	}
	n.host.Execute(p, n.costs.RowDelete)
	t.DeleteKeepSlot(key)
	txn.freed = append(txn.freed, freedRow{tid, row})
	n.markDirty(t.BlockOf(row))
	txn.writeRows++
	txn.logBytes += 64
	n.release(t, row)
	return true
}

// Delete removes the row with the given key under its exclusive lock.
func (n *Node) Delete(p *sim.Proc, txn *Txn, tid TableID, key int64) error {
	t := n.cat.Table(tid)
	row, ok := t.Lookup(key)
	if !ok {
		return errors.New("db: delete of missing key")
	}
	if err := n.lockRow(p, txn, t, row); err != nil {
		return err
	}
	if err := n.access(p, t, row, true); err != nil {
		return err
	}
	n.host.Execute(p, n.costs.RowDelete)
	t.DeleteKeepSlot(key)
	txn.freed = append(txn.freed, freedRow{tid, row})
	n.markDirty(t.BlockOf(row))
	txn.writeRows++
	txn.logBytes += 64 // delete log record
	n.release(t, row)
	return nil
}

// Scan visits index entries from key upward until fn returns false,
// fetching each visited row's data block (snapshot reads, no locks).
func (n *Node) Scan(p *sim.Proc, txn *Txn, tid TableID, from int64, fn func(k, row int64) bool) error {
	t := n.cat.Table(tid)
	n.host.Execute(p, float64(t.Index.Height())*n.costs.IndexLevel)
	type ent struct{ k, row int64 }
	var batch []ent
	t.Index.Scan(from, func(k, row int64) bool {
		batch = append(batch, ent{k, row})
		return fn(k, row)
	})
	for _, e := range batch {
		if err := n.GCS.GetBlock(p, t.BlockOf(e.row), false); err != nil {
			return err
		}
		hops := n.VM.SnapshotHops(tid, e.row, txn.Snapshot)
		n.host.Execute(p, n.costs.ScanEntry+float64(hops)*n.costs.VersionHop)
		n.Cache.Unpin(t.BlockOf(e.row))
		n.Stats.RowsRead++
	}
	return nil
}

// lockRow acquires the global exclusive lock on a row's subpage (phase 2).
// Contended locks wait in the master's queue; a wait that outlives the
// deadlock-suspicion timeout is treated as a failure, on which the caller
// releases everything and retries after a delay (§2.3's lock-wait /
// release-and-delayed-retry scheme).
func (n *Node) lockRow(p *sim.Proc, txn *Txn, t *Table, row int64) error {
	res := t.ResourceOf(row)
	if slices.Contains(txn.locks, res) {
		return nil // already held by this transaction
	}
	if !n.GCS.AcquireLock(p, txn.Ref, res, true) {
		return ErrLockFailed
	}
	txn.locks = append(txn.locks, res)
	return nil
}

// markDirty flags a resident block dirty.
func (n *Node) markDirty(blk BlockID) {
	if f := n.Cache.Lookup(blk); f != nil {
		f.Dirty = true
		n.Cache.Unpin(blk)
	}
}

// Commit makes the transaction durable: commit work, the forced log write,
// then lock release (one batched message per remote master).
func (n *Node) Commit(p *sim.Proc, txn *Txn) {
	n.host.Execute(p, n.costs.TxnCommit+n.costs.LogSetup+float64(txn.logBytes)*n.costs.LogPerByte)
	if txn.logBytes > 0 {
		n.GCS.WriteLog(p, txn.logBytes+128)
	}
	n.GCS.ReleaseLocks(txn.Ref, txn.locks)
	for _, f := range txn.freed {
		n.cat.Table(f.table).Recycle(f.row)
	}
	n.Stats.Commits++
}

// Abort releases everything without logging; the caller retries after a
// delay.
func (n *Node) Abort(p *sim.Proc, txn *Txn) {
	n.host.Execute(p, n.costs.TxnCommit/2)
	n.GCS.ReleaseLocks(txn.Ref, txn.locks)
	for _, f := range txn.freed {
		n.cat.Table(f.table).Recycle(f.row)
	}
	n.Stats.Aborts++
}
