package db

import (
	"testing"

	"dclue/internal/disk"
	"dclue/internal/rng"
	"dclue/internal/sim"
)

// instantHost runs path lengths in zero simulated time (db-level unit
// tests care about protocol behaviour, not CPU timing).
type instantHost struct{}

func (instantHost) Execute(p *sim.Proc, pathLen float64)  {}
func (instantHost) Dispatch(p *sim.Proc, pathLen float64) {}
func (instantHost) Process(pathLen float64, done func())  { done() }

// loopTransport delivers messages between in-process GCS instances after a
// fixed delay.
type loopTransport struct {
	s     *sim.Sim
	self  int
	peers []*GCS
	delay sim.Time
}

func (t *loopTransport) Send(to int, m Msg, size int) {
	from := t.self
	t.s.After(t.delay, func() { t.peers[to].HandleMessage(from, m) })
}

// cluster is a little two-or-more node harness for executor tests.
type cluster struct {
	s     *sim.Sim
	cat   *Catalog
	nodes []*Node
	tbl   *Table
}

func buildCluster(nNodes int, bufFrames int) *cluster {
	s := sim.New()
	cat := NewCatalog(nNodes)
	tbl := cat.AddTable(TableSpec{Name: "t", RowBytes: 512, Subpages: 4})
	cl := &cluster{s: s, cat: cat, tbl: tbl}
	gcss := make([]*GCS, nNodes)
	for i := 0; i < nNodes; i++ {
		i := i
		drv := disk.NewDrive(s, disk.DefaultParams(1), rng.Derive(9, "d"))
		logd := disk.DefaultLogDisk(s, 1)
		mkPager := func(costs *OpCosts, cache *BufferCache) *Pager {
			return NewPager(s, i, cat, instantHost{}, []*disk.Drive{drv}, nil, costs)
		}
		n := NewNode(s, i, cat, instantHost{},
			NodeConfig{BufferFrames: bufFrames, OverflowBytes: 1 << 20},
			mkPager, DefaultOpCosts(), logd)
		cl.nodes = append(cl.nodes, n)
		gcss[i] = n.GCS
	}
	for i, n := range cl.nodes {
		n.GCS.SetTransport(&loopTransport{s: s, self: i, peers: gcss, delay: 50 * sim.Microsecond})
	}
	return cl
}

// seedRows inserts keys [0,count) homed on the given node, bypassing
// locking (build phase).
func (cl *cluster) seedRows(count int64, home int) {
	for k := int64(0); k < count; k++ {
		cl.tbl.Insert(k, home)
	}
}

func TestLocalReadCommit(t *testing.T) {
	cl := buildCluster(1, 256)
	cl.seedRows(100, 0)
	n := cl.nodes[0]
	var ok bool
	cl.s.Spawn("txn", func(p *sim.Proc) {
		txn := n.Begin(p)
		_, ok, _ = n.Read(p, txn, cl.tbl.ID, 42)
		n.Commit(p, txn)
	})
	cl.s.Run(10 * sim.Second)
	cl.s.Shutdown()
	if !ok {
		t.Fatal("read failed")
	}
	if n.Stats.Commits != 1 {
		t.Fatalf("commits %d", n.Stats.Commits)
	}
	if n.GCS.Stats.BlockDiskReads == 0 {
		t.Fatal("cold read did not hit disk")
	}
}

func TestReadMissingKey(t *testing.T) {
	cl := buildCluster(1, 256)
	n := cl.nodes[0]
	found := true
	cl.s.Spawn("txn", func(p *sim.Proc) {
		txn := n.Begin(p)
		_, found, _ = n.Read(p, txn, cl.tbl.ID, 9999)
		n.Commit(p, txn)
	})
	cl.s.Run(10 * sim.Second)
	cl.s.Shutdown()
	if found {
		t.Fatal("found absent key")
	}
}

func TestRemoteFetchUsesFusionProtocol(t *testing.T) {
	cl := buildCluster(2, 256)
	cl.seedRows(100, 1) // all data homed on node 1
	n0, n1 := cl.nodes[0], cl.nodes[1]

	// Warm node 1's cache so it holds the blocks.
	cl.s.Spawn("warm", func(p *sim.Proc) {
		txn := n1.Begin(p)
		for k := int64(0); k < 100; k++ {
			n1.Read(p, txn, cl.tbl.ID, k)
		}
		n1.Commit(p, txn)
	})
	cl.s.Run(20 * sim.Second)

	// Now node 0 reads: blocks must arrive by cache-fusion transfer, not
	// disk.
	transfersBefore := n0.GCS.Stats.BlockTransfers
	cl.s.Spawn("remote", func(p *sim.Proc) {
		txn := n0.Begin(p)
		for k := int64(0); k < 100; k++ {
			n0.Read(p, txn, cl.tbl.ID, k)
		}
		n0.Commit(p, txn)
	})
	cl.s.Run(40 * sim.Second)
	cl.s.Shutdown()
	if n0.GCS.Stats.BlockTransfers == transfersBefore {
		t.Fatal("no cache-fusion transfers for remotely cached blocks")
	}
	if n0.GCS.Stats.CtlMsgsSent == 0 {
		t.Fatal("no control messages sent")
	}
	if n1.GCS.Stats.DataMsgsSent == 0 {
		t.Fatal("holder sent no data messages")
	}
}

func TestColdReadOfOwnPartitionHitsLocalDisk(t *testing.T) {
	// In a 2-node cluster, node 0 cold-reading its own partition must go to
	// its local disk (directory negative at self), with zero IPC messages.
	cl := buildCluster(2, 256)
	// Block-align partitions: 16 rows per 8 KB block at 512 B rows.
	for k := int64(0); k < 16; k++ {
		cl.tbl.Insert(k, 0)
	}
	for k := int64(16); k < 32; k++ {
		cl.tbl.Insert(k, 1)
	}
	n0 := cl.nodes[0]
	var done bool
	cl.s.Spawn("cold", func(p *sim.Proc) {
		txn := n0.Begin(p)
		if _, ok, _ := n0.Read(p, txn, cl.tbl.ID, 3); !ok {
			t.Error("key missing")
		}
		n0.Commit(p, txn)
		done = true
	})
	cl.s.Run(20 * sim.Second)
	cl.s.Shutdown()
	if !done {
		t.Fatal("cold read did not complete")
	}
	if n0.GCS.Stats.BlockDiskReads == 0 {
		t.Fatal("no disk read")
	}
	if n0.GCS.Stats.CtlMsgsSent != 0 {
		t.Fatalf("local-partition read sent %d IPC messages", n0.GCS.Stats.CtlMsgsSent)
	}
	if n0.Pager.LocalReads == 0 || n0.Pager.RemoteReads != 0 {
		t.Fatalf("pager local=%d remote=%d", n0.Pager.LocalReads, n0.Pager.RemoteReads)
	}
}

func TestUpdateCreatesVersionAndLocks(t *testing.T) {
	cl := buildCluster(1, 256)
	cl.seedRows(10, 0)
	n := cl.nodes[0]
	cl.s.Spawn("w", func(p *sim.Proc) {
		txn := n.Begin(p)
		if _, err := n.Update(p, txn, cl.tbl.ID, 5); err != nil {
			t.Error(err)
		}
		n.Commit(p, txn)
	})
	cl.s.Run(10 * sim.Second)
	cl.s.Shutdown()
	if n.VM.Created != 1 {
		t.Fatalf("versions created %d", n.VM.Created)
	}
	if n.Stats.RowsWritten != 1 {
		t.Fatalf("rows written %d", n.Stats.RowsWritten)
	}
	// Lock released at commit.
	row, _ := cl.tbl.Lookup(5)
	if _, held := n.GCS.locks.locks[cl.tbl.ResourceOf(row)]; held {
		t.Fatal("lock still held after commit")
	}
}

func TestWriteConflictSecondWaits(t *testing.T) {
	cl := buildCluster(1, 256)
	cl.seedRows(10, 0)
	n := cl.nodes[0]
	var order []string
	cl.s.Spawn("t1", func(p *sim.Proc) {
		txn := n.Begin(p)
		n.Update(p, txn, cl.tbl.ID, 0)
		order = append(order, "t1-locked")
		p.Sleep(100 * sim.Millisecond)
		n.Commit(p, txn)
		order = append(order, "t1-commit")
	})
	cl.s.Spawn("t2", func(p *sim.Proc) {
		p.Sleep(10 * sim.Millisecond)
		txn := n.Begin(p)
		if _, err := n.Update(p, txn, cl.tbl.ID, 0); err != nil {
			t.Errorf("t2 update: %v", err)
		}
		order = append(order, "t2-locked")
		n.Commit(p, txn)
	})
	cl.s.Run(10 * sim.Second)
	cl.s.Shutdown()
	if len(order) != 3 || order[0] != "t1-locked" || order[1] != "t1-commit" || order[2] != "t2-locked" {
		t.Fatalf("order %v", order)
	}
	if n.GCS.Stats.LockWaits == 0 {
		t.Fatal("no lock wait recorded")
	}
}

func TestSecondContentionFailsFast(t *testing.T) {
	// A transaction that already spent its blocking wait must get
	// ErrLockFailed on the next contended lock.
	cl := buildCluster(1, 256)
	cl.seedRows(10, 0)
	n := cl.nodes[0]
	cl.tbl.Spec.Subpages = 8 // row-level-ish
	var gotErr error
	// Holder pins rows 0 and 1 forever.
	cl.s.Spawn("holder", func(p *sim.Proc) {
		txn := n.Begin(p)
		n.Update(p, txn, cl.tbl.ID, 0)
		n.Update(p, txn, cl.tbl.ID, 1)
		p.Sleep(5 * sim.Second) // outlives everything
		n.Commit(p, txn)
	})
	cl.s.Spawn("victim", func(p *sim.Proc) {
		p.Sleep(10 * sim.Millisecond)
		n.GCS.DeadlockTimeout = 50 * sim.Millisecond // quick test
		txn := n.Begin(p)
		_, err1 := n.Update(p, txn, cl.tbl.ID, 0) // waits, times out
		if err1 == nil {
			t.Error("first contended update unexpectedly granted")
		}
		_, gotErr = n.Update(p, txn, cl.tbl.ID, 1) // must fail fast
		n.Abort(p, txn)
	})
	cl.s.Run(10 * sim.Second)
	cl.s.Shutdown()
	if gotErr != ErrLockFailed {
		t.Fatalf("second contention error = %v, want ErrLockFailed", gotErr)
	}
	if n.Stats.Aborts != 1 {
		t.Fatalf("aborts %d", n.Stats.Aborts)
	}
	if n.GCS.Stats.LockFails < 2 {
		t.Fatalf("lock fails %d", n.GCS.Stats.LockFails)
	}
}

func TestInsertDeleteRoundTrip(t *testing.T) {
	cl := buildCluster(1, 256)
	n := cl.nodes[0]
	cl.s.Spawn("txn", func(p *sim.Proc) {
		txn := n.Begin(p)
		if _, err := n.Insert(p, txn, cl.tbl.ID, 777, 0); err != nil {
			t.Error(err)
		}
		n.Commit(p, txn)
		txn2 := n.Begin(p)
		if _, ok, _ := n.Read(p, txn2, cl.tbl.ID, 777); !ok {
			t.Error("inserted row not found")
		}
		if err := n.Delete(p, txn2, cl.tbl.ID, 777); err != nil {
			t.Error(err)
		}
		n.Commit(p, txn2)
		txn3 := n.Begin(p)
		if _, ok, _ := n.Read(p, txn3, cl.tbl.ID, 777); ok {
			t.Error("deleted row still visible")
		}
		n.Commit(p, txn3)
	})
	cl.s.Run(10 * sim.Second)
	cl.s.Shutdown()
}

func TestScanVisitsRange(t *testing.T) {
	cl := buildCluster(1, 256)
	cl.seedRows(50, 0)
	n := cl.nodes[0]
	var keys []int64
	cl.s.Spawn("scan", func(p *sim.Proc) {
		txn := n.Begin(p)
		n.Scan(p, txn, cl.tbl.ID, 10, func(k, row int64) bool {
			keys = append(keys, k)
			return len(keys) < 5
		})
		n.Commit(p, txn)
	})
	cl.s.Run(10 * sim.Second)
	cl.s.Shutdown()
	if len(keys) != 5 || keys[0] != 10 || keys[4] != 14 {
		t.Fatalf("scan keys %v", keys)
	}
}

func TestCommitWritesLog(t *testing.T) {
	cl := buildCluster(1, 256)
	cl.seedRows(10, 0)
	n := cl.nodes[0]
	logd := n.GCS.logDisk.(*disk.LogDisk)
	cl.s.Spawn("txn", func(p *sim.Proc) {
		txn := n.Begin(p)
		n.Update(p, txn, cl.tbl.ID, 1)
		n.Commit(p, txn)
	})
	cl.s.Run(10 * sim.Second)
	cl.s.Shutdown()
	if logd.Writes != 1 {
		t.Fatalf("log writes %d", logd.Writes)
	}
}

func TestCentralizedLogging(t *testing.T) {
	cl := buildCluster(2, 256)
	cl.seedRows(10, 1)
	n1 := cl.nodes[1]
	// Node 1 logs at node 0.
	n1.GCS.CentralLogNode = 0
	log0 := cl.nodes[0].GCS.logDisk.(*disk.LogDisk)
	log1 := n1.GCS.logDisk.(*disk.LogDisk)
	cl.s.Spawn("txn", func(p *sim.Proc) {
		txn := n1.Begin(p)
		n1.Update(p, txn, cl.tbl.ID, 1)
		n1.Commit(p, txn)
	})
	cl.s.Run(10 * sim.Second)
	cl.s.Shutdown()
	if log1.Writes != 0 {
		t.Fatal("local log written despite central logging")
	}
	if log0.Writes != 1 {
		t.Fatalf("central log writes %d", log0.Writes)
	}
}

func TestReadOnlyCommitSkipsLog(t *testing.T) {
	cl := buildCluster(1, 256)
	cl.seedRows(10, 0)
	n := cl.nodes[0]
	logd := n.GCS.logDisk.(*disk.LogDisk)
	cl.s.Spawn("txn", func(p *sim.Proc) {
		txn := n.Begin(p)
		n.Read(p, txn, cl.tbl.ID, 1)
		n.Commit(p, txn)
	})
	cl.s.Run(10 * sim.Second)
	cl.s.Shutdown()
	if logd.Writes != 0 {
		t.Fatal("read-only transaction wrote log")
	}
}
