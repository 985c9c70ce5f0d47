package db

import (
	"testing"

	"dclue/internal/disk"
	"dclue/internal/sim"
)

// gcsRig builds n GCS instances over the loopback transport with a shared
// catalog and one 16-rows-per-block table, all blocks homed on node 0.
type gcsRig struct {
	s     *sim.Sim
	cat   *Catalog
	tbl   *Table
	nodes []*Node
}

func newGCSRig(t *testing.T, n int) *gcsRig {
	t.Helper()
	cl := buildCluster(n, 256)
	for k := int64(0); k < 16; k++ {
		cl.tbl.Insert(k, 0)
	}
	prewarmHome(cl)
	return &gcsRig{s: cl.s, cat: cl.cat, tbl: cl.tbl, nodes: cl.nodes}
}

func TestFusionThreeNodeForward(t *testing.T) {
	// Classic A/B/C: master B=node0 (home), holder C=node0 after prewarm;
	// make node 1 a holder, then node 2's request must be served by a
	// forward: 0 (master) -> supplier -> xfer to 2.
	rig := newGCSRig(t, 3)
	n1, n2 := rig.nodes[1], rig.nodes[2]
	rig.s.Spawn("seq", func(p *sim.Proc) {
		txn := n1.Begin(p)
		n1.Read(p, txn, rig.tbl.ID, 3)
		n1.Commit(p, txn)

		before := n2.GCS.Stats.BlockTransfers
		txn2 := n2.Begin(p)
		n2.Read(p, txn2, rig.tbl.ID, 3)
		n2.Commit(p, txn2)
		if n2.GCS.Stats.BlockTransfers != before+2 { // index leaf + data block
			t.Errorf("transfers %d -> %d, want +2", before, n2.GCS.Stats.BlockTransfers)
		}
		if n2.GCS.Stats.BlockDiskReads != 0 {
			t.Error("fusion-served read hit disk")
		}
	})
	rig.s.Run(60 * sim.Second)
	rig.s.Shutdown()
}

func TestFusionPendingFwdCleanup(t *testing.T) {
	rig := newGCSRig(t, 3)
	n1 := rig.nodes[1]
	rig.s.Spawn("seq", func(p *sim.Proc) {
		txn := n1.Begin(p)
		n1.Read(p, txn, rig.tbl.ID, 1)
		n1.Commit(p, txn)
	})
	rig.s.Run(60 * sim.Second)
	rig.s.Shutdown()
	for i, n := range rig.nodes {
		if len(n.GCS.pendingFwd) != 0 {
			t.Fatalf("node %d leaked %d pendingFwd entries", i, len(n.GCS.pendingFwd))
		}
		if len(n.GCS.pending) != 0 {
			t.Fatalf("node %d leaked %d pending requests", i, len(n.GCS.pending))
		}
		if len(n.GCS.inflight) != 0 {
			t.Fatalf("node %d leaked %d inflight fills", i, len(n.GCS.inflight))
		}
	}
}

func TestEvictionNotifiesDirectory(t *testing.T) {
	// A tiny cache on node 1 forces evictions; the master's directory must
	// drop node 1 as holder so later requests are not forwarded to it.
	cl := buildCluster(2, 256)
	for k := int64(0); k < 16; k++ {
		cl.tbl.Insert(k, 0)
	}
	prewarmHome(cl)
	n0, n1 := cl.nodes[0], cl.nodes[1]
	cl.s.Spawn("seq", func(p *sim.Proc) {
		txn := n1.Begin(p)
		n1.Read(p, txn, cl.tbl.ID, 3)
		n1.Commit(p, txn)
		row, _ := cl.tbl.Lookup(3)
		blk := cl.tbl.BlockOf(row)
		// Force the eviction directly.
		n1.Cache.Invalidate(blk)
		n1.GCS.OnEvict(blk, false)
		p.Sleep(1 * sim.Second)
		e, ok := n0.GCS.dir[blk]
		if !ok {
			t.Error("directory entry vanished entirely")
			return
		}
		if e.holders.Has(1) {
			t.Error("master still lists node 1 as holder after eviction notice")
		}
	})
	cl.s.Run(30 * sim.Second)
	cl.s.Shutdown()
}

func TestCentralLogRoundTrip(t *testing.T) {
	cl := buildCluster(3, 256)
	n2 := cl.nodes[2]
	n2.GCS.CentralLogNode = 0
	done := false
	cl.s.Spawn("w", func(p *sim.Proc) {
		n2.GCS.WriteLog(p, 2048)
		done = true
	})
	cl.s.Run(30 * sim.Second)
	cl.s.Shutdown()
	if !done {
		t.Fatal("central log write never acknowledged")
	}
	if cl.nodes[0].GCS.logDisk.(*disk.LogDisk).Writes != 1 {
		t.Fatal("central node did not write the record")
	}
	if cl.nodes[2].GCS.logDisk.(*disk.LogDisk).Writes != 0 {
		t.Fatal("requesting node wrote locally despite central logging")
	}
}

func TestOpCostsScale(t *testing.T) {
	c := DefaultOpCosts()
	h := c.Scale(0.25)
	if h.TxnBegin*4 != c.TxnBegin || h.RowInsert*4 != c.RowInsert {
		t.Fatal("Scale did not quarter computational costs")
	}
	if h.LogPerByte != c.LogPerByte || h.DiskSetup != c.DiskSetup {
		t.Fatal("Scale touched I/O and logging costs")
	}
	// Original untouched.
	if c.TxnBegin != DefaultOpCosts().TxnBegin {
		t.Fatal("Scale mutated the receiver")
	}
}
