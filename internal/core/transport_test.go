package core

import (
	"testing"

	"dclue/internal/db"
	"dclue/internal/sim"
	"dclue/internal/tpcc"
)

// TestIPCTransportRoundTrip drives a GCS control message end-to-end over
// the real TCP mesh: node 1 requests a lock mastered at node 0 and gets the
// grant back.
func TestIPCTransportRoundTrip(t *testing.T) {
	p := quickParams(2)
	c := mustNew(t, p)
	var granted bool
	done := false
	c.Sim.At(10*sim.Second, func() { // mesh established well before this
		c.Sim.Spawn("locker", func(pr *sim.Proc) {
			// A resource on a block homed at node 0, requested from node 1.
			tbl := c.Eng.Tables[tpcc.TWarehouse]
			row, ok := tbl.Lookup(0) // warehouse 0 lives on node 0
			if !ok {
				t.Error("warehouse 0 missing")
				return
			}
			res := tbl.ResourceOf(row)
			txn := db.TxnRef{Node: 1, ID: 999999}
			granted = c.nodes[1].dbn.GCS.AcquireLock(pr, txn, res, true)
			c.nodes[1].dbn.GCS.ReleaseLocks(txn, []db.ResourceID{res})
			done = true
		})
	})
	c.Sim.Run(30 * sim.Second)
	c.Sim.Shutdown()
	if !done {
		t.Fatal("remote lock request never completed")
	}
	if !granted {
		t.Fatal("remote lock not granted")
	}
}

// TestIPCSelfSendShortCircuits: messages addressed to the sender (central
// logging on the log node itself) bypass the fabric.
func TestIPCSelfSendShortCircuits(t *testing.T) {
	p := quickParams(1)
	p.CentralLogging = true // node 0 logs at node 0
	c := mustNew(t, p)
	done := false
	c.Sim.At(5*sim.Second, func() {
		c.Sim.Spawn("w", func(pr *sim.Proc) {
			c.nodes[0].dbn.GCS.WriteLog(pr, 1024)
			done = true
		})
	})
	c.Sim.Run(20 * sim.Second)
	c.Sim.Shutdown()
	if !done {
		t.Fatal("self-addressed log write never completed")
	}
}

// TestWorkerRetriesRollbackNotRetried: the spec's 1% rollback terminates a
// request (no retry); lock failures retry with delay. Exercised indirectly:
// rollbacks must stay ~1% of new-orders even with retries enabled.
func TestWorkerRollbackRate(t *testing.T) {
	p := quickParams(1)
	c := mustNew(t, p)
	m := runOK(t, c)
	no := float64(m.Commits[tpcc.TxnNewOrder])
	if no < 50 {
		t.Skip("too few new-orders for a rate check")
	}
	rate := float64(m.Rollbacks) / no
	if rate > 0.06 {
		t.Fatalf("rollback rate %.3f, want ~0.01", rate)
	}
}
