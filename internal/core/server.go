package core

import (
	"fmt"

	"dclue/internal/db"
	"dclue/internal/iscsi"
	"dclue/internal/sim"
	"dclue/internal/tcp"
	"dclue/internal/tpcc"
	"dclue/internal/trace"
)

// clientReq frames a terminal's transaction request on the wire. span is
// trace metadata riding along (nil unless the terminal sampled this
// transaction); it does not contribute to the wire size.
type clientReq struct {
	id   uint64
	req  tpcc.Request
	span *trace.Span
}

// clientResp frames the server's reply.
type clientResp struct {
	id uint64
	ok bool
}

// acceptClient serves one client connection on a server node: each request
// message spawns a worker thread that executes the transaction (with the
// paper's release-and-delayed-retry loop on lock failure) and replies.
func (c *Cluster) acceptClient(self int, conn *tcp.Conn) {
	n := c.nodes[self]
	conn.SetOnMessage(func(m tcp.Message) {
		req := m.Meta.(clientReq)
		c.spawnOn(self, fmt.Sprintf("worker-%d", self), func(p *sim.Proc) {
			// The guard stays although Span's methods are nil-safe: a
			// typed-nil *Span handed to SetSpan is a non-nil interface,
			// which would defeat trace.Enter's nil-interface fast path.
			if req.span != nil {
				req.span.BeginServer(p.Now())
				p.SetSpan(req.span)
			}
			ok := c.executeWithRetry(p, n, req.req)
			if req.span != nil {
				p.SetSpan(nil)
				req.span.EndServer(p.Now())
			}
			if conn.Established() {
				conn.Enqueue(clientResp{id: req.id, ok: ok}, tpcc.RespBytes(req.req.Type))
			}
		})
	})
}

// retryBackoff is the delay before re-executing a failed attempt. On a
// fault-free fabric it is the paper's constant RetryDelay; with recovery
// armed it doubles per attempt up to RetryDelayMax, so retries against a
// partition inside a fence-to-reopen window spread out instead of hammering
// the gate in lockstep.
func (c *Cluster) retryBackoff(attempt int) sim.Time {
	d := c.P.RetryDelay
	if c.rec == nil {
		return d
	}
	maxD := c.P.retryDelayMax()
	for i := 0; i < attempt && d < maxD; i++ {
		d *= 2
	}
	if d > maxD {
		d = maxD
	}
	return d
}

// executeWithRetry runs one transaction to completion: commits count toward
// throughput; lock failures abort, wait the retry delay, and re-execute
// (§2.3); the spec's intentional rollbacks are terminal. Fault-induced
// aborts — a block fetch that kept timing out, a disk read that kept
// failing — take the same release-and-delayed-retry path as lock failures,
// and the fault window may have passed by the time the retry runs. An abort
// (db.Node.Abort) releases the transaction's locks and recycles the rows it
// deleted, so the deletions stand. It undoes nothing else: rows it inserted
// stay in their index, and its tpcc attribute writes (district next order
// id, stock quantities, carrier and delivery marks) stay written. ROADMAP.md
// item 2 plans the undo.
func (c *Cluster) executeWithRetry(p *sim.Proc, n *node, req tpcc.Request) bool {
	for attempt := 0; ; attempt++ {
		err := c.Eng.Execute(p, n.dbn, req, n.workerRnd)
		switch err {
		case nil:
			c.allCommits++
			if c.measuring {
				c.commits[req.Type]++
			}
			return true
		case tpcc.ErrRollback:
			c.allCommits++
			if c.measuring {
				c.rollbacks++
			}
			return true // executed per spec; not an error
		case db.ErrLockFailed, db.ErrFetchFailed, db.ErrDiskFailed, iscsi.ErrIO:
			if attempt >= c.P.MaxTxnRetries {
				if c.measuring {
					c.failures++
				}
				return false
			}
			if c.measuring {
				c.retries++
			}
			// Charge the backoff to the phase whose failure caused it.
			ph := trace.PhaseLock
			switch err {
			case db.ErrFetchFailed:
				ph = trace.PhaseGCS
			case db.ErrDiskFailed, iscsi.ErrIO:
				ph = trace.PhaseDisk
			}
			trace.Enter(p, ph)
			p.Sleep(c.retryBackoff(attempt))
			trace.Exit(p)
		default:
			if c.measuring {
				c.failures++
			}
			return false
		}
	}
}
