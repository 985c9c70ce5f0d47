package core

import (
	"fmt"

	"dclue/internal/netsim"
	"dclue/internal/rng"
	"dclue/internal/sim"
	"dclue/internal/tcp"
	"dclue/internal/telemetry"
	"dclue/internal/tpcc"
)

// terminal is one TPC-C terminal: per the spec it is tied to a single
// warehouse (and district) and issues business transactions — a new-order
// followed by companion transactions in the nominal proportions — over a
// fresh client-server TCP connection each (§2.3). The affinity parameter
// decides whether a business transaction goes to the warehouse's home
// server or a random one.
func (c *Cluster) terminal(p *sim.Proc, w, t int) {
	r := rng.Derive(c.P.Seed, fmt.Sprintf("terminal-%d-%d", w, t))
	d := t % tpcc.Districts
	home := c.Eng.WarehouseOwner(w)
	var reqID uint64

	// Stagger terminal starts across the early warmup to avoid a thundering
	// herd at t=0 (the warm-up statistics are discarded anyway).
	p.Sleep(sim.Time(r.Float64() * 0.4 * float64(c.P.Warmup)))

	for {
		target := home
		if !r.Bool(c.P.Affinity) {
			target = r.Intn(c.P.Nodes)
		}
		// Client-side failover (recovery-armed runs only): a terminal whose
		// server is known down redirects to the next live node instead of
		// burning a SYN retransmission cycle against a dead address. The rng
		// draws above happen regardless, so the terminal's stream stays
		// aligned with fault-free runs.
		if c.rec != nil && c.rec.down[target] {
			target = c.rec.nextLive(target)
			c.rec.clientRetries++
		}
		conn := tcp.Dial(p, c.clientStack, nodeAddrOf(target), PortClient,
			tcp.DialOptions{Class: netsim.ClassBestEffort, MaxRetx: 50, TC: telemetry.ClassClient})
		if conn == nil {
			p.Sleep(1 * sim.Second)
			continue
		}
		var reply sim.Waiter // the pending request's; each request takes a fresh one
		conn.SetOnMessage(func(m tcp.Message) { reply.Deliver(m.Meta) })

		for _, ty := range businessSequence(r) {
			// Keying + think time precede each transaction (spec shape,
			// unscaled: the per-warehouse arrival rate is what the 100x
			// platform scaling leaves constant).
			p.Sleep(sim.Time(r.Exp(float64(tpcc.MeanTxnDelay(ty)))))
			reqID++
			sent := p.Now()
			// Offer the transaction to the trace sampler; the span (if any)
			// rides the request to the server worker and is finished here
			// when the reply arrives.
			sp := c.tr.StartSpan(sent, w*c.P.TerminalsPerWarehouse+t)
			reply = p.Waiter()
			conn.Enqueue(clientReq{id: reqID, req: tpcc.Request{Type: ty, Warehouse: w, District: d}, span: sp},
				tpcc.ReqBytes)
			// Terminals wait out slow responses: abandoning a request whose
			// transaction is still executing server-side would let the
			// terminal's next transaction deadlock with its own zombie on
			// the same district row. The long stop-loss only covers a
			// reply that can never arrive. With recovery armed it tightens:
			// a crash kills the server worker outright (no zombie survives),
			// so a terminal caught mid-request re-dials after a bounded wait
			// instead of sitting out the whole outage.
			stopLoss := 600 * sim.Second
			if c.rec != nil {
				stopLoss = 30 * sim.Second
			}
			if _, ok := p.Await(stopLoss); !ok {
				break
			}
			if c.measuring {
				c.respTally.n++
				c.respTally.sum += p.Now() - sent
				c.respHist.Add((p.Now() - sent).Millis())
				sp.Finish(p.Now())
			}
		}
		conn.Close()
	}
}

// businessSequence draws one business transaction: a new-order plus
// companions so that the long-run mix matches 43/43/5/5/4.
func businessSequence(r *rng.Stream) []tpcc.TxnType {
	seq := []tpcc.TxnType{tpcc.TxnNewOrder, tpcc.TxnPayment}
	if r.Bool(5.0 / 43.0) {
		seq = append(seq, tpcc.TxnOrderStatus)
	}
	if r.Bool(5.0 / 43.0) {
		seq = append(seq, tpcc.TxnDelivery)
	}
	if r.Bool(4.0 / 43.0) {
		seq = append(seq, tpcc.TxnStockLevel)
	}
	return seq
}
