package tpcc

import (
	"errors"
	"sort"

	"dclue/internal/db"
	"dclue/internal/rng"
	"dclue/internal/sim"
)

// TxnType enumerates the five TPC-C transactions.
type TxnType int

// The transaction mix (§2.2): 43% new-order, 43% payment, 5% order-status,
// 5% delivery, 4% stock-level.
const (
	TxnNewOrder TxnType = iota
	TxnPayment
	TxnOrderStatus
	TxnDelivery
	TxnStockLevel
	NumTxnTypes
)

func (t TxnType) String() string {
	return [...]string{"new-order", "payment", "order-status", "delivery", "stock-level"}[t]
}

// PickTxnType draws from the nominal mix.
func PickTxnType(r *rng.Stream) TxnType {
	x := r.Float64()
	switch {
	case x < 0.43:
		return TxnNewOrder
	case x < 0.86:
		return TxnPayment
	case x < 0.91:
		return TxnOrderStatus
	case x < 0.96:
		return TxnDelivery
	default:
		return TxnStockLevel
	}
}

// Request is one transaction as submitted by a terminal.
type Request struct {
	Type      TxnType
	Warehouse int
	District  int
}

// ErrRollback marks the spec's intentional new-order rollback (1% invalid
// item); it is not retried.
var ErrRollback = errors.New("tpcc: intentional rollback")

// RespBytes returns the client response size for a transaction type.
func RespBytes(t TxnType) int {
	switch t {
	case TxnNewOrder:
		return 1024
	case TxnPayment:
		return 512
	case TxnOrderStatus:
		return 1536
	case TxnDelivery:
		return 384
	default:
		return 320
	}
}

// ReqBytes is the client request size.
const ReqBytes = 300

// Execute runs one transaction attempt on node. It returns nil on commit,
// ErrRollback for the spec's intentional abort (already rolled back), or
// db.ErrLockFailed when the attempt aborted on lock contention and should
// be retried after a delay (§2.3).
func (e *Engine) Execute(p *sim.Proc, node *db.Node, req Request, r *rng.Stream) error {
	txn := node.Begin(p)
	var err error
	switch req.Type {
	case TxnNewOrder:
		err = e.newOrder(p, node, txn, req, r)
	case TxnPayment:
		err = e.payment(p, node, txn, req, r)
	case TxnOrderStatus:
		err = e.orderStatus(p, node, txn, req, r)
	case TxnDelivery:
		err = e.delivery(p, node, txn, req, r)
	case TxnStockLevel:
		err = e.stockLevel(p, node, txn, req, r)
	}
	if err != nil {
		node.Abort(p, txn)
		return err
	}
	node.Commit(p, txn)
	return nil
}

// newOrder implements the spec flow: read warehouse tax, customer, update
// district (allocating o_id), per line read item + update stock (1% remote
// warehouse), insert order, new-order, and the lines. 1% of transactions
// roll back on an invalid item.
func (e *Engine) newOrder(p *sim.Proc, n *db.Node, txn *db.Txn, req Request, r *rng.Stream) error {
	w, d := req.Warehouse, req.District
	owner := e.whOwner[w]

	_, ok, err := n.Read(p, txn, e.Tables[TWarehouse].ID, int64(w))
	if err != nil {
		return err
	}
	if !ok {
		return errors.New("tpcc: missing warehouse")
	}
	cust := e.nuRandCustomer(r)
	if _, _, err := n.Read(p, txn, e.Tables[TCustomer].ID, e.CustKey(w, d, cust)); err != nil {
		return err
	}

	if _, err := n.Update(p, txn, e.Tables[TDistrict].ID, e.DistKey(w, d)); err != nil {
		return err
	}
	dist := w*Districts + d
	oid := int(e.distNextO[dist])
	e.distNextO[dist]++

	cnt := r.IntRange(5, MaxOrderLines)
	rollback := r.Bool(0.01) // spec: 1% invalid item aborts
	items := make([]int, cnt)
	stocks := make([]int64, 0, cnt)
	for l := 0; l < cnt; l++ {
		item := e.nuRandItem(r)
		items[l] = item
		supplyW := w
		if e.Cfg.Warehouses > 1 && r.Bool(0.01) { // spec: 1% remote stock
			supplyW = r.Intn(e.Cfg.Warehouses)
		}
		stocks = append(stocks, e.StockKey(supplyW, item))
	}
	if rollback {
		// Unused item id: the lookup fails after the reads done so far.
		if _, _, err := n.Read(p, txn, e.Tables[TItem].ID, int64(e.Cfg.Items)+1); err != nil {
			return err
		}
		return ErrRollback
	}
	// Acquire stock rows in key order: with the scaled-down item table two
	// concurrent new-orders collide on hot items often enough that
	// unordered acquisition deadlocks; ordered acquisition removes the
	// cycles without changing the work done.
	sort.Slice(stocks, func(i, j int) bool { return stocks[i] < stocks[j] })
	for l := 0; l < cnt; l++ {
		if _, _, err := n.Read(p, txn, e.Tables[TItem].ID, int64(items[l])); err != nil {
			return err
		}
	}
	for _, sk := range stocks {
		if _, err := n.Update(p, txn, e.Tables[TStock].ID, sk); err != nil {
			return err
		}
		q := e.stockQty[sk] - int32(r.IntRange(1, 10))
		if q < 10 {
			q += 91
		}
		e.stockQty[sk] = q
	}

	okey := e.OrderKey(w, d, oid)
	orow, err := n.Insert(p, txn, e.Tables[TOrder].ID, okey, owner)
	if err != nil {
		return err
	}
	e.setOrder(orow, int32(cust), int8(cnt), 0)
	if _, err := n.Insert(p, txn, e.Tables[TNewOrder].ID, okey, owner); err != nil {
		return err
	}
	for l := 0; l < cnt; l++ {
		lrow, err := n.Insert(p, txn, e.Tables[TOrderLine].ID, e.OLKey(w, d, oid, l), owner)
		if err != nil {
			return err
		}
		e.setOrderLine(lrow, int32(items[l]), false)
	}
	e.lastOrder[e.custIdx(w, d, cust)] = int32(oid)
	return nil
}

// payment updates warehouse and district YTD, selects the customer (60% by
// last name via the secondary index, 15% resident at a remote warehouse),
// updates the balance, and appends history.
func (e *Engine) payment(p *sim.Proc, n *db.Node, txn *db.Txn, req Request, r *rng.Stream) error {
	w, d := req.Warehouse, req.District
	if _, err := n.Update(p, txn, e.Tables[TWarehouse].ID, int64(w)); err != nil {
		return err
	}
	if _, err := n.Update(p, txn, e.Tables[TDistrict].ID, e.DistKey(w, d)); err != nil {
		return err
	}
	cw, cd := w, d
	if e.Cfg.Warehouses > 1 && r.Bool(0.15) { // spec: 15% remote customer
		for cw == w {
			cw = r.Intn(e.Cfg.Warehouses)
		}
		cd = r.Intn(Districts)
	}
	cust, err := e.selectCustomer(p, n, txn, cw, cd, r)
	if err != nil {
		return err
	}
	if _, err := n.Update(p, txn, e.Tables[TCustomer].ID, e.CustKey(cw, cd, cust)); err != nil {
		return err
	}
	_, err = n.Insert(p, txn, e.Tables[THistory].ID, e.HistKey(n.Self), e.whOwner[w])
	return err
}

// orderStatus reads a customer and their most recent order with its lines.
func (e *Engine) orderStatus(p *sim.Proc, n *db.Node, txn *db.Txn, req Request, r *rng.Stream) error {
	w, d := req.Warehouse, req.District
	cust, err := e.selectCustomer(p, n, txn, w, d, r)
	if err != nil {
		return err
	}
	if _, _, err := n.Read(p, txn, e.Tables[TCustomer].ID, e.CustKey(w, d, cust)); err != nil {
		return err
	}
	oid := int(e.lastOrder[e.custIdx(w, d, cust)])
	if oid == 0 {
		return nil
	}
	orow, ok, err := n.Read(p, txn, e.Tables[TOrder].ID, e.OrderKey(w, d, oid))
	if err != nil {
		return err
	}
	if !ok {
		return nil
	}
	cnt := int(e.orderOLCnt.get(orow))
	count := 0
	return n.Scan(p, txn, e.Tables[TOrderLine].ID, e.OLKey(w, d, oid, 0), func(k, row int64) bool {
		count++
		return count < cnt
	})
}

// delivery processes the oldest undelivered order of every district of the
// warehouse: delete its new-order entry, stamp the order with a carrier,
// mark each line delivered, and credit the customer.
func (e *Engine) delivery(p *sim.Proc, n *db.Node, txn *db.Txn, req Request, r *rng.Stream) error {
	w := req.Warehouse
	for d := 0; d < Districts; d++ {
		base := e.OrderKey(w, d, 0)
		limit := e.OrderKey(w, d+1, 0)
		var okey int64 = -1
		e.Tables[TNewOrder].Index.Scan(base, func(k, row int64) bool {
			if k < limit {
				okey = k
			}
			return false
		})
		if okey < 0 {
			continue // no undelivered order in this district (spec: skip)
		}
		// Deferred-mode delivery: if another delivery already claimed this
		// district's oldest order, skip the district rather than queueing
		// behind it.
		if !n.TryDelete(p, txn, e.Tables[TNewOrder].ID, okey) {
			continue
		}
		orow, err := n.Update(p, txn, e.Tables[TOrder].ID, okey)
		if err != nil {
			return err
		}
		*e.orderCarrier.at(orow) = int8(r.IntRange(1, 10))
		oid := int(okey & ((1 << 24) - 1))
		cnt := int(e.orderOLCnt.get(orow))
		for l := 0; l < cnt; l++ {
			lrow, err := n.Update(p, txn, e.Tables[TOrderLine].ID, e.OLKey(w, d, oid, l))
			if err != nil {
				return err
			}
			*e.olDelivered.at(lrow) = true
		}
		cust := int(e.orderCust.get(orow))
		if _, err := n.Update(p, txn, e.Tables[TCustomer].ID, e.CustKey(w, d, cust)); err != nil {
			return err
		}
	}
	return nil
}

// stockLevel examines the order lines of the district's last 20 orders and
// counts distinct items with stock below a threshold.
func (e *Engine) stockLevel(p *sim.Proc, n *db.Node, txn *db.Txn, req Request, r *rng.Stream) error {
	w, d := req.Warehouse, req.District
	if _, _, err := n.Read(p, txn, e.Tables[TDistrict].ID, e.DistKey(w, d)); err != nil {
		return err
	}
	dist := w*Districts + d
	next := int(e.distNextO[dist])
	lo := next - 20
	if lo < 1 {
		lo = 1
	}
	threshold := int32(r.IntRange(10, 20))
	seen := make(map[int32]bool)
	from := e.OLKey(w, d, lo, 0)
	limit := e.OrderKey(w, d, next) * MaxOrderLines
	count := 0
	var items []int32
	if err := n.Scan(p, txn, e.Tables[TOrderLine].ID, from, func(k, row int64) bool {
		if k >= limit || count >= 200 {
			return false
		}
		count++
		it := e.olItem.get(row)
		if !seen[it] {
			seen[it] = true
			items = append(items, it)
		}
		return true
	}); err != nil {
		return err
	}
	low := 0
	for _, it := range items {
		if _, _, err := n.Read(p, txn, e.Tables[TStock].ID, e.StockKey(w, int(it))); err != nil {
			return err
		}
		if e.stockQty[w*e.Cfg.Items+int(it)] < threshold {
			low++
		}
	}
	return nil
}

// selectCustomer resolves a customer 60% by last name (modelled as an extra
// secondary-index probe resolving to a deterministic customer) and 40% by
// id, per spec.
func (e *Engine) selectCustomer(p *sim.Proc, n *db.Node, txn *db.Txn, w, d int, r *rng.Stream) (int, error) {
	if r.Bool(0.6) {
		// By last name: NURand over 255 names; the name resolves to a
		// cluster of customers, one of which is chosen. Charge the extra
		// index traversal by touching the customer index leaf again.
		name := nuRand(r, 255, 0, 254)
		cust := (name * 7) % e.Cfg.CustomersPerDist
		if _, _, err := n.Read(p, txn, e.Tables[TCustomer].ID, e.CustKey(w, d, cust)); err != nil {
			return 0, err
		}
		return cust, nil
	}
	return e.nuRandCustomer(r), nil
}

// nuRandCustomer draws a customer id with the spec's NURand skew. The spec
// pairs A=1023 with 3000 customers (A ≈ range/3); with the scaled-down
// population the same A/range ratio is preserved, otherwise the bit-OR
// construction concentrates far more mass on a few ids than TPC-C intends.
func (e *Engine) nuRandCustomer(r *rng.Stream) int {
	return nuRand(r, nuRandA(e.Cfg.CustomersPerDist, 3), 0, e.Cfg.CustomersPerDist-1)
}

// nuRandItem draws an item id with the spec's NURand skew (spec: A=8191 for
// 100K items, A ≈ range/12).
func (e *Engine) nuRandItem(r *rng.Stream) int {
	return nuRand(r, nuRandA(e.Cfg.Items, 12), 0, e.Cfg.Items-1)
}

// nuRandA returns the largest 2^k-1 not exceeding range/ratio (minimum 1).
func nuRandA(rangeSize, ratio int) int {
	a := 1
	for a*2-1 <= rangeSize/ratio {
		a *= 2
	}
	if a-1 < 1 {
		return 1
	}
	return a - 1
}

// nuRand is the TPC-C non-uniform random function
// NURand(A,x,y) = (((rand(0,A) | rand(x,y)) + C) % (y-x+1)) + x.
func nuRand(r *rng.Stream, a, x, y int) int {
	const c = 123 // constant per spec §2.1.6 (any fixed value)
	if a < 1 {
		a = 1
	}
	return (((r.IntRange(0, a) | r.IntRange(x, y)) + c) % (y - x + 1)) + x
}
