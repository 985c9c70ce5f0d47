// Package tpcc implements the paper's workload: the TPC-C schema (9
// tables), its sizing rules, and all five transactions (new-order, payment,
// order-status, delivery, stock-level in 43/43/5/5/4 proportions), executed
// against the clustered db engine. The paper's affinity tweak — route a
// query to the warehouse's home server with probability α, else to a random
// server — lives in the cluster driver; this package owns warehouse
// partitioning and transaction logic.
package tpcc

import (
	"fmt"

	"dclue/internal/db"
	"dclue/internal/rng"
	"dclue/internal/sim"
)

// Districts per warehouse (TPC-C spec).
const Districts = 10

// MaxOrderLines bounds order lines per order (spec: 5..15, mean 10).
const MaxOrderLines = 15

// Config sizes the database.
type Config struct {
	Warehouses       int // total, spread evenly over nodes
	Items            int // paper: 100K unscaled, 1000 at scale 100
	CustomersPerDist int // spec: 3000; reduced defaults keep memory sane

	// CoarseSubpages uses 8 lock subpages per block instead of row-level
	// granularity — the untuned configuration §2.3's subpage tuning
	// improves on. Ablation knob.
	CoarseSubpages bool
}

// DefaultConfig returns the paper's scaled sizing for the given cluster:
// warehouses proportional to target throughput (≈40 per node at scale 100,
// i.e. ≈500 scaled tpm-C each), 1000 items, and a reduced customer
// population per district (documented substitution: preserves access
// pattern and contention — customer rows are uncontended — while keeping
// memory bounded; the buffer cache is sized relative to the database).
func DefaultConfig(nodes int) Config {
	return Config{
		Warehouses:       40 * nodes,
		Items:            1000,
		CustomersPerDist: 120,
	}
}

// Table indices into Engine.Tables.
const (
	TWarehouse = iota
	TDistrict
	TCustomer
	THistory
	TItem
	TStock
	TOrder
	TNewOrder
	TOrderLine
	NumTables
)

// TableNames for reporting.
var TableNames = [NumTables]string{
	"warehouse", "district", "customer", "history", "item",
	"stock", "order", "new-order", "order-line",
}

// Engine owns the cluster-global TPC-C state: the db tables plus the
// attribute data the transactions interpret (DCLUE retains "only what is
// essential to interpret and execute queries" — §2.3).
type Engine struct {
	Cfg     Config
	Cat     *db.Catalog
	Tables  [NumTables]*db.Table
	whOwner []int // warehouse -> node

	// Static-table attribute data, indexed by key.
	distNextO []int32 // [dist] next o_id
	stockQty  []int32 // [stock key] quantity

	// Dynamic attribute data, indexed by dense row id of the order /
	// order-line tables.
	orderCust    paged[int32]
	orderOLCnt   paged[int8]
	orderCarrier paged[int8]
	olItem       paged[int32]
	olDelivered  paged[bool]

	lastOrder []int32 // [cust key] most recent o_id, 0 if none

	histSeq []uint64 // per-node history key counters
}

// New builds the catalog and populates the database, homing each
// warehouse's partition (and every table block it spawns) on its owner
// node. Initial orders per district follow the spec shape: customers have
// order history and a backlog of undelivered new-orders.
func New(cat *db.Catalog, cfg Config, seed uint64) *Engine {
	e := &Engine{Cfg: cfg, Cat: cat}
	nodes := cat.Nodes()

	spec := func(name string, rowBytes, subpages int, placement db.Placement) *db.Table {
		return cat.AddTable(db.TableSpec{
			Name: name, RowBytes: rowBytes, Subpages: subpages, Placement: placement,
		})
	}
	// Subpage sizes follow §2.3: "we had to tune the size of subpage for
	// each table separately. In particular, the district table is accessed
	// very frequently and needs a small subpage size." Our tuning landed on
	// row-level subpages for every written table — coarser settings
	// serialize the append-heavy tables (every insert in a warehouse lands
	// in the same tail block) and collapse throughput, exactly the kind of
	// false sharing the paper tuned away.
	rowLevel := func(rowBytes int) int {
		if cfg.CoarseSubpages {
			return 8
		}
		return db.BlockBytes / rowBytes
	}
	e.Tables[TWarehouse] = spec("warehouse", 96, rowLevel(96), db.PlacementPartitioned)
	e.Tables[TDistrict] = spec("district", 96, rowLevel(96), db.PlacementPartitioned)
	e.Tables[TCustomer] = spec("customer", 656, rowLevel(656), db.PlacementPartitioned)
	e.Tables[THistory] = spec("history", 48, rowLevel(48), db.PlacementPartitioned)
	e.Tables[TItem] = spec("item", 88, 1, db.PlacementHashed)
	e.Tables[TStock] = spec("stock", 312, rowLevel(312), db.PlacementPartitioned)
	e.Tables[TOrder] = spec("order", 32, rowLevel(32), db.PlacementPartitioned)
	e.Tables[TNewOrder] = spec("new-order", 16, rowLevel(16), db.PlacementPartitioned)
	e.Tables[TOrderLine] = spec("order-line", 56, rowLevel(56), db.PlacementPartitioned)

	e.whOwner = make([]int, cfg.Warehouses)
	perNode := cfg.Warehouses / nodes
	if perNode == 0 {
		perNode = 1
	}
	for w := 0; w < cfg.Warehouses; w++ {
		owner := w / perNode
		if owner >= nodes {
			owner = nodes - 1
		}
		e.whOwner[w] = owner
	}

	e.distNextO = make([]int32, cfg.Warehouses*Districts)
	e.stockQty = make([]int32, cfg.Warehouses*cfg.Items)
	e.lastOrder = make([]int32, cfg.Warehouses*Districts*cfg.CustomersPerDist)
	e.histSeq = make([]uint64, nodes)

	r := rng.Derive(seed, "tpcc-build")

	// Item table (shared, hashed across nodes).
	for i := 0; i < cfg.Items; i++ {
		e.Tables[TItem].Insert(int64(i), 0)
	}

	// Per-warehouse partitions, inserted warehouse-by-warehouse so blocks
	// home cleanly.
	for w := 0; w < cfg.Warehouses; w++ {
		owner := e.whOwner[w]
		e.Tables[TWarehouse].Insert(int64(w), owner)
		for d := 0; d < Districts; d++ {
			dist := w*Districts + d
			e.Tables[TDistrict].Insert(int64(dist), owner)
			for c := 0; c < cfg.CustomersPerDist; c++ {
				e.Tables[TCustomer].Insert(e.CustKey(w, d, c), owner)
			}
		}
		for i := 0; i < cfg.Items; i++ {
			e.Tables[TStock].Insert(e.StockKey(w, i), owner)
			e.stockQty[w*cfg.Items+i] = int32(r.IntRange(10, 100))
		}
		// Initial order history: spec gives each district 3000 orders with
		// the last 900 undelivered; scale that shape to the customer count.
		for d := 0; d < Districts; d++ {
			dist := w*Districts + d
			initOrders := cfg.CustomersPerDist // one per customer, shuffled
			perm := r.Perm(cfg.CustomersPerDist)
			for o := 0; o < initOrders; o++ {
				e.insertInitialOrder(w, d, o+1, perm[o], o >= initOrders*7/10, r)
			}
			e.distNextO[dist] = int32(initOrders + 1)
		}
	}
	return e
}

// insertInitialOrder seeds one order during the build (no locking).
func (e *Engine) insertInitialOrder(w, d, oid, cust int, undelivered bool, r *rng.Stream) {
	owner := e.whOwner[w]
	okey := e.OrderKey(w, d, oid)
	row := e.Tables[TOrder].Insert(okey, owner)
	cnt := r.IntRange(5, MaxOrderLines)
	e.setOrder(row, int32(cust), int8(cnt), boolToCarrier(!undelivered, r))
	e.lastOrder[e.custIdx(w, d, cust)] = int32(oid)
	for l := 0; l < cnt; l++ {
		lrow := e.Tables[TOrderLine].Insert(e.OLKey(w, d, oid, l), owner)
		e.setOrderLine(lrow, int32(r.Intn(e.Cfg.Items)), !undelivered)
	}
	if undelivered {
		e.Tables[TNewOrder].Insert(okey, owner)
	}
}

func boolToCarrier(delivered bool, r *rng.Stream) int8 {
	if delivered {
		return int8(r.IntRange(1, 10))
	}
	return 0
}

// setOrder fills the order attribute arrays at row.
func (e *Engine) setOrder(row int64, cust int32, cnt, carrier int8) {
	e.orderCust.set(row, cust)
	e.orderOLCnt.set(row, cnt)
	e.orderCarrier.set(row, carrier)
}

// setOrderLine fills the order-line attribute arrays at row.
func (e *Engine) setOrderLine(row int64, item int32, delivered bool) {
	e.olItem.set(row, item)
	e.olDelivered.set(row, delivered)
}

// pageLen is the length of one page of a paged array.
const pageLen = 1 << 12

// paged is an array of rows stored in pages of pageLen elements. It grows
// a page at a time and never copies: a row, once written, stays where it
// is, and the unused tail is less than one page.
type paged[T any] struct {
	pages []*[pageLen]T
	n     int64 // rows 0..n-1 exist
}

// set stores v at row i, adding zeroed pages up to it.
func (a *paged[T]) set(i int64, v T) {
	if i >= a.n {
		for int64(len(a.pages))*pageLen <= i {
			a.pages = append(a.pages, new([pageLen]T))
		}
		a.n = i + 1
	}
	a.pages[i/pageLen][i%pageLen] = v
}

// at returns row i's element for reading or writing in place. It never
// grows the array; past the last row set it panics, as a slice index does.
func (a *paged[T]) at(i int64) *T {
	if uint64(i) >= uint64(a.n) {
		panic(fmt.Sprintf("tpcc: row %d out of range [0:%d]", i, a.n))
	}
	return &a.pages[i/pageLen][i%pageLen]
}

// get returns row i's value; see at.
func (a *paged[T]) get(i int64) T { return *a.at(i) }

// WarehouseOwner returns the node homing warehouse w.
func (e *Engine) WarehouseOwner(w int) int { return e.whOwner[w] }

// Warehouses returns the configured warehouse count.
func (e *Engine) Warehouses() int { return e.Cfg.Warehouses }

// ---- Key encodings ----

// DistKey returns the district primary key.
func (e *Engine) DistKey(w, d int) int64 { return int64(w*Districts + d) }

// CustKey returns the customer primary key.
func (e *Engine) CustKey(w, d, c int) int64 {
	return int64((w*Districts+d)*e.Cfg.CustomersPerDist + c)
}

func (e *Engine) custIdx(w, d, c int) int {
	return (w*Districts+d)*e.Cfg.CustomersPerDist + c
}

// StockKey returns the stock primary key.
func (e *Engine) StockKey(w, item int) int64 { return int64(w*e.Cfg.Items + item) }

// OrderKey returns the order / new-order primary key: district-major then
// order id, so district scans are contiguous.
func (e *Engine) OrderKey(w, d, oid int) int64 {
	return int64(w*Districts+d)<<24 | int64(oid)
}

// OLKey returns the order-line primary key.
func (e *Engine) OLKey(w, d, oid, line int) int64 {
	return e.OrderKey(w, d, oid)*MaxOrderLines + int64(line)
}

// HistKey returns a unique history key for an insert at node.
func (e *Engine) HistKey(node int) int64 {
	e.histSeq[node]++
	return int64(node)<<40 | int64(e.histSeq[node])
}

// MeanTxnDelay is the per-type terminal keying+think time (unscaled spec
// shape); see core's terminal loop.
func MeanTxnDelay(t TxnType) sim.Time {
	switch t {
	case TxnNewOrder:
		return 30 * sim.Second
	case TxnPayment:
		return 15 * sim.Second
	case TxnOrderStatus:
		return 12 * sim.Second
	case TxnDelivery:
		return 7 * sim.Second
	default:
		return 7 * sim.Second
	}
}
