package tpcc

import (
	"math"
	"testing"

	"dclue/internal/db"
	"dclue/internal/disk"
	"dclue/internal/rng"
	"dclue/internal/sim"
)

type instantHost struct{}

func (instantHost) Execute(p *sim.Proc, pathLen float64)  {}
func (instantHost) Dispatch(p *sim.Proc, pathLen float64) {}
func (instantHost) Process(pathLen float64, done func())  { done() }

type loopTransport struct {
	s     *sim.Sim
	self  int
	peers []*db.GCS
}

func (t *loopTransport) Send(to int, m db.Msg, size int) {
	from := t.self
	t.s.After(20*sim.Microsecond, func() { t.peers[to].HandleMessage(from, m) })
}

type harness struct {
	s     *sim.Sim
	cat   *db.Catalog
	eng   *Engine
	nodes []*db.Node
}

func build(t *testing.T, nNodes int, cfg Config) *harness {
	t.Helper()
	s := sim.New()
	cat := db.NewCatalog(nNodes)
	eng := New(cat, cfg, 42)
	h := &harness{s: s, cat: cat, eng: eng}
	gcss := make([]*db.GCS, nNodes)
	for i := 0; i < nNodes; i++ {
		drv := disk.NewDrive(s, disk.DefaultParams(1), rng.Derive(uint64(i), "drv"))
		logd := disk.DefaultLogDisk(s, 1)
		i := i
		mk := func(costs *db.OpCosts, cache *db.BufferCache) *db.Pager {
			return db.NewPager(s, i, cat, instantHost{}, []*disk.Drive{drv}, nil, costs)
		}
		n := db.NewNode(s, i, cat, instantHost{},
			db.NodeConfig{BufferFrames: 4096, OverflowBytes: 1 << 22},
			mk, db.DefaultOpCosts(), logd)
		h.nodes = append(h.nodes, n)
		gcss[i] = n.GCS
	}
	for i, n := range h.nodes {
		n.GCS.SetTransport(&loopTransport{s: s, self: i, peers: gcss})
	}
	return h
}

func smallCfg() Config {
	return Config{Warehouses: 2, Items: 50, CustomersPerDist: 30}
}

// run executes one transaction to completion on node 0 (home of w=0).
func (h *harness) run(t *testing.T, req Request, seed uint64) error {
	t.Helper()
	r := rng.Derive(seed, "txn")
	var err error
	h.s.Spawn("txn", func(p *sim.Proc) {
		err = h.eng.Execute(p, h.nodes[0], req, r)
	})
	h.s.Run(60 * sim.Second)
	return err
}

func TestBuildSizes(t *testing.T) {
	h := build(t, 1, smallCfg())
	e := h.eng
	if e.Tables[TWarehouse].Rows() != 2 {
		t.Fatalf("warehouses %d", e.Tables[TWarehouse].Rows())
	}
	if e.Tables[TDistrict].Rows() != 20 {
		t.Fatalf("districts %d", e.Tables[TDistrict].Rows())
	}
	if e.Tables[TCustomer].Rows() != 2*10*30 {
		t.Fatalf("customers %d", e.Tables[TCustomer].Rows())
	}
	if e.Tables[TStock].Rows() != 2*50 {
		t.Fatalf("stock %d", e.Tables[TStock].Rows())
	}
	if e.Tables[TItem].Rows() != 50 {
		t.Fatalf("items %d", e.Tables[TItem].Rows())
	}
	// One initial order per customer.
	if e.Tables[TOrder].Rows() != 2*10*30 {
		t.Fatalf("orders %d", e.Tables[TOrder].Rows())
	}
	// ~30% undelivered.
	no := e.Tables[TNewOrder].Rows()
	if no < 150 || no > 210 {
		t.Fatalf("new-orders %d, want ~180", no)
	}
	h.s.Shutdown()
}

func TestBuildPartitioning(t *testing.T) {
	cfg := smallCfg()
	h := build(t, 2, cfg)
	e := h.eng
	if e.WarehouseOwner(0) != 0 || e.WarehouseOwner(1) != 1 {
		t.Fatalf("owners %d %d", e.WarehouseOwner(0), e.WarehouseOwner(1))
	}
	// Every stock block of warehouse 1 must be homed on node 1.
	for i := 0; i < cfg.Items; i++ {
		row, ok := e.Tables[TStock].Lookup(e.StockKey(1, i))
		if !ok {
			t.Fatal("missing stock row")
		}
		if h.cat.Home(e.Tables[TStock].BlockOf(row)) != 1 {
			t.Fatalf("stock block of w1 homed on %d", h.cat.Home(e.Tables[TStock].BlockOf(row)))
		}
	}
	h.s.Shutdown()
}

func TestNewOrderCommit(t *testing.T) {
	h := build(t, 1, smallCfg())
	e := h.eng
	ordersBefore := e.Tables[TOrder].Rows()
	linesBefore := e.Tables[TOrderLine].Rows()
	nextBefore := e.distNextO[0]
	// Seed 77 avoids the 1% rollback path (verified by outcome).
	if err := h.run(t, Request{Type: TxnNewOrder, Warehouse: 0, District: 0}, 77); err != nil {
		t.Fatalf("new-order: %v", err)
	}
	if e.distNextO[0] != nextBefore+1 {
		t.Fatal("district next o_id not advanced")
	}
	if e.Tables[TOrder].Rows() != ordersBefore+1 {
		t.Fatal("order not inserted")
	}
	added := e.Tables[TOrderLine].Rows() - linesBefore
	if added < 5 || added > MaxOrderLines {
		t.Fatalf("order lines added %d", added)
	}
	if h.nodes[0].Stats.Commits != 1 {
		t.Fatalf("commits %d", h.nodes[0].Stats.Commits)
	}
	h.s.Shutdown()
}

func TestNewOrderRollbackRate(t *testing.T) {
	h := build(t, 1, Config{Warehouses: 1, Items: 100, CustomersPerDist: 30})
	r := rng.New(9)
	rollbacks, commits := 0, 0
	h.s.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < 400; i++ {
			err := h.eng.Execute(p, h.nodes[0], Request{Type: TxnNewOrder, Warehouse: 0, District: i % 10}, r)
			switch err {
			case nil:
				commits++
			case ErrRollback:
				rollbacks++
			default:
				t.Errorf("unexpected error: %v", err)
				return
			}
		}
	})
	h.s.Run(3600 * sim.Second)
	h.s.Shutdown()
	if commits+rollbacks != 400 {
		t.Fatalf("completed %d", commits+rollbacks)
	}
	if rollbacks == 0 || rollbacks > 30 {
		t.Fatalf("rollbacks %d of 400, want ~1%%", rollbacks)
	}
}

func TestPaymentInsertsHistory(t *testing.T) {
	h := build(t, 1, smallCfg())
	before := h.eng.Tables[THistory].Rows()
	if err := h.run(t, Request{Type: TxnPayment, Warehouse: 0, District: 3}, 5); err != nil {
		t.Fatalf("payment: %v", err)
	}
	if h.eng.Tables[THistory].Rows() != before+1 {
		t.Fatal("history not appended")
	}
	h.s.Shutdown()
}

func TestOrderStatusReadsOnly(t *testing.T) {
	h := build(t, 1, smallCfg())
	e := h.eng
	writesBefore := h.nodes[0].Stats.RowsWritten
	if err := h.run(t, Request{Type: TxnOrderStatus, Warehouse: 0, District: 1}, 6); err != nil {
		t.Fatalf("order-status: %v", err)
	}
	if h.nodes[0].Stats.RowsWritten != writesBefore {
		t.Fatal("order-status wrote rows")
	}
	if e.Tables[TOrder].Rows() != 2*10*30 {
		t.Fatal("order count changed")
	}
	h.s.Shutdown()
}

func TestDeliveryDrainsNewOrders(t *testing.T) {
	h := build(t, 1, smallCfg())
	e := h.eng
	before := e.Tables[TNewOrder].Rows()
	if err := h.run(t, Request{Type: TxnDelivery, Warehouse: 0, District: 0}, 7); err != nil {
		t.Fatalf("delivery: %v", err)
	}
	drained := before - e.Tables[TNewOrder].Rows()
	if drained < 1 || drained > Districts {
		t.Fatalf("drained %d new-orders", drained)
	}
	h.s.Shutdown()
}

func TestStockLevelRuns(t *testing.T) {
	h := build(t, 1, smallCfg())
	if err := h.run(t, Request{Type: TxnStockLevel, Warehouse: 0, District: 2}, 8); err != nil {
		t.Fatalf("stock-level: %v", err)
	}
	if h.nodes[0].Stats.RowsRead == 0 {
		t.Fatal("stock-level read nothing")
	}
	h.s.Shutdown()
}

func TestMixProportions(t *testing.T) {
	r := rng.New(11)
	var counts [NumTxnTypes]int
	const n = 100000
	for i := 0; i < n; i++ {
		counts[PickTxnType(r)]++
	}
	want := [NumTxnTypes]float64{0.43, 0.43, 0.05, 0.05, 0.04}
	for ty, c := range counts {
		frac := float64(c) / n
		if math.Abs(frac-want[ty]) > 0.01 {
			t.Errorf("%v fraction %v, want %v", TxnType(ty), frac, want[ty])
		}
	}
}

func TestNURandBounds(t *testing.T) {
	r := rng.New(12)
	for i := 0; i < 10000; i++ {
		v := nuRand(r, 1023, 0, 299)
		if v < 0 || v > 299 {
			t.Fatalf("NURand out of bounds: %d", v)
		}
	}
	// NURand is non-uniform: the most popular decile should be clearly
	// above 10%.
	var buckets [10]int
	for i := 0; i < 100000; i++ {
		buckets[nuRand(r, 1023, 0, 999)/100]++
	}
	max := 0
	for _, b := range buckets {
		if b > max {
			max = b
		}
	}
	if max < 11000 {
		t.Fatalf("NURand looks uniform: max decile %d", max)
	}
}

func TestMeanTxnDelayPositive(t *testing.T) {
	for ty := TxnType(0); ty < NumTxnTypes; ty++ {
		if MeanTxnDelay(ty) <= 0 {
			t.Fatalf("delay for %v not positive", ty)
		}
	}
}

func TestKeyEncodingsDisjoint(t *testing.T) {
	e := &Engine{Cfg: Config{Warehouses: 4, Items: 100, CustomersPerDist: 30}}
	seen := map[int64]bool{}
	for w := 0; w < 4; w++ {
		for d := 0; d < Districts; d++ {
			for o := 1; o < 50; o++ {
				k := e.OrderKey(w, d, o)
				if seen[k] {
					t.Fatalf("duplicate order key %d", k)
				}
				seen[k] = true
			}
		}
	}
	// Order-line keys of consecutive orders must not collide.
	a := e.OLKey(0, 0, 1, MaxOrderLines-1)
	b := e.OLKey(0, 0, 2, 0)
	if a >= b {
		t.Fatalf("order-line keys overlap: %d >= %d", a, b)
	}
}
