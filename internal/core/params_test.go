package core

import (
	"testing"

	"dclue/internal/sim"
)

func TestLataLayout(t *testing.T) {
	cases := []struct {
		nodes, per int
		want       []int
	}{
		{4, 12, []int{4}},
		{12, 12, []int{12}},
		{16, 12, []int{12, 4}},
		{24, 12, []int{12, 12}},
		{25, 12, []int{12, 12, 1}},
		{8, 4, []int{4, 4}},
	}
	for _, c := range cases {
		p := DefaultParams(c.nodes)
		p.NodesPerLata = c.per
		got := p.LataLayout()
		if len(got) != len(c.want) {
			t.Fatalf("LataLayout(%d,%d) = %v, want %v", c.nodes, c.per, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("LataLayout(%d,%d) = %v, want %v", c.nodes, c.per, got, c.want)
			}
		}
	}
}

func TestWarehouseCountRules(t *testing.T) {
	p := DefaultParams(4)
	if p.WarehouseCount() != 160 {
		t.Fatalf("linear warehouses %d, want 160", p.WarehouseCount())
	}
	p.Warehouses = 99
	if p.WarehouseCount() != 99 {
		t.Fatal("explicit warehouse count not honored")
	}
}

func TestSqrtGrowthWarehouses(t *testing.T) {
	if SqrtGrowthWarehouses(50) != 50 {
		t.Fatal("below knee must be identity")
	}
	if got := SqrtGrowthWarehouses(72); got != 72 {
		t.Fatalf("at knee: %d", got)
	}
	big := SqrtGrowthWarehouses(960)
	if big >= 960 || big <= 72 {
		t.Fatalf("far past knee: %d", big)
	}
	// Monotone.
	prev := 0
	for _, lin := range []int{72, 100, 200, 400, 960} {
		g := SqrtGrowthWarehouses(lin)
		if g < prev {
			t.Fatalf("sqrt growth not monotone at %d", lin)
		}
		prev = g
	}
}

func TestCostModelsDiffer(t *testing.T) {
	p := DefaultParams(2)
	hw := p.tcpCosts()
	p.SWTCP = true
	sw := p.tcpCosts()
	if sw.RecvPerByte <= hw.RecvPerByte || sw.SendPerSegment <= hw.SendPerSegment {
		t.Fatal("software TCP not more expensive than offloaded")
	}
	if sw.RecvPerByte <= sw.SendPerByte {
		t.Fatal("receive path must cost more than send (2 copies vs 1)")
	}
	p.SWiSCSI = true
	if p.iscsiCosts().CRCPerByte == 0 {
		t.Fatal("software iSCSI must pay CRC per byte")
	}
}

func TestLowComputationScalesCosts(t *testing.T) {
	p := DefaultParams(2)
	normal := p.opCosts()
	p.LowComputation = true
	low := p.opCosts()
	if low.RowRead*4 != normal.RowRead || low.TxnBegin*4 != normal.TxnBegin {
		t.Fatal("low computation is not a 4x path-length reduction")
	}
	// Non-computational costs (protocol handling) stay put.
	if low.CtlMsgHandle != normal.CtlMsgHandle {
		t.Fatal("message handling should not scale with computation weight")
	}
}

func TestFeasibleCriteria(t *testing.T) {
	m := Metrics{TpmC: 12.5 * 10, RespTimeMs: 100}
	if !feasible(m, 10) {
		t.Fatal("exact offered load with fast responses must be feasible")
	}
	m.TpmC = 12.5 * 10 * 0.5
	if feasible(m, 10) {
		t.Fatal("half the offered load must be infeasible")
	}
	m.TpmC = 12.5 * 10
	m.RespTimeMs = feasibleRespMsScaled * 2
	if feasible(m, 10) {
		t.Fatal("slow responses must be infeasible")
	}
}

func TestDefaultParamsScaledConsistently(t *testing.T) {
	p := DefaultParams(4)
	if p.Scale != 100 {
		t.Fatalf("default scale %v", p.Scale)
	}
	// 1 Gb/s scaled 100x -> 10 Mb/s.
	if p.NodeLinkBps != 1e7 {
		t.Fatalf("node link %v", p.NodeLinkBps)
	}
	// 10000 pkt/s in the scaled model.
	if p.RouterFwdRate != 10000 {
		t.Fatalf("router rate %v", p.RouterFwdRate)
	}
	if p.Warmup <= 0 || p.Measure <= 0 {
		t.Fatal("run windows must be positive")
	}
}

func TestMetricsString(t *testing.T) {
	m := Metrics{Nodes: 4, Affinity: 0.8, TpmC: 123.4}
	s := m.String()
	for _, want := range []string{"nodes=4", "tpmC", "123.4"} {
		if !contains(s, want) {
			t.Fatalf("Metrics.String missing %q:\n%s", want, s)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestExtraLatencyKnobReachesTopology(t *testing.T) {
	p := quickParams(2)
	p.NodesPerLata = 1
	p.ExtraLatency = 3 * sim.Millisecond
	c := mustNew(t, p)
	defer c.Sim.Shutdown()
	if c.Topo.Config.ExtraInterLataLatency != 3*sim.Millisecond {
		t.Fatal("extra latency not plumbed to topology")
	}
}
