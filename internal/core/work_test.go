package core

import (
	"fmt"
	"runtime"
	"testing"

	"dclue/internal/sim"
)

// TestWorkPinned pins the deterministic work of four single runs at seed 1:
// the events the kernel fired, its coroutine hand-offs, the metrics
// fingerprint, the packets the routers forwarded, the TCP segments sent and
// the GCS control and data messages sent over the measurement window, and
// for oltp-ipc a ceiling on the run's heap allocations. The configurations
// are perfbench's three single-run workloads and flt-failover's quick
// crash-and-restart run, the one that kills processes mid-wait. A change
// that keeps every fingerprint but adds or drops work fails here; one that
// changes the work on purpose re-pins the table and says why in CHANGES.md.
func TestWorkPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("four full-size single runs")
	}
	cases := []struct {
		name     string
		params   func() Params
		events   uint64
		switches uint64
		fp       string
		// packets forwarded / segments sent / GCS ctl msgs / GCS data msgs
		traffic [4]uint64
		// maxMallocs, when set, bounds the heap allocations of the run
		// after New. oltp-ipc makes about 606,000 as a process's first run
		// (607,000 under -race) and 596,000 later; GCS messages boxed in
		// an envelope each would take it to 730,000.
		maxMallocs uint64
	}{
		{"oltp-local", func() Params {
			p := DefaultParams(4)
			p.Affinity, p.Warehouses = 1.0, 32
			p.Warmup, p.Measure = 50*sim.Second, 150*sim.Second
			return p
		}, 785859, 176408, "3a66852906e7577a", [4]uint64{53658, 32469, 1398, 405}, 0},
		{"oltp-ipc", func() Params {
			p := DefaultParams(8)
			p.Affinity, p.Warehouses = 0.5, 32
			p.Warmup, p.Measure = 50*sim.Second, 150*sim.Second
			return p
		}, 5548940, 441014, "c2013e1cf892d711", [4]uint64{491130, 473818, 72992, 12606}, 640000},
		{"xtraffic-prio", func() Params {
			p := DefaultParams(4)
			p.NodesPerLata = 2
			p.Affinity, p.Warehouses = 0.8, 32
			p.CrossTrafficBps, p.CrossTrafficPriority = 600e6, true
			p.Warmup, p.Measure = 50*sim.Second, 150*sim.Second
			return p
		}, 7091509, 407701, "eb22e47fcf5b2e1a", [4]uint64{1461514, 532618, 26754, 6063}, 0},
		{"crash", func() Params {
			p := DefaultParams(4)
			p.NodesPerLata = 2
			p.Affinity, p.Warehouses = 0.8, 24
			p.Warmup, p.Measure = 40*sim.Second, 100*sim.Second
			p.TimelineBucket = 5 * sim.Second
			p.FaultSpec = "crash:dp1@65+0;restart:dp1@95+0"
			return p
		}, 1924745, 116490, "fa8bb82999f80c41", [4]uint64{281137, 124931, 11201, 1905}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.params()
			p.Seed = 1
			c := mustNew(t, p)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			m := runOK(t, c)
			runtime.ReadMemStats(&after)
			mallocs := after.Mallocs - before.Mallocs
			if tc.maxMallocs > 0 && mallocs > tc.maxMallocs {
				t.Errorf("run made %d heap allocations, want at most %d", mallocs, tc.maxMallocs)
			}
			got := fmt.Sprintf("%d / %d / %016x", c.Sim.EventCount(), c.Sim.Switches(), m.Fingerprint())
			want := fmt.Sprintf("%d / %d / %s", tc.events, tc.switches, tc.fp)
			if got != want {
				t.Errorf("events / switches / fingerprint = %s, want %s", got, want)
			}
			if traffic := trafficOf(c); traffic != tc.traffic {
				t.Errorf("packets forwarded / segments sent / GCS ctl / GCS data = %v, want %v", traffic, tc.traffic)
			}
		})
	}
}

// trafficOf sums the routers' forwarded packets, the TCP segments sent and
// the GCS control and data messages the nodes sent since warmup.
func trafficOf(c *Cluster) [4]uint64 {
	fwd := c.Topo.Outer.Forwarded
	for _, r := range c.Topo.Inner {
		fwd += r.Forwarded
	}
	var ctl, data uint64
	for _, n := range c.nodes {
		ctl += n.dbn.GCS.Stats.CtlMsgsSent
		data += n.dbn.GCS.Stats.DataMsgsSent
	}
	return [4]uint64{fwd, c.Dom.SegsSent, ctl, data}
}
