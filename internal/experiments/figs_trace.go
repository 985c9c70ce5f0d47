package experiments

import (
	"fmt"
	"math"

	"dclue/internal/core"
	"dclue/internal/stats"
	"dclue/internal/trace"
)

// Trace experiments: the latency-decomposition table the span observability
// layer exists for. The paper reports only mean response times (§3); this
// extension splits them into where the time actually goes — CPU, lock waits,
// cache-fusion messaging, storage, fabric — across cluster sizes and the
// Fig 11 offload modes, from the same runs the throughput numbers come from.

// LatencyDecomposition traces every transaction of fixed-load runs across
// cluster sizes and offload modes and tabulates the per-phase mean self
// times. The phase columns of each case sum to the resp column exactly (the
// span accounting identity); resp itself matches the untraced mean response
// time because stride-1 sampling covers the same population the response
// tally does.
func LatencyDecomposition(o Options) Result {
	type tcase struct {
		nodes int
		sw    bool // software TCP + iSCSI (Fig 11's both-offloads-off point)
	}
	sizes := []int{2, 4, 8}
	if o.Quick {
		sizes = []int{2, 4}
	}
	if o.tinyRuns {
		sizes = []int{2}
	}
	var cases []tcase
	for _, n := range sizes {
		cases = append(cases, tcase{n, false}, tcase{n, true})
	}

	col := o.Trace
	if col == nil {
		col = trace.NewCollector(1)
	}

	ms := make([]core.Metrics, len(cases))
	names := make([]string, len(cases))
	o.forEach(len(cases), func(i int) {
		cse := cases[i]
		q := o.baseParams(cse.nodes)
		q.Affinity = 0.8
		q.SWTCP, q.SWiSCSI = cse.sw, cse.sw
		off := "hw"
		if cse.sw {
			off = "sw"
		}
		names[i] = fmt.Sprintf("n%d-%s", cse.nodes, off)
		q.Trace = col
		q.Label = names[i]
		o.logf("lat-decomp: %s", names[i])
		ms[i] = o.fixedLoad(q, 6*cse.nodes)
	})

	resp := &stats.Series{Name: "resp ms"}
	cpu := &stats.Series{Name: "cpu ms"}
	lock := &stats.Series{Name: "lock ms"}
	gcs := &stats.Series{Name: "gcs ms"}
	disk := &stats.Series{Name: "disk ms"}
	fabric := &stats.Series{Name: "fabric ms"}
	notes := "Span-tracing extension (stride-1 sampling). Cases: "
	maxDev := 0.0
	for i := range cases {
		b := ms[i].Breakdown
		x := float64(i)
		resp.Add(x, b.TotalMs)
		cpu.Add(x, b.CPUMs)
		lock.Add(x, b.LockMs)
		gcs.Add(x, b.GCSMs)
		disk.Add(x, b.DiskMs)
		fabric.Add(x, b.FabricMs+b.OtherMs)
		notes += fmt.Sprintf("%d=%s ", i, names[i])
		if ms[i].RespTimeMs > 0 {
			dev := math.Abs(b.Sum()-ms[i].RespTimeMs) / ms[i].RespTimeMs
			if dev > maxDev {
				maxDev = dev
			}
		}
	}
	notes += fmt.Sprintf("| max |phase-sum - resp|/resp = %.4f", maxDev)
	return Result{
		ID: "lat-decomp", Title: "Latency decomposition by phase (affinity 0.8, 6 wh/node)",
		XLabel: "case",
		Series: []*stats.Series{resp, cpu, lock, gcs, disk, fabric},
		Notes:  notes,
	}
}
