package experiments

import (
	"fmt"

	"dclue/internal/core"
	"dclue/internal/stats"
	"dclue/internal/telemetry"
)

// Telemetry experiments: the per-class fabric-utilization decomposition the
// unified telemetry registry exists for. The paper's central argument (§1,
// §3) is that IPC, iSCSI storage traffic and client traffic all share one
// Ethernet fabric and interfere; this extension tabulates exactly how the
// shared server links divide between those classes as the cluster grows,
// from the same runs the throughput numbers come from.
func TelemetryFigures() []Figure {
	return []Figure{
		{"util-decomp", "Per-class server-link utilization decomposition vs nodes", UtilDecomposition},
	}
}

// LookupTelemetry finds a telemetry experiment by id.
func LookupTelemetry(id string) (Figure, bool) {
	for _, f := range TelemetryFigures() {
		if f.ID == id || "util-"+id == f.ID {
			return f, true
		}
	}
	return Figure{}, false
}

// UtilDecomposition runs fixed-load clusters across sizes with the telemetry
// registry attached and tabulates how the server links' busy time divides
// between traffic classes (exact attribution: the class busy times of every
// link sum to the link's own busy counter — mismatches are reported in the
// notes and pinned to zero by test). DB size grows with the cluster per the
// benchmark's sizing rule, so buffer misses — and with them the iSCSI share
// of the shared fabric — grow with node count: the paper's saturation story
// as a table.
func UtilDecomposition(o Options) Result {
	sizes := []int{2, 4, 8}
	if o.Quick {
		sizes = []int{2, 4}
	}
	if o.tinyRuns {
		sizes = []int{2}
	}

	col := o.Telemetry
	if col == nil {
		col = telemetry.NewCollector(0)
	}

	ms := make([]core.Metrics, len(sizes))
	o.forEach(len(sizes), func(i int) {
		n := sizes[i]
		q := o.baseParams(n)
		q.Affinity = 0.8
		q.Telemetry = col
		q.Label = fmt.Sprintf("util-n%d", n)
		o.logf("util-decomp: n%d", n)
		ms[i] = o.fixedLoad(q, 6*n)
	})

	util := &stats.Series{Name: "link util %"}
	ipc := &stats.Series{Name: "ipc %"}
	iscsi := &stats.Series{Name: "iscsi %"}
	client := &stats.Series{Name: "client %"}
	hb := &stats.Series{Name: "hb %"}
	other := &stats.Series{Name: "other %"}
	mismatch := 0
	for i, n := range sizes {
		u := ms[i].UtilDecomp
		x := float64(n)
		total := u.NodeLinksBusySec
		share := func(v float64) float64 {
			if total <= 0 {
				return 0
			}
			return 100 * v / total
		}
		// 2n server links (one up, one down per node), each busy for a
		// fraction of the whole run.
		util.Add(x, 100*total/(float64(2*n)*u.ElapsedSec))
		ipc.Add(x, share(u.NodeLinks.IPC))
		iscsi.Add(x, share(u.NodeLinks.ISCSI))
		client.Add(x, share(u.NodeLinks.Client))
		hb.Add(x, share(u.NodeLinks.Heartbeat))
		other.Add(x, share(u.NodeLinks.FTP+u.NodeLinks.Other))
		mismatch += u.AttribMismatch
	}
	notes := fmt.Sprintf("Telemetry extension: class shares of server-link busy time (affinity 0.8, 6 wh/node). attribution mismatches=%d", mismatch)
	return Result{
		ID: "util-decomp", Title: "Server-link utilization by traffic class",
		XLabel: "nodes",
		Series: []*stats.Series{util, ipc, iscsi, client, hb, other},
		Notes:  notes,
	}
}
