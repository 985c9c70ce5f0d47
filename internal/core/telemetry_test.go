package core

import (
	"math"
	"strings"
	"testing"

	"dclue/internal/telemetry"
)

// TestTelemetryAttributionExact checks the attribution identity the
// decomposition advertises: summed per class, a link's telemetry busy time
// equals the link's own busy counter (integer sim.Time equality, surfaced as
// AttribMismatch), and the reported class-group sums agree with the group
// totals to float rounding.
func TestTelemetryAttributionExact(t *testing.T) {
	p := quickParams(2)
	p.Telemetry = telemetry.NewCollector(0)
	m := mustRun(t, p)

	u := m.UtilDecomp
	if u.AttribMismatch != 0 {
		t.Fatalf("%d links with per-class busy times not summing to the link counter", u.AttribMismatch)
	}
	check := func(name string, cu ClassUtil, total float64) {
		if diff := math.Abs(cu.Sum() - total); diff > 1e-9*(total+1) {
			t.Errorf("%s: class sum %.9fs vs group total %.9fs", name, cu.Sum(), total)
		}
	}
	check("node links", u.NodeLinks, u.NodeLinksBusySec)
	check("inter-LATA", u.InterLata, u.InterLataBusySec)
	check("client link", u.ClientLink, u.ClientBusySec)

	// A healthy warm run exercises every instrumented component (heartbeats
	// only flow in crash/restart runs — see TestTelemetrySurvivesRestart).
	if u.NodeLinks.IPC <= 0 || u.NodeLinks.ISCSI <= 0 || u.NodeLinks.Client <= 0 {
		t.Fatalf("degenerate class decomposition: %+v", u.NodeLinks)
	}
	if u.CPUThreadSec <= 0 || u.DiskBusySec <= 0 || u.LogDiskBusySec <= 0 {
		t.Fatalf("idle platform instruments: cpu=%v disk=%v log=%v", u.CPUThreadSec, u.DiskBusySec, u.LogDiskBusySec)
	}
	if u.GCSCtlMsgs == 0 || u.GCSDataMsgs == 0 {
		t.Fatalf("GCS instruments saw no messages: %+v", u)
	}
}

// TestTelemetrySurvivesRestart: instruments stay attached across a node
// crash and rejoin — the fresh engine re-attaches the same cumulative CPU
// and GCS instruments, and the recovery pipeline records its phase timeline
// into the registry (visible through the JSONL export).
func TestTelemetrySurvivesRestart(t *testing.T) {
	p := quickParams(2)
	p.FaultSpec = "crash:dp1@70+0;restart:dp1@100+0"
	col := telemetry.NewCollector(0)
	p.Telemetry = col
	m := mustRun(t, p)
	if m.UtilDecomp.AttribMismatch != 0 {
		t.Fatalf("attribution broke across restart: %d mismatches", m.UtilDecomp.AttribMismatch)
	}
	if m.UtilDecomp.NodeLinks.Heartbeat <= 0 {
		t.Fatalf("membership run recorded no heartbeat traffic: %+v", m.UtilDecomp.NodeLinks)
	}

	var out strings.Builder
	if err := col.WriteJSONL(&out); err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{"fence", "remaster", "replay", "open", "readmit"} {
		if !strings.Contains(out.String(), `"phase":"`+phase+`"`) {
			t.Errorf("no %q recovery phase in the export", phase)
		}
	}
	if !strings.Contains(out.String(), `"component":"recover-1"`) {
		t.Error("recovery phases not attributed to the dead node")
	}
}
