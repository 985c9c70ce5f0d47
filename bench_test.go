package dclue_test

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (§3). One benchmark per figure: each iteration runs the
// figure's full parameter sweep in quick mode and reports the headline
// series values as custom metrics, so
//
//	go test -bench=Fig -benchmem
//
// prints the reproduced results. The full-size sweeps (paper-scale node
// counts and run lengths) are available via `go run ./cmd/dclueexp -run fig`.

import (
	"fmt"
	"testing"

	"dclue"
)

// runFigure executes one experiment per benchmark iteration and attaches
// its final series points as benchmark metrics.
func runFigure(b *testing.B, id string) {
	b.Helper()
	var last dclue.ExperimentResult
	for i := 0; i < b.N; i++ {
		r, ok := dclue.RunFigure(id, dclue.ExperimentOptions{Seed: 1, Quick: true})
		if !ok {
			b.Fatalf("unknown experiment %s", id)
		}
		last = r
	}
	for _, s := range last.Series {
		if len(s.Points) == 0 {
			continue
		}
		p := s.Points[len(s.Points)-1]
		b.ReportMetric(p.Y, fmt.Sprintf("%s@x=%g", sanitize(s.Name), p.X))
	}
	if testing.Verbose() {
		b.Log("\n" + last.Table())
	}
}

// sanitize makes series names metric-safe.
func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch r {
		case ' ', '/', '=':
			out = append(out, '_')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

func BenchmarkFig02IPCMessagesAff08(b *testing.B)   { runFigure(b, "fig02") }
func BenchmarkFig03IPCMessagesAff00(b *testing.B)   { runFigure(b, "fig03") }
func BenchmarkFig04LockWaits(b *testing.B)          { runFigure(b, "fig04") }
func BenchmarkFig05LockWaitTime(b *testing.B)       { runFigure(b, "fig05") }
func BenchmarkFig06Scaling(b *testing.B)            { runFigure(b, "fig06") }
func BenchmarkFig07ScalingVsAffinity(b *testing.B)  { runFigure(b, "fig07") }
func BenchmarkFig08RouterForwarding(b *testing.B)   { runFigure(b, "fig08") }
func BenchmarkFig09CentralLogging(b *testing.B)     { runFigure(b, "fig09") }
func BenchmarkFig10DBGrowth(b *testing.B)           { runFigure(b, "fig10") }
func BenchmarkFig11Offload(b *testing.B)            { runFigure(b, "fig11") }
func BenchmarkFig12LatencyNormal(b *testing.B)      { runFigure(b, "fig12") }
func BenchmarkFig13LatencyLowComp(b *testing.B)     { runFigure(b, "fig13") }
func BenchmarkFig14CrossTrafficNormal(b *testing.B) { runFigure(b, "fig14") }
func BenchmarkFig15CrossTrafficLowComp(b *testing.B) {
	runFigure(b, "fig15")
}
func BenchmarkFig16CrossTrafficAffinity(b *testing.B) {
	runFigure(b, "fig16")
}

// BenchmarkSingleRun measures the cost of one baseline cluster simulation —
// the unit every sweep above is built from.
func BenchmarkSingleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := dclue.DefaultParams(4)
		p.Warehouses = 8 * 4
		p.Warmup = 60 * dclue.Second
		p.Measure = 120 * dclue.Second
		m, err := dclue.Run(p)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(m.TpmC, "tpmC")
			b.ReportMetric(m.CtlMsgsPerTxn, "ctlMsgs/txn")
		}
	}
}

// ---- Ablation benches: the design choices DESIGN.md calls out ----

func BenchmarkAblationQoSWFQ(b *testing.B)      { runFigure(b, "abl-qos") }
func BenchmarkAblationSANStorage(b *testing.B)  { runFigure(b, "abl-san") }
func BenchmarkAblationSubpage(b *testing.B)     { runFigure(b, "abl-subpage") }
func BenchmarkAblationGroupCommit(b *testing.B) { runFigure(b, "abl-groupcommit") }
func BenchmarkAblationElevator(b *testing.B)    { runFigure(b, "abl-elevator") }
func BenchmarkAblationPrewarm(b *testing.B)     { runFigure(b, "abl-prewarm") }
