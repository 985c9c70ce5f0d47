package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestMetricsMatchBenchmarkJSON checks that an untraced run reports exactly
// the end-to-end metrics BENCHMARK.json declares and a traced run exactly
// the per-layer ones, with the declared units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}

	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	if len(names) != len(spec.Workloads) {
		t.Fatalf("workloads %v, BENCHMARK.json declares %v", names, spec.Workloads)
	}
	for i, w := range spec.Workloads {
		if w.Name != names[i] {
			t.Errorf("workload %d is %s, BENCHMARK.json says %s", i, names[i], w.Name)
		}
	}

	in := instance{wall: time.Second, points: 1, sims: []simResult{{
		key: "cluster", setup: time.Millisecond, simulate: time.Second, simSec: 100,
		w: work{Events: 10, PktsForwarded: 5, SegsSent: 5, Commits: 3},
	}}}
	// An instance whose only simulation failed before doing any work must
	// not turn a metric into NaN or Inf, which JSON cannot carry.
	failed := instance{wall: time.Second, sims: []simResult{{key: "cluster", simSec: 100}}}
	r := &runs{plain: []instance{in, failed, failed}, traced: []instance{failed}, ledger: newLedger()}
	chk := &checker{attempted: 2}
	for _, tc := range []struct {
		mode string
		got  map[string]metric
		want []decl
	}{
		{"end-to-end", endToEnd(r), spec.EndToEnd},
		{"per-layer", perLayer(r, chk), spec.PerLayer},
	} {
		if _, err := json.Marshal(tc.got); err != nil {
			t.Errorf("%s: %v", tc.mode, err)
		}
		if len(tc.got) != len(tc.want) {
			t.Errorf("%s: reports %d metrics, BENCHMARK.json declares %d", tc.mode, len(tc.got), len(tc.want))
		}
		for _, d := range tc.want {
			m, ok := tc.got[d.Name]
			switch {
			case !ok:
				t.Errorf("%s: %s declared but not reported", tc.mode, d.Name)
			case m.Unit != d.Unit:
				t.Errorf("%s: %s reported in %s, declared in %s", tc.mode, d.Name, m.Unit, d.Unit)
			}
		}
	}
}
