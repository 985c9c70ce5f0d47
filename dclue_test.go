package dclue_test

import (
	"fmt"
	"testing"

	"dclue"
)

// TestFacadeSmoke drives the public API end to end: configure, run, read
// metrics — the quickstart example as a test.
func TestFacadeSmoke(t *testing.T) {
	p := dclue.DefaultParams(2)
	p.Warehouses = 8
	p.CustomersPerDist = 30
	p.Items = 200
	p.Warmup = 40 * dclue.Second
	p.Measure = 100 * dclue.Second
	m, err := dclue.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if m.TpmC <= 0 {
		t.Fatalf("no throughput: %+v", m)
	}
	if m.Nodes != 2 {
		t.Fatalf("metrics nodes %d", m.Nodes)
	}
}

func TestFacadeFigureRegistry(t *testing.T) {
	figs := dclue.Figures()
	if len(figs) != 29 {
		t.Fatalf("experiments %d, want 29", len(figs))
	}
	seen := map[string]bool{}
	for i, f := range figs {
		if seen[f.ID] {
			t.Fatalf("duplicate experiment id %s", f.ID)
		}
		seen[f.ID] = true
		if want := fmt.Sprintf("fig%02d", i+2); i < 15 && f.ID != want {
			t.Fatalf("experiment %d is %s, want %s (Figs 2-16 first)", i, f.ID, want)
		}
	}
	if _, ok := dclue.RunFigure("no-such", dclue.ExperimentOptions{}); ok {
		t.Fatal("unknown experiment accepted")
	}
}

func TestFacadeDeterminism(t *testing.T) {
	run := func() dclue.Metrics {
		p := dclue.DefaultParams(1)
		p.Warehouses = 6
		p.CustomersPerDist = 30
		p.Items = 100
		p.Warmup = 30 * dclue.Second
		p.Measure = 60 * dclue.Second
		m, err := dclue.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := run(), run()
	if a.TpmC != b.TpmC || a.RespTimeMs != b.RespTimeMs {
		t.Fatalf("nondeterministic facade runs: %v vs %v", a.TpmC, b.TpmC)
	}
}
