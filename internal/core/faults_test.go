package core

import (
	"math"
	"strings"
	"testing"

	"dclue/internal/db"
	"dclue/internal/sim"
)

// faultedParams is a 2-node, 2-LATA cluster with a mid-measurement
// link-down on node 1's access pair followed by burst loss on LATA 0's
// uplink — the acceptance scenario for the fault subsystem.
func faultedParams() Params {
	p := quickParams(2)
	p.NodesPerLata = 1
	p.FaultSpec = "linkdown:node:1@60+10;loss:interlata:0@80+15=0.3"
	p.TimelineBucket = 5 * sim.Second
	return p
}

// TestFaultedRunCompletesAndRecovers: the scenario must complete (no hang),
// surface the faults in the retry/timeout metrics, and the throughput
// timeline must recover after the last fault window closes.
func TestFaultedRunCompletesAndRecovers(t *testing.T) {
	p := faultedParams()
	m := mustRun(t, p)

	if m.FaultDrops == 0 {
		t.Fatal("no packets recorded lost to the injected faults")
	}
	if m.TpmC <= 0 {
		t.Fatalf("no throughput under faults: %+v", m)
	}
	// The protocol layer must have noticed: bounded waits expired and/or
	// transactions took the release-and-retry path.
	if m.FetchTimeouts == 0 && m.Retries == 0 {
		t.Fatalf("faults invisible to recovery metrics: %s", m)
	}

	// Recovery: compare the mean rate while both faults are over (t>100s)
	// to the rate inside the fault windows (60..95s). The healthy tail must
	// beat the faulted stretch.
	meanRate := func(lo, hi float64) float64 {
		var sum float64
		var n int
		for _, pt := range m.Timeline {
			s := pt.T.Seconds()
			if s > lo && s <= hi {
				sum += pt.TxnRate
				n++
			}
		}
		if n == 0 {
			t.Fatalf("no timeline points in (%g, %g]; timeline: %v", lo, hi, m.Timeline)
		}
		return sum / float64(n)
	}
	faulted := meanRate(60, 95)
	recovered := meanRate(110, 160)
	if recovered <= faulted {
		t.Fatalf("no recovery: %.1f txn/s after faults vs %.1f during (timeline %v)",
			recovered, faulted, m.Timeline)
	}
	if recovered <= 0 {
		t.Fatal("cluster dead after fault windows closed")
	}
}

// TestFaultedRunsAreDeterministic (regression): same seed + same schedule
// must produce byte-identical metrics, timeline included.
func TestFaultedRunsAreDeterministic(t *testing.T) {
	p := faultedParams()
	a := mustRun(t, p)
	b := mustRun(t, p)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("same-seed faulted runs diverged:\n%s\nvs\n%s", a, b)
	}
}

// TestBadFaultSpecsRejectedAtConstruction: schedule errors come back from
// New as errors, not panics or silent misconfiguration.
func TestBadFaultSpecsRejectedAtConstruction(t *testing.T) {
	for _, spec := range []string{
		"explode:node:0@1+1",  // unknown kind
		"linkdown:node:9@1+1", // unknown target (2-node cluster)
		"linkdown:interlata:7@1+1",
		"loss:node:0@1+1", // missing severity
	} {
		p := quickParams(2)
		p.NodesPerLata = 1
		p.FaultSpec = spec
		c, err := New(p)
		if err == nil {
			c.Sim.Shutdown()
			t.Errorf("FaultSpec %q accepted, want construction error", spec)
		}
	}
}

// TestInvalidParamsRejectedAtConstruction: out-of-range fields come back
// from New as errors naming the field, not as panics mid-setup or as runs
// that print all-zero metrics. The rows are values dcluesim passes through
// from its flags, plus the zero Scale New used to panic on.
func TestInvalidParamsRejectedAtConstruction(t *testing.T) {
	for _, c := range []struct {
		field string
		set   func(*Params)
	}{
		{"Nodes", func(p *Params) { p.Nodes = 0 }},
		{"Nodes", func(p *Params) { p.Nodes, p.Warehouses = db.MaxNodes+1, db.MaxNodes+1 }},
		{"Warmup", func(p *Params) { p.Warmup = -1 * sim.Second }},
		{"RouterFwdRate", func(p *Params) { p.RouterFwdRate = 0 }},
		{"Measure", func(p *Params) { p.Measure = -5 * sim.Second }},
		{"Measure", func(p *Params) { p.Measure = sim.Time(math.NaN() * float64(sim.Second)) }},
		{"Affinity", func(p *Params) { p.Affinity = 1.5 }},
		{"Warehouses", func(p *Params) { p.Warehouses = -3 }},
		{"Scale", func(p *Params) { p.Scale = 0 }},
	} {
		p := quickParams(2)
		c.set(&p)
		cl, err := New(p)
		if err == nil {
			cl.Sim.Shutdown()
			t.Errorf("bad %s accepted, want construction error", c.field)
			continue
		}
		if !strings.Contains(err.Error(), c.field) {
			t.Errorf("bad %s: error %q does not name the field", c.field, err)
		}
	}
}

// TestHealthyRunUnchangedByFaultMachinery: with no schedule, the fault
// plumbing must be invisible — identical metrics to the pre-fault model.
func TestHealthyRunUnchangedByFaultMachinery(t *testing.T) {
	p := quickParams(1)
	a := mustRun(t, p)
	if a.FaultDrops+a.CorruptDrops+a.FetchTimeouts+a.FetchFails+a.IscsiTimeouts+
		a.DiskErrors+a.DiskFailures > 0 {
		t.Fatalf("healthy run reports fault activity: %s", a)
	}
}
