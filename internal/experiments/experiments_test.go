package experiments

import (
	"fmt"
	"strings"
	"testing"

	"dclue/internal/sim"
	"dclue/internal/stats"
)

// TestAllFiguresRegistered pins the one registry: 29 unique, complete
// experiments, the 15 paper figures first and in paper order.
func TestAllFiguresRegistered(t *testing.T) {
	figs := All()
	if len(figs) != 29 {
		t.Fatalf("registered %d experiments, want 29", len(figs))
	}
	seen := map[string]bool{}
	for i, f := range figs {
		if seen[f.ID] {
			t.Fatalf("duplicate experiment id %s", f.ID)
		}
		seen[f.ID] = true
		if f.Run == nil || f.Title == "" {
			t.Fatalf("experiment %s incomplete", f.ID)
		}
		if want := fmt.Sprintf("fig%02d", i+2); i < 15 && f.ID != want {
			t.Fatalf("experiment %d is %s, want %s (Figs 2-16 first)", i, f.ID, want)
		}
	}
}

// TestLookupForms covers the selection rule: every id and short form names
// one experiment, a family names its members in All order, and anything
// else names nothing.
func TestLookupForms(t *testing.T) {
	for _, tc := range []struct{ sel, want string }{
		{"fig06", "fig06"}, {"06", "fig06"}, {"6", "fig06"}, {"16", "fig16"},
		{"abl-qos", "abl-qos"}, {"qos", "abl-qos"},
		{"flt-loss", "flt-loss"}, {"loss", "flt-loss"},
		{"failover-size", "flt-failover-size"},
		{"lat-decomp", "lat-decomp"}, {"decomp", "lat-decomp"},
		{"util-decomp", "util-decomp"},
	} {
		f, ok := Lookup(tc.sel)
		if !ok || f.ID != tc.want {
			t.Fatalf("Lookup(%q) = %v/%v, want %s", tc.sel, f.ID, ok, tc.want)
		}
		if got := Select(tc.sel); len(got) != 1 || got[0].ID != tc.want {
			t.Fatalf("Select(%q) = %v, want [%s]", tc.sel, ids(got), tc.want)
		}
	}

	var families []string
	for _, fam := range []string{"fig", "abl", "flt", "lat", "util"} {
		if f, ok := Lookup(fam); ok {
			t.Fatalf("Lookup(%q) = %s, want no single experiment", fam, f.ID)
		}
		members := ids(Select(fam))
		for _, id := range members {
			if !strings.HasPrefix(id, fam) {
				t.Fatalf("Select(%q) includes %s", fam, id)
			}
		}
		families = append(families, members...)
	}
	if got, want := strings.Join(families, " "), strings.Join(ids(All()), " "); got != want {
		t.Fatalf("families in order = %s, want All order %s", got, want)
	}

	for _, sel := range []string{"", "fig99", "99", "0", "nope", "flt-nope", "decomp2"} {
		if _, ok := Lookup(sel); ok {
			t.Fatalf("Lookup accepted unknown selector %q", sel)
		}
		if got := Select(sel); got != nil {
			t.Fatalf("Select(%q) = %v, want nil", sel, ids(got))
		}
	}
}

// ids returns the experiment ids of figs.
func ids(figs []Figure) []string {
	out := make([]string, len(figs))
	for i, f := range figs {
		out[i] = f.ID
	}
	return out
}

func TestResultTableRendering(t *testing.T) {
	s := &stats.Series{Name: "a"}
	s.Add(1, 10)
	s.Add(2, 20)
	r := Result{ID: "figXX", Title: "demo", XLabel: "nodes",
		Series: []*stats.Series{s}, Notes: "note"}
	out := r.Table()
	for _, want := range []string{"figXX", "demo", "nodes", "20", "note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}
	if len(o.nodeSweep()) < 4 {
		t.Fatal("full sweep too small")
	}
	o.Quick = true
	if len(o.nodeSweep()) > 4 {
		t.Fatal("quick sweep too big")
	}
	if o.maxWhPerNode() >= (Options{}).maxWhPerNode() {
		t.Fatal("quick search cap not smaller")
	}
	p := o.baseParams(2)
	if p.Nodes != 2 {
		t.Fatalf("baseParams nodes %d", p.Nodes)
	}
	if p.Warmup >= 150*sim.Second {
		t.Fatal("quick warmup not reduced")
	}
	o.Seed = 42
	if o.baseParams(2).Seed != 42 {
		t.Fatal("seed not applied")
	}
	o.Seed = 0
	if o.baseParams(2).Seed != 0 {
		t.Fatal("seed 0 not applied")
	}
}

// TestFig2QuickShape runs the cheapest real figure end-to-end and checks
// the paper's qualitative shape: IPC messages per transaction increase
// with cluster size at affinity 0.8.
func TestFig2QuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	r := bareRun(t, "fig02", 1, false)
	if len(r.Series) != 2 {
		t.Fatalf("series %d", len(r.Series))
	}
	ctl := r.Series[0].Points
	if len(ctl) < 3 {
		t.Fatalf("points %d", len(ctl))
	}
	if !(ctl[0].Y < ctl[len(ctl)-1].Y) {
		t.Fatalf("ctl msgs/txn not increasing with nodes: %+v", ctl)
	}
	for _, p := range ctl {
		if p.Y < 0 {
			t.Fatalf("negative message count: %+v", p)
		}
	}
}
