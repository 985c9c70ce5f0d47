package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden figure fixtures under testdata/")

// goldenFigures are the Quick-mode tables locked as fixtures: the two IPC
// figures the paper's §3 argument hangs on, one throughput-scaling figure,
// one QoS/cross-traffic figure, the fault-loss sweep, and the failover
// timeline. Any change to model output shows up as an explicit, reviewable
// fixture diff.
var goldenFigures = []string{"fig02", "fig03", "fig06", "fig16", "flt-loss", "lat-decomp", "flt-failover", "util-decomp"}

// TestGoldenFigures regenerates each committed figure table in Quick mode
// and diffs it byte-for-byte against testdata/<id>.golden. Regenerate with:
//
//	go test ./internal/experiments -run Golden -update
func TestGoldenFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("full Quick-mode regeneration")
	}
	for _, id := range goldenFigures {
		id := id
		t.Run(id, func(t *testing.T) {
			if _, ok := Lookup(id); !ok {
				t.Fatalf("figure %q not registered", id)
			}
			// The shared Quick run uses a 4-worker pool, exercising the
			// parallel path; output is identical to sequential by the
			// runner's ordered-merge contract (verified separately by the
			// determinism tests).
			got := bareRun(t, id, 1, false).Table()
			path := filepath.Join("testdata", id+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing fixture (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s table drifted from fixture.\n-- got --\n%s-- want --\n%s"+
					"If the change is intended, regenerate with -update and review the diff.",
					id, got, want)
			}
		})
	}
}
