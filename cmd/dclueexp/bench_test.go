package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// decodeRuns reads a bench file's run list as generic JSON values.
func decodeRuns(t *testing.T, path string) []any {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Runs []any `json:"runs"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f.Runs
}

// TestAppendBenchKeepsEarlierRecords: an append leaves every earlier
// record JSON-equal to what it was, keys benchRun does not declare
// included, and adds the new record last.
func TestAppendBenchKeepsEarlierRecords(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("..", "..", "BENCH_sweeps.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ name, data string }{
		{"unknown-key", `{"runs": [{"timestamp": "2026-01-02T03:04:05Z", "jobs": 4,
			"host": {"name": "bench-box", "cpus": 2}, "total_seconds": 1.5,
			"figures": [{"id": "fig02", "points": 3, "fingerprint": "00000000000000aa", "seconds": 1.5}]}]}`},
		{"committed", string(committed)},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "bench.json")
			if err := os.WriteFile(path, []byte(c.data), 0o644); err != nil {
				t.Fatal(err)
			}
			before := decodeRuns(t, path)
			rec := benchRun{Timestamp: "2026-02-03T04:05:06Z", Jobs: 1, Quick: true, Seed: 1,
				Figures: []benchFigure{{ID: "fig02", Points: 3, Fingerprint: "00000000000000bb", Seconds: 2}}}
			if err := appendBench(path, rec); err != nil {
				t.Fatal(err)
			}
			after := decodeRuns(t, path)
			if len(after) != len(before)+1 {
				t.Fatalf("%d records after the append, want %d", len(after), len(before)+1)
			}
			if !reflect.DeepEqual(after[:len(before)], before) {
				t.Errorf("earlier records changed by the append:\nbefore %v\nafter  %v", before, after[:len(before)])
			}
			last, _ := after[len(before)].(map[string]any)
			if last["timestamp"] != rec.Timestamp {
				t.Errorf("appended record %v, want timestamp %s", last, rec.Timestamp)
			}
		})
	}
}
