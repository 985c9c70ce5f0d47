package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// benchFigure is one figure's slice of a bench run record.
type benchFigure struct {
	ID          string  `json:"id"`
	Points      int     `json:"points"`
	Fingerprint string  `json:"fingerprint"`
	Seconds     float64 `json:"seconds"`
}

// benchRun records one dclueexp invocation: what ran, at what parallelism,
// on what hardware, how long each figure took, and the sequential-equivalent
// fingerprint of every table (identical across -j values by construction).
type benchRun struct {
	Timestamp  string        `json:"timestamp"`
	Jobs       int           `json:"jobs"`
	GoMaxProcs int           `json:"gomaxprocs"`
	NumCPU     int           `json:"numcpu"`
	Quick      bool          `json:"quick"`
	Seed       uint64        `json:"seed"`
	Telemetry  bool          `json:"telemetry,omitempty"`
	TotalSec   float64       `json:"total_seconds"`
	Figures    []benchFigure `json:"figures"`
}

// benchFile holds earlier records as raw JSON, so an append keeps every
// key they carry, including keys benchRun does not declare.
type benchFile struct {
	Runs []json.RawMessage `json:"runs"`
}

// appendBench appends rec to the run list in path, creating the file if
// needed, so successive -j1 / -jN invocations accumulate comparable records.
func appendBench(path string, rec benchRun) error {
	var bf benchFile
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &bf); err != nil {
			return fmt.Errorf("%s: existing file is not a bench record: %v", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	bf.Runs = append(bf.Runs, raw)
	out, err := json.MarshalIndent(bf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// round3 keeps the JSON timings readable (millisecond resolution).
func round3(s float64) float64 { return math.Round(s*1000) / 1000 }
