package cliutil

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dclue/internal/sim"
)

func parseObservers(t *testing.T, args ...string) (*Observers, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o := AddObservers(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return o, o.Start()
}

// TestObserversRejectOrphanFlags: a sampling flag without its own file
// flag is rejected, for either observer.
func TestObserversRejectOrphanFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-trace-sample", "10"},
		{"-telemetry-bucket", "5"},
		{"-telemetry", "x.jsonl", "-trace-sample", "10"},
	} {
		if _, err := parseObservers(t, args...); err == nil {
			t.Errorf("%v: accepted", args)
		}
	}
	o, err := parseObservers(t)
	if err != nil || o.Trace != nil || o.Telemetry != nil {
		t.Fatalf("no flags: err=%v trace=%v telemetry=%v", err, o.Trace, o.Telemetry)
	}
}

// TestObserversBuildAndWrite: the file flags build collectors configured
// from the sampling flags, and Write exports each to its file.
func TestObserversBuildAndWrite(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "t.json")
	telPath := filepath.Join(dir, "u.jsonl")
	o, err := parseObservers(t, "-trace", tracePath, "-trace-sample", "7",
		"-telemetry", telPath, "-telemetry-bucket", "2")
	if err != nil {
		t.Fatal(err)
	}
	if o.Trace == nil {
		t.Fatal("-trace built no collector")
	}
	if got := o.Trace.SampleEvery(); got != 7 {
		t.Errorf("trace stride %d, want 7", got)
	}
	if o.Telemetry == nil {
		t.Fatal("-telemetry built no collector")
	}
	if got := o.Telemetry.Bucket(); got != 2*sim.Second {
		t.Errorf("telemetry bucket %v, want 2s", got)
	}
	var log strings.Builder
	if err := o.Write(&log); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{tracePath, telPath} {
		if _, err := os.Stat(path); err != nil {
			t.Errorf("export missing: %v", err)
		}
		if !strings.Contains(log.String(), "wrote "+path) {
			t.Errorf("no note for %s in %q", path, log.String())
		}
	}
}
