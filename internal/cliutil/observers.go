package cliutil

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"

	"dclue/internal/sim"
	"dclue/internal/telemetry"
	"dclue/internal/trace"
)

// Observers is the observer flag set shared by dcluesim and dclueexp:
// -trace and -trace-sample attach a span collector, -telemetry and
// -telemetry-bucket a telemetry collector. Register the flags with
// AddObservers, call Start after parsing, attach the collectors to the
// run's parameters, and call Write once the runs are done.
type Observers struct {
	Trace     *trace.Collector     // nil unless -trace names a file
	Telemetry *telemetry.Collector // nil unless -telemetry names a file

	traceFile  string
	traceEvery int
	telemFile  string
	telemBkt   float64
}

// AddObservers registers the four observer flags on fs.
func AddObservers(fs *flag.FlagSet) *Observers {
	o := &Observers{}
	fs.StringVar(&o.traceFile, "trace", "", "trace every run's transaction spans and write them to this file (.jsonl = JSONL events; anything else = Chrome trace_event JSON for chrome://tracing or Perfetto); simulated results are unaffected")
	fs.IntVar(&o.traceEvery, "trace-sample", 1, "with -trace, trace every Nth transaction per run (deterministic modular sampling)")
	fs.StringVar(&o.telemFile, "telemetry", "", "record per-component utilization telemetry for every run and write it to this file (.prom/.txt = Prometheus text snapshot; anything else = JSONL timeseries); simulated results are unaffected")
	fs.Float64Var(&o.telemBkt, "telemetry-bucket", 0, "with -telemetry, timeline bucket size in simulated seconds (0 = end-of-run scalars only)")
	return o
}

// Start builds the collectors the parsed flags ask for. A sampling flag
// set away from its default without its file flag is an error: it would
// otherwise be silently ignored. So is a value the collector would
// otherwise clamp: a stride below 1, or a bucket that is not 0 and does
// not convert to between 1 ns and the largest sim.Time.
func (o *Observers) Start() error {
	if o.traceFile == "" && o.traceEvery != 1 {
		return errors.New("-trace-sample requires -trace")
	}
	if o.telemFile == "" && o.telemBkt != 0 {
		return errors.New("-telemetry-bucket requires -telemetry")
	}
	if o.traceEvery < 1 {
		return fmt.Errorf("-trace-sample %d: want a stride of at least 1", o.traceEvery)
	}
	// The negated range test also rejects NaN.
	if ns := o.telemBkt * float64(sim.Second); o.telemBkt != 0 && !(ns >= 1 && ns < math.MaxInt64) {
		return fmt.Errorf("-telemetry-bucket %g: want 0 (scalars only) or 1e-9 to %g simulated seconds",
			o.telemBkt, sim.Time(math.MaxInt64).Seconds())
	}
	if o.traceFile != "" {
		o.Trace = trace.NewCollector(o.traceEvery)
		o.Trace.KeepEvents(0)
	}
	if o.telemFile != "" {
		o.Telemetry = telemetry.NewCollector(sim.Time(o.telemBkt * float64(sim.Second)))
	}
	return nil
}

// Write exports each attached collector to its file, the format picked by
// the file's extension, and notes every file written on log.
func (o *Observers) Write(log io.Writer) error {
	if o.Trace != nil {
		if err := o.Trace.WriteFile(o.traceFile); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		fmt.Fprintf(log, "trace: wrote %s\n", o.traceFile)
	}
	if o.Telemetry != nil {
		if err := o.Telemetry.WriteFile(o.telemFile); err != nil {
			return fmt.Errorf("telemetry: %w", err)
		}
		fmt.Fprintf(log, "telemetry: wrote %s\n", o.telemFile)
	}
	return nil
}
