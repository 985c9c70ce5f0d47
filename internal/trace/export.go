package trace

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"

	"dclue/internal/sim"
)

// Export formats. Span segments are retained only when KeepEvents was
// enabled before the runs executed; histogram-only collectors export an
// empty stream.
//
// Chrome trace_event JSON loads directly in chrome://tracing or Perfetto:
// each run is a process (pid), each terminal a thread (tid) and each phase
// slice a complete ("X") event. Timestamps are simulated microseconds.

// WriteFile exports the collector to path, picking the format from the
// extension: ".jsonl" writes the JSONL event stream, anything else the
// Chrome trace_event JSON.
func (c *Collector) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".jsonl") {
		err = c.WriteJSONL(f)
	} else {
		err = c.WriteChrome(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func us(t sim.Time) float64 { return float64(t) / float64(sim.Microsecond) }

// jsonEscape covers the label/name strings we emit (no control characters
// in practice; quotes and backslashes escaped for safety).
func jsonEscape(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// WriteChrome writes the Chrome trace_event JSON array for every run.
func (c *Collector) WriteChrome(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, "[\n")
	first := true
	emit := func(format string, args ...any) {
		if !first {
			fmt.Fprint(bw, ",\n")
		}
		first = false
		fmt.Fprintf(bw, format, args...)
	}
	for _, r := range c.Runs() {
		emit(`{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":"%s"}}`,
			r.pid, jsonEscape(r.label))
		for _, e := range r.events {
			emit(`{"name":"%s","cat":"txn","ph":"X","ts":%.3f,"dur":%.3f,"pid":%d,"tid":%d,"args":{"span":%d}}`,
				jsonEscape(e.Name), us(e.Start), us(e.Dur), r.pid, e.TID, e.SpanID)
		}
	}
	fmt.Fprint(bw, "\n]\n")
	return bw.Flush()
}

// WriteJSONL writes one JSON object per line: span segments ("seg") and
// whole transactions ("txn"), grouped by run.
func (c *Collector) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, r := range c.Runs() {
		for _, e := range r.events {
			kind := "seg"
			if e.Name == "txn" {
				kind = "txn"
			}
			fmt.Fprintf(bw, `{"type":"%s","run":%d,"label":"%s","span":%d,"tid":%d,"phase":"%s","start_us":%.3f,"dur_us":%.3f}`+"\n",
				kind, r.pid, jsonEscape(r.label), e.SpanID, e.TID, jsonEscape(e.Name), us(e.Start), us(e.Dur))
		}
	}
	return bw.Flush()
}
