package trace

import (
	"bufio"
	"io"
	"os"
	"strconv"
	"strings"

	"dclue/internal/sim"
)

// Export formats. Span segments are retained only when KeepEvents was
// enabled before the runs executed; collectors that keep only aggregates
// export an empty stream.
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

// appendUs appends t in microseconds with three decimals, as fmt's %.3f
// formats it.
func appendUs(b []byte, t sim.Time) []byte {
	return strconv.AppendFloat(b, us(t), 'f', 3, 64)
}

// WriteChrome writes the Chrome trace_event JSON array for every run.
func (c *Collector) WriteChrome(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("[\n")
	var b []byte
	for i, r := range c.Runs() {
		b = b[:0]
		if i > 0 {
			b = append(b, ",\n"...)
		}
		b = append(b, `{"name":"process_name","ph":"M","pid":`...)
		b = strconv.AppendInt(b, int64(r.pid), 10)
		b = append(b, `,"tid":0,"args":{"name":"`...)
		b = append(b, jsonEscape(r.label)...)
		b = append(b, `"}}`...)
		bw.Write(b)
		for j := range r.records {
			e := &r.records[j]
			b = append(b[:0], ",\n"...)
			b = append(b, `{"name":"`...)
			b = append(b, e.name()...)
			b = append(b, `","cat":"txn","ph":"X","ts":`...)
			b = appendUs(b, e.start)
			b = append(b, `,"dur":`...)
			b = appendUs(b, e.dur)
			b = append(b, `,"pid":`...)
			b = strconv.AppendInt(b, int64(r.pid), 10)
			b = append(b, `,"tid":`...)
			b = strconv.AppendInt(b, int64(e.tid), 10)
			b = append(b, `,"args":{"span":`...)
			b = strconv.AppendUint(b, e.span, 10)
			b = append(b, "}}"...)
			bw.Write(b)
		}
	}
	bw.WriteString("\n]\n")
	return bw.Flush()
}

// WriteJSONL writes one JSON object per line: span segments ("seg") and
// whole transactions ("txn"), grouped by run.
func (c *Collector) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var b []byte
	for _, r := range c.Runs() {
		label := jsonEscape(r.label)
		for j := range r.records {
			e := &r.records[j]
			kind := "seg"
			if Phase(e.ph) == phaseTxn {
				kind = "txn"
			}
			b = append(b[:0], `{"type":"`...)
			b = append(b, kind...)
			b = append(b, `","run":`...)
			b = strconv.AppendInt(b, int64(r.pid), 10)
			b = append(b, `,"label":"`...)
			b = append(b, label...)
			b = append(b, `","span":`...)
			b = strconv.AppendUint(b, e.span, 10)
			b = append(b, `,"tid":`...)
			b = strconv.AppendInt(b, int64(e.tid), 10)
			b = append(b, `,"phase":"`...)
			b = append(b, e.name()...)
			b = append(b, `","start_us":`...)
			b = appendUs(b, e.start)
			b = append(b, `,"dur_us":`...)
			b = appendUs(b, e.dur)
			b = append(b, "}\n"...)
			bw.Write(b)
		}
	}
	return bw.Flush()
}
