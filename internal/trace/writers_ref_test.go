package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"dclue/internal/sim"
)

// refWriteChrome and refWriteJSONL are the fmt-based writers that the
// strconv ones replaced, kept as the reference whose output WriteChrome
// and WriteJSONL must equal byte for byte.
func (c *Collector) refWriteChrome(w io.Writer) error {
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
		for _, e := range r.records {
			emit(`{"name":"%s","cat":"txn","ph":"X","ts":%.3f,"dur":%.3f,"pid":%d,"tid":%d,"args":{"span":%d}}`,
				jsonEscape(e.name()), us(e.start), us(e.dur), r.pid, e.tid, e.span)
		}
	}
	fmt.Fprint(bw, "\n]\n")
	return bw.Flush()
}

func (c *Collector) refWriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, r := range c.Runs() {
		for _, e := range r.records {
			kind := "seg"
			if e.name() == "txn" {
				kind = "txn"
			}
			fmt.Fprintf(bw, `{"type":"%s","run":%d,"label":"%s","span":%d,"tid":%d,"phase":"%s","start_us":%.3f,"dur_us":%.3f}`+"\n",
				kind, r.pid, jsonEscape(r.label), e.span, e.tid, jsonEscape(e.name()), us(e.start), us(e.dur))
		}
	}
	return bw.Flush()
}

// CheckWriters lets the external test package compare the writers on a
// simulated run (writers_sim_test.go).
var CheckWriters = checkWriters

// checkWriters fails t unless WriteChrome and WriteJSONL reproduce the
// reference writers' bytes for c, and the Chrome export has at least
// minLines lines, so that a case cannot pass by exporting nothing.
func checkWriters(t *testing.T, name string, c *Collector, minLines int) {
	t.Helper()
	for _, w := range []struct {
		format    string
		got, want func(*Collector, io.Writer) error
	}{
		{"chrome", (*Collector).WriteChrome, (*Collector).refWriteChrome},
		{"jsonl", (*Collector).WriteJSONL, (*Collector).refWriteJSONL},
	} {
		var got, want bytes.Buffer
		if err := w.got(c, &got); err != nil {
			t.Fatal(err)
		}
		if err := w.want(c, &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s, %s: output differs from the fmt-based writer\n got: %.300q\nwant: %.300q",
				name, w.format, got.String(), want.String())
		}
		if n := strings.Count(got.String(), "\n"); w.format == "chrome" && n < minLines {
			t.Errorf("%s, chrome: %d lines, want at least %d", name, n, minLines)
		}
	}
}

// TestWritersMatchReference compares the writers with the reference on
// hand-built collectors: a label that needs escaping, a run whose
// retention cap dropped records, and collectors that retained nothing.
// TestWritersMatchReferenceSimulated covers a simulated run.
func TestWritersMatchReference(t *testing.T) {
	spans := func(c *Collector, label string, n int) *Run {
		r := c.NewRun(label)
		for i := 0; i < n; i++ {
			at := sim.Time(i) * 7 * ms
			s := r.StartSpan(at+sim.Time(i)*sim.Microsecond/3, i%5)
			s.BeginServer(at + ms)
			s.Enter(at+ms+sim.Time(i)*1234, PhaseLock)
			s.Enter(at+2*ms, PhaseDisk)
			s.Exit(at + 3*ms + 17)
			s.Exit(at + 4*ms)
			s.EndServer(at + 5*ms + sim.Time(i))
			s.Finish(at + 6*ms)
		}
		return r
	}

	escaped := NewCollector(1)
	escaped.KeepEvents(0)
	spans(escaped, `a "quoted" \ label \"`, 3)
	checkWriters(t, "escaped label", escaped, 3+12)

	capped := NewCollector(1)
	capped.KeepEvents(10)
	if r := spans(capped, "capped", 6); r.Dropped() == 0 {
		t.Fatal("the capped run dropped no records")
	}
	checkWriters(t, "capped run", capped, 3+10)

	unretained := NewCollector(1) // no KeepEvents
	spans(unretained, "unretained", 3)
	checkWriters(t, "no records", unretained, 3)

	checkWriters(t, "no runs", NewCollector(1), 3)
}
