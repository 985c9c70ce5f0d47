package farm

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"dclue/internal/core"
)

// sampleMetrics builds a distinctive Metrics value without running a
// simulation; v differentiates values.
func sampleMetrics(v float64) core.Metrics {
	return core.Metrics{
		Nodes:      4,
		Affinity:   0.8,
		TpmC:       1234.5 + v,
		RespTimeMs: 42.25 * v,
		NetDrops:   uint64(v),
		Timeline:   []core.TimelinePoint{{T: 1, TxnRate: v}},
	}
}

func TestJobRoundTrip(t *testing.T) {
	j := Job{ID: 7, Key: "abc", Params: core.DefaultParams(2), TraceSample: 3}
	line, err := EncodeJob(j)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(line, []byte("\n")) || bytes.Count(line, []byte("\n")) != 1 {
		t.Fatalf("not a single newline-terminated line: %q", line)
	}
	got, err := DecodeJob(bytes.TrimSuffix(line, []byte("\n")))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, j) {
		t.Fatalf("round trip changed job:\n got %+v\nwant %+v", got, j)
	}
}

func TestReplyRoundTrip(t *testing.T) {
	m := sampleMetrics(2)
	r := Reply{ID: 7, Key: "abc", Metrics: &m}
	line, err := EncodeReply(r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeReply(line)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("round trip changed reply:\n got %+v\nwant %+v", got, r)
	}
	errRep := Reply{ID: 9, Key: "abc", Err: "boom"}
	line, _ = EncodeReply(errRep)
	if got, err := DecodeReply(line); err != nil || !reflect.DeepEqual(got, errRep) {
		t.Fatalf("error reply round trip: %+v, %v", got, err)
	}
}

// TestDecodeStrictness pins the fail-fast contract: anything that is not one
// complete, exactly-shaped protocol object on a line is rejected outright.
func TestDecodeStrictness(t *testing.T) {
	good, _ := EncodeJob(Job{ID: 1, Key: "k", Params: core.DefaultParams(2)})
	goodReply, _ := EncodeReply(Reply{ID: 1, Err: "x"})
	bad := map[string]string{
		"empty":           "",
		"not-json":        "hello",
		"truncated":       string(good[:len(good)/2]),
		"unknown-field":   `{"id":1,"key":"k","bogus":true}`,
		"trailing-data":   strings.TrimSuffix(string(good), "\n") + ` {"id":2}`,
		"two-objects":     strings.TrimSuffix(string(good), "\n") + strings.TrimSuffix(string(good), "\n"),
		"array-not-obj":   `[1,2,3]`,
		"missing-key":     `{"id":1}`,
		"negative-sample": `{"id":1,"key":"k","trace_sample":-2}`,
	}
	for name, line := range bad {
		t.Run("job/"+name, func(t *testing.T) {
			if j, err := DecodeJob([]byte(line)); err == nil {
				t.Fatalf("accepted %q as %+v", line, j)
			}
		})
	}
	badReply := map[string]string{
		"empty":            "",
		"neither-result":   `{"id":1,"key":"k"}`,
		"unknown-field":    `{"id":1,"err":"x","extra":0}`,
		"trailing-garbage": strings.TrimSuffix(string(goodReply), "\n") + "}",
	}
	for name, line := range badReply {
		t.Run("reply/"+name, func(t *testing.T) {
			if r, err := DecodeReply([]byte(line)); err == nil {
				t.Fatalf("accepted %q as %+v", line, r)
			}
		})
	}
}

// TestDecodeRejectsOversizeLine: the MaxLineBytes bound applies to the
// decoders themselves, not just the scanner.
func TestDecodeRejectsOversizeLine(t *testing.T) {
	line := append([]byte(`{"key":"`), bytes.Repeat([]byte("a"), MaxLineBytes)...)
	line = append(line, []byte(`"}`)...)
	if _, err := DecodeJob(line); err == nil {
		t.Fatal("oversize line accepted")
	}
}

// TestLineScannerBound: an overlong line terminates the scan with an error
// instead of growing the buffer without bound.
func TestLineScannerBound(t *testing.T) {
	big := strings.Repeat("x", MaxLineBytes+1024)
	sc := NewLineScanner(strings.NewReader(big))
	for sc.Scan() {
	}
	if sc.Err() == nil {
		t.Fatal("oversize stream scanned without error")
	}
}
