package farm

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"dclue/internal/core"
)

// fuzzSeeds is the shared corpus for the protocol fuzzers: valid frames,
// every flavor of malformed/truncated/interleaved JSON, and — following the
// repo's cross-seeding discipline (FuzzParseFaultSpec seeds its corpus with
// the lint-directive grammar and vice versa) — shapes from the fault-spec
// and suppression-comment mini-grammars, so inputs valid in one of the
// repo's hand-rolled formats are proven inert in this one.
func fuzzSeeds(f *testing.F) {
	p := core.DefaultParams(2)
	goodJob, _ := EncodeJob(Job{ID: 1, Key: "k", Params: p, TraceSample: 2})
	goodReply, _ := EncodeReply(Reply{ID: 1, Key: "k", Err: "boom"})
	m := core.Metrics{TpmC: 1}
	metricsReply, _ := EncodeReply(Reply{ID: 2, Key: "k", Metrics: &m})
	seeds := []string{
		// Well-formed frames and streams.
		string(goodJob),
		string(goodReply),
		string(metricsReply),
		string(goodJob) + string(goodReply),
		"\n\n" + string(goodJob),
		// Truncations and splices.
		string(goodJob[:len(goodJob)/2]),
		string(goodJob[:len(goodJob)-2]) + string(goodReply),
		strings.TrimSuffix(string(goodJob), "\n") + strings.TrimSuffix(string(goodReply), "\n") + "\n",
		// Structural JSON abuse.
		"{}",
		"[]",
		"null",
		`{"id":`,
		`{"id":1,"key":"k","bogus":true}`,
		`{"id":1,"key":"k"} {"id":2,"key":"q"}`,
		`{"id":18446744073709551616,"key":"k"}`, // uint64 overflow
		`{"id":-1,"key":"k"}`,
		`{"id":1,"key":"k","trace_sample":-3}`,
		`{"id":1,"key":"k","params":{"Seed":"notanumber"}}`,
		`{"id":1,"metrics":{"TpmC":"NaN"}}`,
		`{"id":1,"metrics":null,"err":""}`,
		strings.Repeat(`{"id":1,`, 1000),
		"\x00\x01\x02",
		strings.Repeat("[", 10000), // deep nesting
		// Cross-grammar shapes: fault schedules and lint directives.
		"linkdown:node:1@60+10",
		"loss:interlata:0@80+20=0.3",
		"//lint:allow simtime reason",
		"/*lint:allow maporder reason*/",
		`{"id":1,"key":"linkdown:node:1@60+10"}`,
		`{"id":1,"key":"//lint:allow simtime reason","err":"x"}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
}

// FuzzWorkerProtocol holds both protocol decoders — and a serve loop
// around them — to their robustness contract: arbitrary input bytes never
// panic and never hang; whatever DOES decode round-trips exactly; and every
// line the serve loop emits is itself a well-formed Reply frame.
//
// The serve loop answers jobs with a stub result instead of a simulation:
// the fuzzer's job is the framing around it.
func FuzzWorkerProtocol(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, line := range bytes.Split(data, []byte("\n")) {
			if job, err := DecodeJob(line); err == nil {
				// Accepted jobs must re-encode and re-decode to themselves:
				// the wire format has one canonical form per value.
				enc, err := EncodeJob(job)
				if err != nil {
					t.Fatalf("accepted job does not re-encode: %+v: %v", job, err)
				}
				job2, err := DecodeJob(bytes.TrimSuffix(enc, []byte("\n")))
				if err != nil || !reflect.DeepEqual(job2, job) {
					t.Fatalf("job round-trip unstable: %+v -> %+v (%v)", job, job2, err)
				}
			}
			if rep, err := DecodeReply(line); err == nil {
				enc, err := EncodeReply(rep)
				if err != nil {
					t.Fatalf("accepted reply does not re-encode: %+v: %v", rep, err)
				}
				rep2, err := DecodeReply(enc)
				if err != nil || !reflect.DeepEqual(rep2, rep) {
					t.Fatalf("reply round-trip unstable: %+v -> %+v (%v)", rep, rep2, err)
				}
			}
		}

		// Drive the serve loop's framing over the whole stream. Decodable
		// jobs are answered by a stub (no simulation); everything else takes
		// the in-band error path.
		var out bytes.Buffer
		serveFramesForFuzz(data, &out)
		for _, line := range bytes.Split(out.Bytes(), []byte("\n")) {
			if len(bytes.TrimSpace(line)) == 0 {
				continue
			}
			if _, err := DecodeReply(line); err != nil {
				t.Fatalf("serve loop emitted an undecodable reply %q: %v", line, err)
			}
		}
	})
}

// serveFramesForFuzz scans data one protocol line at a time and writes one
// Reply line per non-blank line: a fixed result for a decodable job, an
// in-band error for anything else.
func serveFramesForFuzz(data []byte, out *bytes.Buffer) {
	sc := NewLineScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rep Reply
		if job, err := DecodeJob(line); err != nil {
			rep = Reply{Err: err.Error()}
		} else {
			m := core.Metrics{TpmC: 1}
			rep = Reply{ID: job.ID, Key: job.Key, Metrics: &m}
		}
		b, err := EncodeReply(rep)
		if err != nil {
			return
		}
		out.Write(b)
	}
}
