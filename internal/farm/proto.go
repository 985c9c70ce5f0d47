// Package farm is the wire codec left from the deleted multi-process
// experiment farm: line-delimited JSON, one Job per line to a worker and
// one Reply per line back. The decoders are strict, and FuzzWorkerProtocol
// holds them to never panicking or hanging. Nothing calls the codec any
// more; ROADMAP item 7 schedules its deletion.
package farm

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"dclue/internal/core"
)

// MaxLineBytes bounds one protocol line.
const MaxLineBytes = 8 << 20

// Job is one simulation point; its Reply echoes ID and Key. Params travels
// without its process-local collectors, and a positive TraceSample asks for
// a span collector with that sampling stride.
type Job struct {
	ID          uint64      `json:"id"`
	Key         string      `json:"key"`
	Params      core.Params `json:"params"`
	TraceSample int         `json:"trace_sample,omitempty"`
}

// Reply is one result: Metrics, or Err for a deterministic failure.
type Reply struct {
	ID      uint64        `json:"id"`
	Key     string        `json:"key,omitempty"`
	Metrics *core.Metrics `json:"metrics,omitempty"`
	Err     string        `json:"err,omitempty"`
}

// EncodeJob renders a Job as one protocol line (newline included).
func EncodeJob(j Job) ([]byte, error) { return encodeLine(j) }

// EncodeReply renders a Reply as one protocol line (newline included).
func EncodeReply(r Reply) ([]byte, error) { return encodeLine(r) }

func encodeLine(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// DecodeJob parses one Job line: exactly one object with Job's fields.
func DecodeJob(line []byte) (Job, error) {
	var j Job
	if err := decodeStrict(line, &j); err != nil {
		return Job{}, err
	}
	if j.Key == "" {
		return Job{}, errors.New("farm: job without key")
	}
	if j.TraceSample < 0 {
		return Job{}, fmt.Errorf("farm: negative trace sample %d", j.TraceSample)
	}
	return j, nil
}

// DecodeReply parses one Reply line under the same strictness as DecodeJob.
func DecodeReply(line []byte) (Reply, error) {
	var r Reply
	if err := decodeStrict(line, &r); err != nil {
		return Reply{}, err
	}
	if r.Metrics == nil && r.Err == "" {
		return Reply{}, errors.New("farm: reply carries neither metrics nor error")
	}
	return r, nil
}

// decodeStrict decodes one bounded JSON object with no unknown fields and
// nothing after it.
func decodeStrict(line []byte, v any) error {
	if len(line) > MaxLineBytes {
		return fmt.Errorf("farm: protocol line of %d bytes exceeds limit", len(line))
	}
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("farm: bad protocol line: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return errors.New("farm: trailing data after protocol object")
	}
	return nil
}

// NewLineScanner yields one protocol line per Scan, up to MaxLineBytes.
func NewLineScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), MaxLineBytes)
	return sc
}
