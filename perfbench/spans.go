package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval of benchmark code around a call into a layer
// of the simulator: workload → point → setup (core.New) / simulate (Run),
// and workload → export (WriteFile). Parent 0 marks a root.
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // host seconds since the recorder started
	End    float64 `json:"end_s"`
}

// spans records spans in memory. Every workload runs its simulations one
// at a time on the main goroutine, so it needs no lock.
type spans struct {
	t0   time.Time
	next int64
	all  []span
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// do runs fn inside a span named name under parent and returns the span's
// duration. fn receives the new span's id, so it can open children.
func (s *spans) do(parent int64, name string, fn func(id int64)) time.Duration {
	s.next++
	id := s.next
	start := time.Now()
	fn(id)
	end := time.Now()
	s.all = append(s.all, span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(s.t0).Seconds(), End: end.Sub(s.t0).Seconds()})
	return end.Sub(start)
}

// writeJSONL writes every span, one JSON object per line.
func (s *spans) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range s.all {
		if err = enc.Encode(sp); err != nil {
			break
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
