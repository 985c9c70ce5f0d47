package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"dclue"
	"dclue/internal/farm"
)

// statusServer serves the -status observability endpoints while a sweep
// runs:
//
//	/status   live progress JSON — wall-clock elapsed plus, under -farm, the
//	          coordinator snapshot (cumulative counters, per-worker health
//	          and restart counts, every point's current state)
//	/metrics  Prometheus text snapshot of the telemetry registries sealed so
//	          far (one registry per completed telemetered run)
//
// Both read consistent snapshots (the coordinator copies under its lock;
// only sealed registries are exported), so serving concurrently with the
// sweep never races it — and never perturbs it, since handlers only read.
type statusServer struct {
	start time.Time
	coord *farm.Coordinator         // nil without -farm
	tel   *dclue.TelemetryCollector // nil without -telemetry
}

// statusReply is the /status response body.
type statusReply struct {
	ElapsedSec float64      `json:"elapsed_s"`
	Farm       *farm.Status `json:"farm,omitempty"`
}

func newStatusServer(coord *farm.Coordinator, tel *dclue.TelemetryCollector) http.Handler {
	s := &statusServer{start: time.Now(), coord: coord, tel: tel}
	mux := http.NewServeMux()
	mux.HandleFunc("/status", s.serveStatus)
	mux.HandleFunc("/metrics", s.serveMetrics)
	mux.HandleFunc("/", s.serveIndex)
	return mux
}

func (s *statusServer) serveStatus(w http.ResponseWriter, r *http.Request) {
	rep := statusReply{ElapsedSec: time.Since(s.start).Seconds()}
	if s.coord != nil {
		st := s.coord.Status()
		rep.Farm = &st
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(rep)
}

func (s *statusServer) serveMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if s.tel == nil {
		fmt.Fprintln(w, "# no telemetry collector attached (run with -telemetry)")
		return
	}
	s.tel.WritePrometheus(w)
}

func (s *statusServer) serveIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintln(w, "dclueexp status endpoints:\n  /status   sweep + farm progress (JSON)\n  /metrics  telemetry snapshot (Prometheus text)")
}
