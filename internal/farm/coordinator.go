package farm

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"dclue/internal/cliutil"
	"dclue/internal/core"
)

// Config configures a Coordinator.
type Config struct {
	// Workers is the number of worker processes (at least 1).
	Workers int
	// Argv is the worker command line (e.g. the dclueexp binary with
	// -worker).
	Argv []string
	// ExtraEnv entries (KEY=VALUE) are appended to each worker's
	// environment.
	ExtraEnv []string
	// ResultsDir is this sweep's checkpoint directory: one atomically
	// written entry per completed point plus the log.jsonl checkpoint log.
	// Restarting an interrupted sweep against the same directory re-serves
	// every completed point from its checkpoint and re-runs only the rest.
	ResultsDir string
	// CacheDir is the cross-sweep content-addressed result cache. Entries
	// are keyed with the code hash, so a rebuilt binary never reads a stale
	// result. Empty disables the cache layer (checkpoints still work).
	CacheDir string
	// CodeHash overrides the executable fingerprint (tests flip it to prove
	// invalidation); empty computes CodeHash() of this process.
	CodeHash string
	// WorkerRestarts bounds how many times one crashed worker process is
	// restarted (default 3).
	WorkerRestarts int
	// PointAttempts bounds how many times one point is re-dispatched after
	// worker deaths before the point fails (default 3). Deterministic
	// simulation errors are never retried — the same params would fail the
	// same way.
	PointAttempts int
	// Stderr receives the workers' stderr streams (default os.Stderr).
	Stderr io.Writer
}

// Stats counts what the coordinator did. Points = CheckpointHits +
// CacheHits + Execs + Failures.
type Stats struct {
	Points         uint64 // Exec calls served
	CheckpointHits uint64 // served from this sweep's results directory
	CacheHits      uint64 // served from the cross-sweep cache
	Execs          uint64 // actually run on a worker
	Failures       uint64 // points that returned an error
	Requeues       uint64 // dispatch attempts lost to a dying worker
	Restarts       uint64 // worker processes restarted after a crash
}

// LogEvent is one checkpoint-log line: an append-only record of how each
// point was satisfied. The log is the kill-and-resume proof artifact — a
// point's "exec-done" appears at most once across an interrupted sweep and
// all its resumptions, because a completed checkpoint is always served as a
// hit afterwards.
type LogEvent struct {
	Event  string `json:"event"` // checkpoint-hit | cache-hit | exec-start | exec-done | exec-fail | requeue
	Key    string `json:"key"`
	Worker int    `json:"worker,omitempty"`
}

// pending is one point waiting for a worker.
type pending struct {
	job      Job
	attempts int
	done     chan pointResult
}

type pointResult struct {
	m   core.Metrics
	err error
}

// Coordinator shards simulation points across worker processes with
// checkpointing and caching. Its Exec method satisfies runner.Exec and is
// safe for concurrent use from every sweep-pool goroutine; in-flight points
// beyond the worker count queue.
type Coordinator struct {
	cfg      Config
	codeHash string
	results  *Store
	cache    *Store // nil when disabled

	jobs chan *pending
	quit chan struct{}
	wg   sync.WaitGroup

	logMu   sync.Mutex
	logFile *os.File

	mu      sync.Mutex
	stats   Stats
	alive   int
	nextID  uint64
	workers []WorkerStatus
	points  map[string]string
}

// WorkerStatus is one worker slot's live state, as reported by Status.
type WorkerStatus struct {
	ID       int    `json:"id"`
	Alive    bool   `json:"alive"`
	Restarts uint64 `json:"restarts"`          // process restarts after crashes
	Served   uint64 `json:"served"`            // replies successfully read
	Current  string `json:"current,omitempty"` // key of the point in flight
}

// Status is a live snapshot of the farm: the cumulative counters, each
// worker slot's health, and every point's current state
// (queued | running | done | failed | checkpoint-hit | cache-hit).
type Status struct {
	Stats   Stats             `json:"stats"`
	Workers []WorkerStatus    `json:"workers"`
	Points  map[string]string `json:"points"`
}

// Status returns a consistent snapshot for the live status endpoint.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	ws := make([]WorkerStatus, len(c.workers))
	copy(ws, c.workers)
	pts := make(map[string]string, len(c.points))
	for k, v := range c.points {
		pts[k] = v
	}
	return Status{Stats: c.stats, Workers: ws, Points: pts}
}

// setPoint records a point's current state.
func (c *Coordinator) setPoint(key, state string) {
	c.mu.Lock()
	if c.points == nil {
		c.points = make(map[string]string)
	}
	c.points[key] = state
	c.mu.Unlock()
}

// setWorker mutates one worker slot's status under the lock.
func (c *Coordinator) setWorker(id int, f func(*WorkerStatus)) {
	c.mu.Lock()
	f(&c.workers[id])
	c.mu.Unlock()
}

// New opens the stores and spawn-supervises cfg.Workers worker processes.
// Callers must Close the coordinator to stop the workers.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Workers < 1 {
		return nil, errors.New("farm: need at least one worker")
	}
	if len(cfg.Argv) == 0 {
		return nil, errors.New("farm: no worker command")
	}
	if cfg.ResultsDir == "" {
		return nil, errors.New("farm: no results directory")
	}
	if cfg.WorkerRestarts == 0 {
		cfg.WorkerRestarts = 3
	}
	if cfg.PointAttempts == 0 {
		cfg.PointAttempts = 3
	}
	if cfg.Stderr == nil {
		cfg.Stderr = os.Stderr
	}
	codeHash := cfg.CodeHash
	if codeHash == "" {
		var err error
		if codeHash, err = CodeHash(); err != nil {
			return nil, fmt.Errorf("farm: fingerprint executable: %w", err)
		}
	}
	results, err := OpenStore(cfg.ResultsDir)
	if err != nil {
		return nil, err
	}
	var cache *Store
	if cfg.CacheDir != "" {
		if cache, err = OpenStore(cfg.CacheDir); err != nil {
			return nil, err
		}
	}
	logFile, err := os.OpenFile(filepath.Join(cfg.ResultsDir, "log.jsonl"),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("farm: open checkpoint log: %w", err)
	}
	c := &Coordinator{
		cfg:      cfg,
		codeHash: codeHash,
		results:  results,
		cache:    cache,
		jobs:     make(chan *pending),
		quit:     make(chan struct{}),
		logFile:  logFile,
		alive:    cfg.Workers,
		points:   make(map[string]string),
	}
	c.workers = make([]WorkerStatus, cfg.Workers)
	for i := range c.workers {
		c.workers[i] = WorkerStatus{ID: i, Alive: true}
	}
	for i := 0; i < cfg.Workers; i++ {
		sup := &cliutil.Supervisor{
			Argv:        cfg.Argv,
			ExtraEnv:    cfg.ExtraEnv,
			Stderr:      cfg.Stderr,
			MaxRestarts: cfg.WorkerRestarts,
		}
		c.wg.Add(1)
		go c.workerLoop(i, sup)
	}
	return c, nil
}

// Close stops the worker pool and closes the checkpoint log. Exec calls
// still in flight fail with a shutdown error.
func (c *Coordinator) Close() {
	select {
	case <-c.quit:
	default:
		close(c.quit)
	}
	c.wg.Wait()
	c.logMu.Lock()
	defer c.logMu.Unlock()
	c.logFile.Close()
}

// Stats returns a snapshot of the coordinator's counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Key returns the content-addressed identity Exec would use for p — the
// cache-correctness tests compare keys across parameter flips through this.
func (c *Coordinator) Key(p core.Params) string {
	p, ex := splitAttachments(p)
	return PointKey(c.codeHash, p, ex)
}

// splitAttachments strips the process-local collectors from p, returning the
// wire form and the attachment extras the worker should re-attach.
func splitAttachments(p core.Params) (core.Params, Extras) {
	var ex Extras
	if p.Trace != nil {
		ex.TraceSample = p.Trace.SampleEvery()
		p.Trace = nil
	}
	if p.Telemetry != nil {
		ex.Telemetry = true
		ex.TelemetryBucket = p.Telemetry.Bucket()
		p.Telemetry = nil
	}
	return p, ex
}

// Exec satisfies runner.Exec: it serves the point from this sweep's
// checkpoints, then from the cache, and otherwise ships it to a worker —
// checkpointing the result before returning it. Identical inputs yield
// identical results wherever they are computed, so the calling sweep cannot
// tell the difference (beyond wall-clock).
func (c *Coordinator) Exec(p core.Params) (core.Metrics, error) {
	wire, ex := splitAttachments(p)
	key := PointKey(c.codeHash, wire, ex)

	if m, ok := c.results.Get(key); ok {
		c.count(func(s *Stats) { s.Points++; s.CheckpointHits++ })
		c.setPoint(key, "checkpoint-hit")
		c.logEvent(LogEvent{Event: "checkpoint-hit", Key: key})
		return m, nil
	}
	if c.cache != nil {
		if m, ok := c.cache.Get(key); ok {
			// Materialize the hit as a checkpoint so the results directory
			// is the sweep's complete record even on a fully warm cache.
			if err := c.results.Put(key, m); err != nil {
				return core.Metrics{}, err
			}
			c.count(func(s *Stats) { s.Points++; s.CacheHits++ })
			c.setPoint(key, "cache-hit")
			c.logEvent(LogEvent{Event: "cache-hit", Key: key})
			return m, nil
		}
	}

	c.mu.Lock()
	c.nextID++
	id := c.nextID
	c.mu.Unlock()
	c.setPoint(key, "queued")
	pd := &pending{
		job: Job{ID: id, Key: key, Params: wire, TraceSample: ex.TraceSample,
			Telemetry: ex.Telemetry, TelemetryBucket: ex.TelemetryBucket},
		done: make(chan pointResult, 1),
	}
	select {
	case c.jobs <- pd:
	case <-c.quit:
		return core.Metrics{}, errors.New("farm: coordinator closed")
	}
	select {
	case r := <-pd.done:
		if r.err != nil {
			c.count(func(s *Stats) { s.Points++; s.Failures++ })
			c.setPoint(key, "failed")
			c.logEvent(LogEvent{Event: "exec-fail", Key: key})
			return core.Metrics{}, r.err
		}
		if err := c.results.Put(key, r.m); err != nil {
			return core.Metrics{}, err
		}
		if c.cache != nil {
			if err := c.cache.Put(key, r.m); err != nil {
				return core.Metrics{}, err
			}
		}
		c.count(func(s *Stats) { s.Points++; s.Execs++ })
		c.setPoint(key, "done")
		c.logEvent(LogEvent{Event: "exec-done", Key: key})
		return r.m, nil
	case <-c.quit:
		return core.Metrics{}, errors.New("farm: coordinator closed")
	}
}

// workerLoop owns one worker process (through its supervisor): it takes
// queued points, runs the one-job-one-reply conversation, and on any pipe or
// protocol failure kills the worker, requeues the point, and lets the
// supervisor start a replacement — crashing workers cost wall-clock, never
// results.
func (c *Coordinator) workerLoop(id int, sup *cliutil.Supervisor) {
	defer c.wg.Done()
	defer sup.Close()
	var sc *bufio.Scanner // reply scanner for the current worker process
	for {
		select {
		case pd := <-c.jobs:
			if !c.serve(id, sup, &sc, pd) {
				// The supervisor is out of restarts: this worker slot is
				// permanently dead and must stop taking jobs (each would
				// only bounce back to the queue).
				return
			}
		case <-c.quit:
			return
		}
	}
}

// serve runs one point to completion, failure, or requeue. It returns false
// when this worker slot has permanently failed and its loop must exit.
func (c *Coordinator) serve(id int, sup *cliutil.Supervisor, sc **bufio.Scanner, pd *pending) bool {
	for {
		if pd.attempts >= c.cfg.PointAttempts {
			pd.done <- pointResult{err: fmt.Errorf("farm: point %.12s lost %d workers; giving up", pd.job.Key, pd.attempts)}
			return true
		}
		pd.attempts++

		w, err := sup.Proc()
		if err != nil {
			// This worker slot is permanently dead. Hand the point to the
			// remaining workers — unless this was the last one, in which
			// case the whole farm has failed.
			c.mu.Lock()
			c.alive--
			last := c.alive == 0
			c.workers[id].Alive = false
			c.workers[id].Current = ""
			c.mu.Unlock()
			if last {
				pd.done <- pointResult{err: fmt.Errorf("farm: all workers dead: %w", err)}
			} else {
				c.requeue(pd)
			}
			return false
		}
		fresh := sup.Starts() // detect restarts for the stats
		if *sc == nil {
			*sc = NewLineScanner(w.Stdout())
			if fresh > 1 {
				c.count(func(s *Stats) { s.Restarts++ })
				c.setWorker(id, func(ws *WorkerStatus) { ws.Restarts++ })
			}
		}

		c.setPoint(pd.job.Key, "running")
		c.setWorker(id, func(ws *WorkerStatus) { ws.Current = pd.job.Key })
		c.logEvent(LogEvent{Event: "exec-start", Key: pd.job.Key, Worker: id})
		line, err := EncodeJob(pd.job)
		if err != nil {
			pd.done <- pointResult{err: fmt.Errorf("farm: encode job: %w", err)}
			return true
		}
		if err := w.Send(line); err != nil {
			c.workerDied(id, sup, sc, pd)
			continue
		}
		rep, err := c.readReply(*sc, pd.job)
		if err != nil {
			c.workerDied(id, sup, sc, pd)
			continue
		}
		c.setWorker(id, func(ws *WorkerStatus) { ws.Served++; ws.Current = "" })
		if rep.Err != "" {
			// In-band: a deterministic simulation failure. Retrying would
			// reproduce it, so report it as the point's result.
			pd.done <- pointResult{err: errors.New(rep.Err)}
			return true
		}
		pd.done <- pointResult{m: *rep.Metrics}
		return true
	}
}

// workerDied handles a pipe/protocol failure: the worker is discarded (the
// supervisor will start a fresh one within its restart budget) and the point
// is recorded as requeued for another attempt.
func (c *Coordinator) workerDied(id int, sup *cliutil.Supervisor, sc **bufio.Scanner, pd *pending) {
	sup.Fail()
	*sc = nil
	c.count(func(s *Stats) { s.Requeues++ })
	c.setWorker(id, func(ws *WorkerStatus) { ws.Current = "" })
	c.setPoint(pd.job.Key, "queued")
	c.logEvent(LogEvent{Event: "requeue", Key: pd.job.Key, Worker: id})
}

// readReply reads the worker's next reply for job. The worker serves jobs
// strictly in order, so the next well-formed reply must carry this job's ID
// and key; anything else means the stream is corrupt and the worker must be
// replaced.
func (c *Coordinator) readReply(sc *bufio.Scanner, job Job) (Reply, error) {
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return Reply{}, err
		}
		return Reply{}, io.ErrUnexpectedEOF
	}
	rep, err := DecodeReply(sc.Bytes())
	if err != nil {
		return Reply{}, err
	}
	if rep.ID != job.ID || rep.Key != job.Key {
		return Reply{}, fmt.Errorf("farm: reply for %d/%.12s while waiting on %d/%.12s",
			rep.ID, rep.Key, job.ID, job.Key)
	}
	return rep, nil
}

// requeue reinserts a point into the job queue without blocking the caller's
// worker loop (the queue is unbuffered; a blocked send here while every
// other loop waits on the same queue would wedge the farm).
func (c *Coordinator) requeue(pd *pending) {
	go func() {
		select {
		case c.jobs <- pd:
		case <-c.quit:
		}
	}()
}

// count updates the stats under the coordinator lock.
func (c *Coordinator) count(f func(*Stats)) {
	c.mu.Lock()
	f(&c.stats)
	c.mu.Unlock()
}

// logEvent appends one line to the checkpoint log. Each line is rendered in
// full and written with a single Write under the log lock, so concurrent
// points never interleave mid-line; O_APPEND makes the write atomic with
// respect to a coordinator killed mid-sweep (readers tolerate one torn final
// line).
func (c *Coordinator) logEvent(e LogEvent) {
	b, err := json.Marshal(e)
	if err != nil {
		return
	}
	c.logMu.Lock()
	defer c.logMu.Unlock()
	c.logFile.Write(append(b, '\n'))
}

// ReadLog parses a checkpoint log, tolerating a torn final line (a
// coordinator killed mid-write). Used by the resume machinery's tests and
// the CI smoke job to audit what a sweep actually executed.
func ReadLog(path string) ([]LogEvent, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var evs []LogEvent
	sc := NewLineScanner(f)
	for sc.Scan() {
		var e LogEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			continue // torn tail from a killed writer
		}
		evs = append(evs, e)
	}
	return evs, sc.Err()
}
