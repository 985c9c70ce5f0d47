// Package disk models the per-node I/O subsystem: data drives with
// seek/rotation/transfer service times and elevator (SCAN) scheduling, and
// dedicated log drives doing sequential writes. The paper gives each node
// separate disks for normal I/O and logging, with the elevator applied per
// table and lazy data writes (§2.3).
package disk

import (
	"math"
	"sort"

	"dclue/internal/rng"
	"dclue/internal/sim"
	"dclue/internal/telemetry"
)

// Params describes a drive. Values are for the scaled system (the paper
// slows seek, rotation, and transfer by its scale factor).
type Params struct {
	MinSeek      sim.Time // track-to-track
	MaxSeek      sim.Time // full stroke
	RotationTime sim.Time // full revolution
	TransferRate float64  // bytes/s off the platter
	Span         int64    // addressable block span used to scale seeks
}

// DefaultParams returns a 10K-RPM-class drive at the given scale factor.
func DefaultParams(scale float64) Params {
	return Params{
		MinSeek:      sim.Time(0.5 * scale * float64(sim.Millisecond)),
		MaxSeek:      sim.Time(8 * scale * float64(sim.Millisecond)),
		RotationTime: sim.Time(6 * scale * float64(sim.Millisecond)),
		TransferRate: 60e6 / scale,
		Span:         1 << 22,
	}
}

// Request is one I/O operation.
type Request struct {
	Table int   // table id, the elevator's major key
	Block int64 // block number within the table
	Size  int   // bytes
	Write bool
	Done  func() // invoked in kernel context on completion

	// Failed is set (before Done runs) when an injected fault made the
	// operation fail after consuming its service time; callers retry or
	// surface an error.
	Failed bool
}

// Drive is a single disk with SCAN scheduling (FIFO available for
// ablations).
type Drive struct {
	sim    *sim.Sim
	params Params
	rnd    *rng.Stream
	fifo   bool

	queue []*Request
	busy  bool
	head  int64 // current head position (linearized key)
	dirUp bool

	// Fault-injection state: latFactor multiplies every service time
	// (latency spike; 1 = healthy), errProb fails requests with the given
	// probability after full service (transient I/O error).
	latFactor float64
	errProb   float64

	// Statistics.
	FaultErrors    uint64 // requests failed by injected faults
	Reads, Writes  uint64
	BytesRead      uint64
	BytesWritten   uint64
	busyTime       sim.Time
	lastStart      sim.Time
	queueSum       uint64
	queueSamples   uint64
	totalLatency   sim.Time
	completedTotal uint64

	// tel, when set, records every service interval. Nil on untelemetered
	// runs (the fast path).
	tel *telemetry.DiskTel
}

// SetTelemetry attaches a per-spindle utilization instrument (nil detaches).
func (d *Drive) SetTelemetry(t *telemetry.DiskTel) { d.tel = t }

// NewDrive creates an idle drive.
func NewDrive(s *sim.Sim, params Params, rnd *rng.Stream) *Drive {
	return &Drive{sim: s, params: params, rnd: rnd, latFactor: 1}
}

// SetLatencyFactor sets the fault-injection multiplier on every service
// time (1 restores healthy latency).
func (d *Drive) SetLatencyFactor(f float64) {
	if f < 1 {
		f = 1
	}
	d.latFactor = f
}

// SetErrorProb sets the per-request failure probability (0 disables). A
// failing request consumes its full service time, then completes with
// Failed set — a transient medium/controller error the caller must retry.
func (d *Drive) SetErrorProb(p float64) { d.errProb = p }

// key linearizes (table, block) for head-movement purposes: tables are laid
// out as consecutive extents, so the per-table elevator of the paper falls
// out of SCAN over this key.
func (d *Drive) key(r *Request) int64 {
	return int64(r.Table)<<40 | (r.Block & ((1 << 40) - 1))
}

// SetFIFO disables the elevator: requests are served in arrival order (the
// ablation baseline the paper's per-table elevator improves on).
func (d *Drive) SetFIFO(on bool) { d.fifo = on }

// Submit queues a request; Done fires when it completes.
func (d *Drive) Submit(r *Request) {
	d.queue = append(d.queue, r)
	d.queueSum += uint64(len(d.queue))
	d.queueSamples++
	d.pump()
}

// Access is the blocking form of Submit for process context. It reports
// whether the operation succeeded (false = transient injected I/O error).
func (d *Drive) Access(p *sim.Proc, table int, block int64, size int, write bool) bool {
	done := p.Waiter()
	r := &Request{Table: table, Block: block, Size: size, Write: write,
		Done: func() { done.Deliver(nil) }}
	d.Submit(r)
	p.Await(-1)
	return !r.Failed
}

// pump starts service if idle.
func (d *Drive) pump() {
	if d.busy || len(d.queue) == 0 {
		return
	}
	d.busy = true
	r := d.takeNext()
	svc := d.serviceTime(r)
	if d.errProb > 0 && d.rnd.Float64() < d.errProb {
		r.Failed = true
	}
	start := d.sim.Now()
	d.lastStart = start
	d.sim.After(svc, func() {
		d.busyTime += d.sim.Now() - d.lastStart
		d.tel.OnIO(d.lastStart, d.sim.Now(), r.Write)
		if r.Failed {
			d.FaultErrors++
		} else if r.Write {
			d.Writes++
			d.BytesWritten += uint64(r.Size)
		} else {
			d.Reads++
			d.BytesRead += uint64(r.Size)
		}
		d.completedTotal++
		d.totalLatency += svc
		d.head = d.key(r)
		d.busy = false
		if r.Done != nil {
			r.Done()
		}
		d.pump()
	})
}

// takeNext applies SCAN: continue in the current direction to the nearest
// request; reverse at the end of the sweep.
func (d *Drive) takeNext() *Request {
	if d.fifo {
		r := d.queue[0]
		d.queue = d.queue[1:]
		return r
	}
	best := -1
	var bestDist int64
	for pass := 0; pass < 2; pass++ {
		for i, r := range d.queue {
			k := d.key(r)
			var dist int64
			if d.dirUp {
				dist = k - d.head
			} else {
				dist = d.head - k
			}
			if dist < 0 {
				continue
			}
			if best == -1 || dist < bestDist ||
				(dist == bestDist && d.key(d.queue[best]) > k) {
				best = i
				bestDist = dist
			}
		}
		if best >= 0 {
			break
		}
		d.dirUp = !d.dirUp // end of sweep: reverse
	}
	if best < 0 {
		// All requests at the head position in both directions? Take FIFO.
		best = 0
	}
	r := d.queue[best]
	d.queue = append(d.queue[:best], d.queue[best+1:]...)
	return r
}

// serviceTime computes seek + rotation + transfer for a request.
func (d *Drive) serviceTime(r *Request) sim.Time {
	k := d.key(r)
	dist := k - d.head
	if dist < 0 {
		dist = -dist
	}
	var seek sim.Time
	if dist > 0 {
		frac := float64(dist) / float64(d.params.Span)
		if frac > 1 {
			frac = 1
		}
		seek = d.params.MinSeek + sim.Time(float64(d.params.MaxSeek-d.params.MinSeek)*math.Sqrt(frac))
	}
	rot := sim.Time(d.rnd.Float64() * float64(d.params.RotationTime))
	xfer := sim.Time(float64(r.Size) / d.params.TransferRate * float64(sim.Second))
	return sim.Time(d.latFactor * float64(seek+rot+xfer))
}

// Utilization returns busy fraction since simulation start.
func (d *Drive) Utilization() float64 {
	now := d.sim.Now()
	if now == 0 {
		return 0
	}
	b := d.busyTime
	if d.busy {
		b += now - d.lastStart
	}
	return float64(b) / float64(now)
}

// MeanServiceTime returns the mean per-request service time.
func (d *Drive) MeanServiceTime() sim.Time {
	if d.completedTotal == 0 {
		return 0
	}
	return d.totalLatency / sim.Time(d.completedTotal)
}

// QueueLen returns the current queue depth.
func (d *Drive) QueueLen() int { return len(d.queue) }

// LogDisk models the dedicated, strictly sequential log device: no seeks,
// a fixed per-write overhead plus transfer. Commits block on it, so its
// latency is on the transaction critical path.
type LogDisk struct {
	sim      *sim.Sim
	overhead sim.Time
	rate     float64

	queue      []logReq
	busy       bool
	batchLimit int

	Writes       uint64
	BytesWritten uint64
	Reads        uint64
	BytesRead    uint64
	busyTime     sim.Time
	lastStart    sim.Time

	// tel, when set, records every batch service interval. Nil on
	// untelemetered runs (the fast path).
	tel *telemetry.DiskTel
}

// SetTelemetry attaches a utilization instrument (nil detaches). Batches
// count as writes (reads only appear during recovery log scans).
func (l *LogDisk) SetTelemetry(t *telemetry.DiskTel) { l.tel = t }

type logReq struct {
	size int
	read bool
	done func()
}

// NewLogDisk creates a log device with the given per-write overhead and
// transfer rate.
func NewLogDisk(s *sim.Sim, overhead sim.Time, rate float64) *LogDisk {
	return &LogDisk{sim: s, overhead: overhead, rate: rate, batchLimit: DefaultLogBatch}
}

// SetBatchLimit adjusts the group-commit depth (1 disables batching).
func (l *LogDisk) SetBatchLimit(n int) {
	if n < 1 {
		n = 1
	}
	l.batchLimit = n
}

// DefaultLogDisk returns a log device at the given scale factor: 0.4 ms
// unscaled overhead (controller + sequential positioning) and 80 MB/s.
func DefaultLogDisk(s *sim.Sim, scale float64) *LogDisk {
	return NewLogDisk(s, sim.Time(0.4*scale*float64(sim.Millisecond)), 80e6/scale)
}

// Submit queues a log write.
func (l *LogDisk) Submit(size int, done func()) {
	l.queue = append(l.queue, logReq{size: size, done: done})
	l.pump()
}

// SubmitRead queues a sequential log read (crash recovery scans the redo
// log back off the shared device at the same overhead + transfer cost).
func (l *LogDisk) SubmitRead(size int, done func()) {
	l.queue = append(l.queue, logReq{size: size, read: true, done: done})
	l.pump()
}

// Write blocks the calling process until the log write is durable.
func (l *LogDisk) Write(p *sim.Proc, size int) {
	durable := p.Waiter()
	l.Submit(size, func() { durable.Deliver(nil) })
	p.Await(-1)
}

// Read blocks the calling process until size bytes of log have been
// scanned off the device.
func (l *LogDisk) Read(p *sim.Proc, size int) {
	scanned := p.Waiter()
	l.SubmitRead(size, func() { scanned.Deliver(nil) })
	p.Await(-1)
}

// DefaultLogBatch bounds group commit to the device's queue depth; beyond
// it the log device saturates, which is what makes centralized logging a
// real bottleneck at scale (Fig 9).
const DefaultLogBatch = 4

// pump services the queue with group commit: requests queued when the
// device frees are folded (up to maxLogBatch) into one sequential write —
// one overhead, summed transfer — and complete together.
func (l *LogDisk) pump() {
	if l.busy || len(l.queue) == 0 {
		return
	}
	l.busy = true
	n := len(l.queue)
	if n > l.batchLimit {
		n = l.batchLimit
	}
	batch := l.queue[:n:n]
	l.queue = l.queue[n:]
	total := 0
	for _, r := range batch {
		total += r.size
	}
	svc := l.overhead + sim.Time(float64(total)/l.rate*float64(sim.Second))
	l.lastStart = l.sim.Now()
	l.sim.After(svc, func() {
		l.busyTime += l.sim.Now() - l.lastStart
		l.tel.OnIO(l.lastStart, l.sim.Now(), !batch[0].read)
		for _, r := range batch {
			if r.read {
				l.Reads++
				l.BytesRead += uint64(r.size)
			} else {
				l.Writes++
				l.BytesWritten += uint64(r.size)
			}
		}
		l.busy = false
		for _, r := range batch {
			if r.done != nil {
				r.done()
			}
		}
		l.pump()
	})
}

// Utilization returns busy fraction since simulation start.
func (l *LogDisk) Utilization() float64 {
	now := l.sim.Now()
	if now == 0 {
		return 0
	}
	b := l.busyTime
	if l.busy {
		b += now - l.lastStart
	}
	return float64(b) / float64(now)
}

// QueueLen returns pending log writes.
func (l *LogDisk) QueueLen() int { return len(l.queue) }

// SortRequestsByKey is a test helper exposing elevator ordering: it returns
// the order in which the given (table, block) pairs would be linearized.
func SortRequestsByKey(reqs []*Request) []*Request {
	d := &Drive{}
	out := append([]*Request(nil), reqs...)
	sort.Slice(out, func(i, j int) bool { return d.key(out[i]) < d.key(out[j]) })
	return out
}
