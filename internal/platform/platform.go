// Package platform models the server node hardware and OS behaviour the
// paper calibrates in §2.3: a dual-processor node executing work expressed
// as path lengths (instruction counts), with
//
//   - a CPI model: core CPI plus memory stalls, where stalls follow from
//     misses-per-instruction × memory latency × a blocking factor, and the
//     memory latency includes a bus/memory-channel queueing term;
//   - a thread model: context-switch cost that rises steeply once the
//     aggregate working set of active threads overflows the processor
//     cache (calibrated to the paper's published 17.7 K cycles at ~20
//     active threads and 69.7 K cycles at ~75);
//   - interrupt-priority protocol work, so message receives interrupt
//     application processing as in DCLUE.
package platform

import (
	"math"

	"dclue/internal/sim"
	"dclue/internal/stats"
	"dclue/internal/telemetry"
	"dclue/internal/trace"
)

// Config sets the node hardware parameters. All values are expressed for
// the scaled system (the paper divides clock rates by its scale factor and
// multiplies latencies by it; see core.Params).
type Config struct {
	NumCPUs int     // processors per node (paper: 2)
	ClockHz float64 // effective core clock

	BaseCPI float64 // CPI with no memory stalls

	// Memory system.
	MPI            float64  // cache misses per instruction at baseline
	MissBytes      float64  // bytes moved per miss (cache line)
	MemBandwidth   float64  // bytes/s across bus + memory channels
	MemLatency     sim.Time // unloaded memory access latency
	QueueFactor    float64  // weight of the rho/(1-rho) queueing term
	BlockingFactor float64  // fraction of miss latency that stalls retirement

	// Stall scaling with remote work: the paper notes projecting MPI as a
	// function of affinity is heuristic; this linear factor scales the MPI
	// by (1 + RemoteMPIFactor * remoteFraction) where remoteFraction is the
	// fraction of work touching non-home data (set via SetRemoteFraction).
	RemoteMPIFactor float64

	// Thread/cache-pressure model. Pressure(n) = 1 - exp(-(n-CacheFitThreads)
	// * PressureDecay) for n above CacheFitThreads, else 0.
	CacheFitThreads float64
	PressureDecay   float64
	CtxSwitchBase   float64 // cycles per dispatch with a warm cache
	CtxRefillMax    float64 // extra cycles per dispatch at full pressure
	ThrashMPIFactor float64 // MPI multiplier slope with pressure

	StatTick sim.Time // cadence for the instruction-rate / CPI update
}

// DefaultConfig returns the baseline P4 DP node of §3.1 at the given scale
// factor (clock divided, latencies multiplied). The calibration constants
// reproduce the paper's anchors; see the package comment and DESIGN.md.
func DefaultConfig(scale float64) Config {
	return Config{
		NumCPUs: 2,
		ClockHz: 3.2e9 / scale,
		BaseCPI: 0.8,

		MPI:            0.0135,
		MissBytes:      64,
		MemBandwidth:   4.3e9 / scale,
		MemLatency:     sim.Time(150 * scale), // 150 ns unscaled
		QueueFactor:    0.4,
		BlockingFactor: 0.35,

		RemoteMPIFactor: 15.7,

		// Derived from the published context-switch anchors:
		// cost(20)=17.7K and cost(75)=69.7K cycles with base 5K and max
		// refill 80K solve to fit~13.6 threads and decay 0.027.
		CacheFitThreads: 13.6,
		PressureDecay:   0.027,
		CtxSwitchBase:   5000,
		CtxRefillMax:    80000,
		// Matches the published CPI rise 11.5 -> 16.9 as active threads go
		// 20 -> 75.
		ThrashMPIFactor: 0.888,

		StatTick: sim.Time(5 * scale * float64(sim.Millisecond) / 100),
	}
}

// CPU is one node's processor complex.
type CPU struct {
	sim    *sim.Sim
	cfg    Config
	res    *sim.Resource
	tickFn func() // prebuilt stats tick, re-armed every StatTick

	remoteFraction float64
	cachedCPI      float64
	slowFactor     float64 // fault-injection multiplier on service time (1 = healthy)

	instrSinceTick float64
	instrRate      float64 // EWMA instructions/s (node-wide)

	// Interrupt work: a FIFO of pending tasks served by NumCPUs
	// continuation-style "interrupt channels" (no goroutines — each channel
	// is a tiny state machine driven by kernel callbacks; see irqService).
	irqQ     sim.Queue[irqTask]
	services []*irqService
	dead     bool // set by Stop (node crash): drop all further interrupt work

	// Statistics.
	activeThreads stats.TimeWeighted
	instrTotal    float64
	ctxSwitches   uint64
	ctxCycles     float64
	dispatches    uint64
	irqWork       float64 // instructions of interrupt work

	// tel, when set, records every thread and interrupt busy interval. Nil
	// on untelemetered runs (the fast path).
	tel *telemetry.CPUTel
}

// SetTelemetry attaches a busy-interval instrument (nil detaches).
func (c *CPU) SetTelemetry(t *telemetry.CPUTel) { c.tel = t }

// irqTask is one unit of interrupt work, completed by fn(arg). Hot callers
// (the TCP stack) pass a prebuilt continuation plus argument instead of
// allocating a closure per segment; Process passes runDone and its done
// func, which a func value in an any carries without allocating.
type irqTask struct {
	pathLen float64
	fn      func(any)
	arg     any
}

// runDone completes a Process task: arg is its done func.
func runDone(arg any) { arg.(func())() }

// irqService is one interrupt channel: the continuation analogue of the old
// goroutine-backed irq server. Its three prebuilt callbacks (start → grant →
// finish) mirror, event for event, the park/wake sequence of the goroutine
// version — schedule order and simulated times are identical, only the
// goroutine switches per task are gone.
type irqService struct {
	cpu    *CPU
	task   irqTask
	busy   bool
	ev     sim.EventID // pending completion event, cancelled on Stop
	start  func()
	grant  func()
	finish func()
}

// NewCPU creates the processor complex and arms its stats tick.
func NewCPU(s *sim.Sim, cfg Config) *CPU {
	c := &CPU{
		sim:        s,
		cfg:        cfg,
		res:        sim.NewResource(s, cfg.NumCPUs),
		slowFactor: 1,
	}
	c.cachedCPI = c.computeCPI()
	// Interrupt channels: one per processor so protocol work can use the
	// whole complex, at priority over application threads.
	for i := 0; i < cfg.NumCPUs; i++ {
		svc := &irqService{cpu: c}
		svc.start = func() { svc.doStart() }
		svc.grant = func() { svc.doGrant() }
		svc.finish = func() { svc.doFinish() }
		c.services = append(c.services, svc)
	}
	// The first tick is armed from an event at the current instant rather
	// than directly: that keeps every event's (time, seq), and so every
	// pinned fingerprint, unchanged.
	c.tickFn = c.tick
	s.After(0, func() {
		if !c.dead {
			s.After(cfg.StatTick, c.tickFn)
		}
	})
	return c
}

// Stop tears down the interrupt machinery on node crash: pending completion
// events are cancelled (their done callbacks never run — the work died with
// the node), queued tasks are dropped, and later Process calls no-op. The
// pending stats tick fires as a no-op and does not re-arm. Kernel context.
func (c *CPU) Stop() {
	c.dead = true
	c.irqQ.Clear()
	for _, svc := range c.services {
		c.sim.Cancel(svc.ev)
		svc.task = irqTask{}
		svc.busy = false
	}
}

// SetRemoteFraction updates the fraction of work on non-home data, which
// scales the miss rate (the paper's affinity-MPI heuristic).
func (c *CPU) SetRemoteFraction(f float64) {
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	c.remoteFraction = f
	c.cachedCPI = c.computeCPI()
}

// pressure returns the cache-pressure term in [0,1) for n active threads.
func (c *CPU) pressure(n float64) float64 {
	over := n - c.cfg.CacheFitThreads
	if over <= 0 {
		return 0
	}
	return 1 - math.Exp(-over*c.cfg.PressureDecay)
}

// ctxSwitchCycles returns the dispatch cost at the current thread pressure.
func (c *CPU) ctxSwitchCycles() float64 {
	p := c.pressure(c.activeThreads.Value())
	return c.cfg.CtxSwitchBase + c.cfg.CtxRefillMax*p
}

// computeCPI evaluates the CPI model at current pressure, remote fraction,
// and measured memory traffic.
func (c *CPU) computeCPI() float64 {
	cfg := c.cfg
	p := c.pressure(c.activeThreads.Value())
	mpi := cfg.MPI * (1 + cfg.RemoteMPIFactor*c.remoteFraction) * (1 + cfg.ThrashMPIFactor*p)
	// Bus/memory-channel queueing. The remote-work term is excluded from
	// the traffic estimate: those extra stalls come largely from copy and
	// coherence activity whose latency the RemoteMPIFactor already prices,
	// and folding them into bus occupancy double-counts the penalty (the
	// paper notes the low realized throughput at low affinity keeps the
	// bus from saturating).
	busMPI := cfg.MPI * (1 + cfg.ThrashMPIFactor*p)
	traffic := c.instrRate * busMPI * cfg.MissBytes
	rho := traffic / cfg.MemBandwidth
	if rho > 0.9 {
		rho = 0.9
	}
	latency := float64(cfg.MemLatency) / float64(sim.Second) * (1 + cfg.QueueFactor*rho/(1-rho))
	latencyCycles := latency * cfg.ClockHz
	return cfg.BaseCPI + mpi*latencyCycles*cfg.BlockingFactor
}

// CPI returns the current effective cycles-per-instruction.
func (c *CPU) CPI() float64 { return c.cachedCPI }

// tick refreshes the instruction-rate estimate and cached CPI, then re-arms
// itself for the next StatTick. A stopped CPU's tick does neither.
func (c *CPU) tick() {
	if c.dead {
		return
	}
	rate := c.instrSinceTick / c.cfg.StatTick.Seconds()
	c.instrSinceTick = 0
	c.instrRate = 0.5*c.instrRate + 0.5*rate
	c.cachedCPI = c.computeCPI()
	c.sim.After(c.cfg.StatTick, c.tickFn)
}

// SetSlowFactor sets the fault-injection slowdown multiplier on all CPU
// service times (1 restores healthy speed). A very large factor models a
// frozen node: work queues but barely progresses until the factor resets.
func (c *CPU) SetSlowFactor(f float64) {
	if f < 1 {
		f = 1
	}
	c.slowFactor = f
}

// SlowFactor returns the current fault slowdown multiplier.
func (c *CPU) SlowFactor() float64 { return c.slowFactor }

// duration converts a path length to busy time at the current CPI.
func (c *CPU) duration(pathLen float64) sim.Time {
	cycles := pathLen * c.cachedCPI
	return sim.Time(c.slowFactor * cycles / c.cfg.ClockHz * float64(sim.Second))
}

// Execute runs pathLen instructions on a CPU without a dispatch charge
// (the thread is already hot). Blocks the calling process for queueing plus
// service time.
func (c *CPU) Execute(p *sim.Proc, pathLen float64) {
	c.runOn(p, pathLen, 0)
}

// Dispatch runs pathLen instructions, paying a context-switch first. Model
// code calls this for the first burst after a thread blocks (on a lock,
// I/O, or IPC) as in the paper's thread-switching model.
func (c *CPU) Dispatch(p *sim.Proc, pathLen float64) {
	cycles := c.ctxSwitchCycles()
	c.ctxSwitches++
	c.ctxCycles += cycles
	c.runOn(p, pathLen, cycles)
}

// runOn performs the actual CPU occupancy. The CPU phase spans queueing for
// a processor plus service time, i.e. everything between the thread becoming
// runnable and it blocking again.
func (c *CPU) runOn(p *sim.Proc, pathLen, extraCycles float64) {
	trace.Enter(p, trace.PhaseCPU)
	now := p.Now()
	c.activeThreads.Add(now, 1)
	c.dispatches++
	c.res.Acquire(p)
	d := c.duration(pathLen) + sim.Time(c.slowFactor*extraCycles/c.cfg.ClockHz*float64(sim.Second))
	c.tel.OnBusy(false, p.Now(), p.Now()+d)
	p.Sleep(d)
	c.res.Release()
	c.instrSinceTick += pathLen
	c.instrTotal += pathLen
	c.activeThreads.Add(p.Now(), -1)
	trace.Exit(p)
}

// Process implements tcp.Processor (and serves iSCSI, interrupt and other
// protocol work): pathLen instructions at interrupt priority; done runs in
// kernel context on completion. Callable from kernel or process context.
func (c *CPU) Process(pathLen float64, done func()) {
	c.submit(irqTask{pathLen: pathLen, fn: runDone, arg: done})
}

// ProcessArg implements tcp.Processor: like Process but completion is
// fn(arg), letting per-segment callers reuse one prebuilt continuation
// instead of allocating a closure for every task.
func (c *CPU) ProcessArg(pathLen float64, fn func(any), arg any) {
	c.submit(irqTask{pathLen: pathLen, fn: fn, arg: arg})
}

// submit hands a task to an idle interrupt channel (through the calendar,
// exactly where the old mailbox dispatch scheduled the server wake-up) or
// queues it FIFO when all channels are busy.
func (c *CPU) submit(t irqTask) {
	if c.dead {
		return // crashed node: interrupt work dies with it
	}
	for _, svc := range c.services {
		if !svc.busy {
			svc.busy = true
			svc.task = t
			c.sim.After(0, svc.start)
			return
		}
	}
	c.irqQ.Push(t)
}

// doStart begins serving the assigned task: claim a processor ahead of
// queued threads, continuing in doGrant once one is held.
func (svc *irqService) doStart() {
	c := svc.cpu
	if c.dead {
		return
	}
	c.res.AcquireFunc(svc.grant)
}

// doGrant runs with a processor held: occupy it for the task's service time.
func (svc *irqService) doGrant() {
	c := svc.cpu
	if c.dead {
		c.res.Release() // hand the server back; the work died with the node
		return
	}
	d := c.duration(svc.task.pathLen)
	now := c.sim.Now()
	c.tel.OnBusy(true, now, now+d)
	svc.ev = c.sim.After(d, svc.finish)
}

// doFinish completes the task: release the processor, account the work, run
// the completion, then pull the next queued task (if any) on this channel.
func (svc *irqService) doFinish() {
	c := svc.cpu
	c.res.Release()
	task := svc.task
	svc.task = irqTask{}
	c.instrSinceTick += task.pathLen
	c.instrTotal += task.pathLen
	c.irqWork += task.pathLen
	task.fn(task.arg)
	if c.dead {
		svc.busy = false
		return
	}
	if c.irqQ.Len() > 0 {
		svc.task = c.irqQ.Pop()
		c.res.AcquireFunc(svc.grant)
		return
	}
	svc.busy = false
}

// Utilization returns mean busy processors / capacity.
func (c *CPU) Utilization() float64 { return c.res.Utilization() }

// ActiveThreads returns the time-averaged number of runnable threads.
func (c *CPU) ActiveThreads(now sim.Time) float64 { return c.activeThreads.Mean(now) }

// ActiveThreadsNow returns the instantaneous runnable thread count.
func (c *CPU) ActiveThreadsNow() float64 { return c.activeThreads.Value() }

// MeanCtxSwitchCycles returns the average dispatch cost so far.
func (c *CPU) MeanCtxSwitchCycles() float64 {
	if c.ctxSwitches == 0 {
		return 0
	}
	return c.ctxCycles / float64(c.ctxSwitches)
}

// InstrTotal returns total instructions executed (threads + interrupts).
func (c *CPU) InstrTotal() float64 { return c.instrTotal }

// IRQInstr returns instructions executed as interrupt work.
func (c *CPU) IRQInstr() float64 { return c.irqWork }

// ResetStats clears accumulated statistics (after warm-up).
func (c *CPU) ResetStats(now sim.Time) {
	c.res.ResetUsage()
	c.instrTotal = 0
	c.ctxSwitches = 0
	c.ctxCycles = 0
	c.dispatches = 0
	c.irqWork = 0
	c.activeThreads.ResetAt(now)
}
