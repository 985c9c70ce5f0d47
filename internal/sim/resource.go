package sim

// Resource is a counted server pool (semaphore) with two FIFO queues:
// queued continuations (AcquireFunc) are served before queued processes
// (Acquire), each in arrival order. platform.CPU serves its interrupt work
// as continuations and its threads as processes with one.
type Resource struct {
	sim      *Sim
	capacity int
	inUse    int
	// Waiters queue only while every server is busy. The rings are reused,
	// so steady-state waits do not allocate.
	fns   Queue[func()]
	procs Queue[*Proc]

	// Utilization accounting.
	busyTime   Time
	lastChange Time
	lastBusy   int
	resetAt    Time
}

// NewResource returns a resource with the given number of servers.
func NewResource(s *Sim, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{sim: s, capacity: capacity}
}

// accountBusy accumulates server-busy time for utilization reporting.
func (r *Resource) accountBusy() {
	now := r.sim.now
	r.busyTime += Time(r.lastBusy) * (now - r.lastChange)
	r.lastChange = now
	r.lastBusy = r.inUse
}

// Utilization returns mean busy servers divided by capacity since the last
// ResetUsage (or simulation start).
func (r *Resource) Utilization() float64 {
	now := r.sim.now
	if now <= r.resetAt {
		return 0
	}
	busy := r.busyTime + Time(r.lastBusy)*(now-r.lastChange)
	return float64(busy) / float64(now-r.resetAt) / float64(r.capacity)
}

// ResetUsage restarts utilization accounting from now (e.g. at the end of a
// warm-up period).
func (r *Resource) ResetUsage() {
	now := r.sim.now
	r.accountBusy()
	r.busyTime = 0
	r.lastChange = now
	r.resetAt = now
}

// take claims a free server if there is one.
func (r *Resource) take() bool {
	if r.inUse == r.capacity {
		return false
	}
	r.accountBusy()
	r.inUse++
	r.lastBusy = r.inUse
	return true
}

// Acquire claims a server, blocking the process until one is handed to it,
// after every continuation and every process that queued before.
func (r *Resource) Acquire(p *Proc) {
	if r.take() {
		return
	}
	r.procs.Push(p)
	p.park()
}

// AcquireFunc is the continuation-style Acquire for callback actors: if a
// server is free fn runs synchronously with the server held; otherwise the
// continuation queues, ahead of every queued process, and runs (via the
// calendar, like a woken process) once a server is handed to it. The caller
// must eventually call Release from fn's continuation chain. Kernel context
// only.
func (r *Resource) AcquireFunc(fn func()) {
	if r.take() {
		fn()
		return
	}
	r.fns.Push(fn)
}

// Release frees a server and, if someone is waiting, hands it over.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: Release on idle resource")
	}
	r.accountBusy()
	if r.fns.Len() > 0 {
		// The server passes directly to the continuation, which runs
		// through the calendar exactly where a woken process would.
		r.sim.After(0, r.fns.Pop())
		return
	}
	for r.procs.Len() > 0 {
		// A process killed while queued is skipped, so the server is not
		// stranded on it.
		if p := r.procs.Pop(); !p.done {
			r.sim.After(0, p.wakeFn)
			return
		}
	}
	r.inUse--
	r.lastBusy = r.inUse
}
