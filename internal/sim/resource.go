package sim

// Resource is a counted server pool (semaphore) with a priority FIFO queue:
// lower priority values are served first; within a priority, arrivals are
// FIFO. platform.CPU serves its threads and interrupt work with one.
type Resource struct {
	sim      *Sim
	capacity int
	inUse    int
	// queue[head:] are the waiters in service order. The slice is reused:
	// it empties back to its start, and a full one whose first half is
	// served is compacted instead of grown, so steady-state waits do not
	// allocate.
	queue []resWaiter
	head  int

	// Queueing statistics.
	totalWaits    uint64
	totalWaitTime Time
	busyTime      Time
	lastChange    Time
	lastBusy      int
	resetAt       Time
}

type resWaiter struct {
	p       *Proc  // process waiter, or
	fn      func() // continuation waiter (callback actors; see AcquireFunc)
	prio    int
	arrived Time // continuation waiters only; Acquire keeps its own
}

// NewResource returns a resource with the given number of servers.
func NewResource(s *Sim, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{sim: s, capacity: capacity}
}

// Capacity returns the number of servers.
func (r *Resource) Capacity() int { return r.capacity }

// InUse returns the number of busy servers.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of waiting processes.
func (r *Resource) QueueLen() int { return len(r.queue) - r.head }

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
	r.totalWaits = 0
	r.totalWaitTime = 0
}

// MeanWait returns the mean queueing delay over all Acquire calls that had
// to wait at least once, in simulated time. Zero if nothing ever waited.
func (r *Resource) MeanWait() Time {
	if r.totalWaits == 0 {
		return 0
	}
	return r.totalWaitTime / Time(r.totalWaits)
}

// TryAcquire claims a server without blocking, returning false if none is
// free or waiters are queued ahead.
func (r *Resource) TryAcquire() bool {
	if r.inUse < r.capacity && r.QueueLen() == 0 {
		r.accountBusy()
		r.inUse++
		r.lastBusy = r.inUse
		return true
	}
	return false
}

// Acquire claims a server, blocking the process in priority-FIFO order
// until one is free. Lower prio values are served first.
func (r *Resource) Acquire(p *Proc, prio int) {
	if r.inUse < r.capacity && r.QueueLen() == 0 {
		r.accountBusy()
		r.inUse++
		r.lastBusy = r.inUse
		return
	}
	arrived := r.sim.now
	r.enqueue(resWaiter{p: p, prio: prio})
	p.park()
	r.totalWaits++
	r.totalWaitTime += r.sim.now - arrived
}

// AcquireFunc is the continuation-style Acquire for callback actors: if a
// server is free (and nobody is queued ahead) fn runs synchronously with the
// server held; otherwise the continuation waits in the same priority-FIFO
// queue as blocking processes and runs (via the calendar, like a woken
// process) once a server is handed to it. The caller must eventually call
// Release from fn's continuation chain. Kernel context only.
func (r *Resource) AcquireFunc(prio int, fn func()) {
	if r.inUse < r.capacity && r.QueueLen() == 0 {
		r.accountBusy()
		r.inUse++
		r.lastBusy = r.inUse
		fn()
		return
	}
	r.enqueue(resWaiter{fn: fn, prio: prio, arrived: r.sim.now})
}

// enqueue inserts w before the first waiter with a strictly larger prio
// value (priority-FIFO). The queue is sorted by prio, so that is just after
// the last waiter whose prio is not larger, found from the tail: an arrival
// whose prio is no smaller than the last waiter's, the common case, scans
// nothing.
func (r *Resource) enqueue(w resWaiter) {
	if len(r.queue) == cap(r.queue) && r.head > 0 && 2*r.head >= len(r.queue) {
		n := copy(r.queue, r.queue[r.head:])
		clear(r.queue[n:])
		r.queue = r.queue[:n]
		r.head = 0
	}
	i := len(r.queue)
	for i > r.head && r.queue[i-1].prio > w.prio {
		i--
	}
	r.queue = append(r.queue, resWaiter{})
	copy(r.queue[i+1:], r.queue[i:])
	r.queue[i] = w
}

// Release frees a server and, if someone is waiting, hands it over.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: Release on idle resource")
	}
	r.accountBusy()
	for r.head < len(r.queue) {
		w := r.queue[r.head]
		r.queue[r.head] = resWaiter{} // drop the references for the collector
		r.head++
		if r.head == len(r.queue) {
			r.queue = r.queue[:0]
			r.head = 0
		}
		if w.fn != nil {
			// Continuation waiter: the server passes directly to it; the
			// continuation runs through the calendar exactly where a woken
			// process would. Wait accounting happens here (same simulated
			// instant the woken process would record it).
			r.totalWaits++
			r.totalWaitTime += r.sim.now - w.arrived
			r.sim.After(0, w.fn)
			return
		}
		if w.p.done {
			continue // waiter was killed while queued; do not strand the server on it
		}
		// Server passes directly to the waiter; inUse unchanged.
		r.sim.After(0, w.p.wakeFn)
		return
	}
	r.inUse--
	r.lastBusy = r.inUse
}

// Use acquires a server, holds it for d, then releases it: the common
// "occupy a server for a service time" pattern.
func (r *Resource) Use(p *Proc, prio int, d Time) {
	r.Acquire(p, prio)
	p.Sleep(d)
	r.Release()
}
