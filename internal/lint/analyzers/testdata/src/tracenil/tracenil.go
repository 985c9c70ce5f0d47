// Fixture for the obsnil analyzer: trace-handle calls must be guarded.
package tracenil

import "trace"

type params struct {
	Trace *trace.Collector
}

type cluster struct {
	tr *trace.Run
}

func build(p params) *cluster {
	c := &cluster{}
	c.tr = p.Trace.NewRun("run") // want `call to \(p\.Trace\)\.NewRun on a possibly-nil trace handle`
	return c
}

func buildGuarded(p params) *cluster {
	c := &cluster{}
	if p.Trace != nil {
		c.tr = p.Trace.NewRun("run") // guarded: no diagnostic
	}
	return c
}

func (c *cluster) sample(now int64) {
	c.tr.StartSpan(now) // want `call to \(c\.tr\)\.StartSpan on a possibly-nil trace handle`
}

func (c *cluster) sampleGuarded(now int64) *trace.Span {
	if c.tr == nil {
		return nil
	}
	return c.tr.StartSpan(now) // early-exit guard: no diagnostic
}

func (c *cluster) finish(now int64) {
	var sp *trace.Span
	if c.tr != nil {
		sp = c.tr.StartSpan(now)
	}
	sp.Finish(now) // want `call to \(sp\)\.Finish on a possibly-nil trace handle`
	if sp != nil {
		sp.Finish(now) // guarded: no diagnostic
	}
}

// Conjunct guards cover the right-hand side and the body.
func (c *cluster) conjunct() int {
	if c.tr != nil && c.tr.Sampled() > 0 {
		return c.tr.Sampled()
	}
	return 0
}

// Constructor results and collection elements are live handles.
func constructorsAndCollections() int {
	col := trace.NewCollector(1)
	r := col.NewRun("x")
	total := r.Sampled()
	for _, run := range col.Runs() {
		total += run.Sampled()
	}
	total += col.Runs()[0].Sampled()
	return total
}

// A closure created inside a guarded region inherits the guard.
func closureInherits(c *cluster, now int64) func() {
	if c.tr != nil {
		return func() { c.tr.StartSpan(now) }
	}
	return func() {}
}

func suppressed(c *cluster, now int64) {
	//lint:allow obsnil caller holds the collector open for the whole run
	c.tr.StartSpan(now)
}
