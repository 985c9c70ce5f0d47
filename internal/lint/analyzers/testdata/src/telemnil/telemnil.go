// Fixture for the obsnil analyzer: telemetry-handle calls must be
// guarded — untelemetered runs carry nil handles on the hot path.
package telemnil

import "telemetry"

type params struct {
	Telemetry *telemetry.Collector
}

type link struct {
	tel *telemetry.LinkTel
}

type cluster struct {
	reg *telemetry.Registry
}

func build(p params) *cluster {
	c := &cluster{}
	c.reg = p.Telemetry.NewRegistry("run") // want `call to \(p\.Telemetry\)\.NewRegistry on a possibly-nil telemetry handle`
	return c
}

func buildGuarded(p params) *cluster {
	c := &cluster{}
	if p.Telemetry != nil {
		c.reg = p.Telemetry.NewRegistry("run") // guarded: no diagnostic
	}
	return c
}

func (l *link) serDone(from, to int64) {
	l.tel.OnTransmit(from, to) // want `call to \(l\.tel\)\.OnTransmit on a possibly-nil telemetry handle`
}

func (l *link) serDoneGuarded(from, to int64) {
	if l.tel == nil {
		return
	}
	l.tel.OnTransmit(from, to) // early-exit guard: no diagnostic
}

func (l *link) serDoneInline(from, to int64) {
	if l.tel != nil {
		l.tel.OnTransmit(from, to) // guarded: no diagnostic
	}
}

func hookAll(c *cluster) {
	var lt *telemetry.LinkTel
	if c.reg != nil {
		lt = c.reg.NewLink("node0.up")
	}
	lt.OnTransmit(0, 1) // want `call to \(lt\)\.OnTransmit on a possibly-nil telemetry handle`
	if lt != nil {
		lt.OnTransmit(0, 1) // guarded: no diagnostic
	}
}

// Constructor results and collection elements are live handles.
func constructorsAndCollections() {
	col := telemetry.NewCollector(0)
	reg := col.NewRegistry("x")
	lt := reg.NewLink("up")
	lt.OnTransmit(0, 1)
	for _, r := range col.Registries() {
		r.NewLink("down")
	}
	col.Registries()[0].NewLink("again")
}

// A closure created inside a guarded region inherits the guard.
func closureInherits(l *link) func() {
	if l.tel != nil {
		return func() { l.tel.OnTransmit(0, 1) }
	}
	return func() {}
}

func suppressed(l *link) {
	//lint:allow obsnil the caller attaches the instrument before any event fires
	l.tel.OnTransmit(0, 1)
}
