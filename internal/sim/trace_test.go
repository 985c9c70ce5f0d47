package sim

import (
	"strings"
	"testing"
)

func TestCountingTracer(t *testing.T) {
	s := New()
	tr := NewCountingTracer()
	s.SetTracer(tr)
	s.Spawn("worker", func(p *Proc) {
		p.Sleep(10 * Millisecond)
	})
	s.Spawn("forever", func(p *Proc) {
		for {
			p.Sleep(Second)
		}
	})
	s.Run(100 * Millisecond)
	s.Shutdown()
	if tr.Events == 0 {
		t.Fatal("no events traced")
	}
	if tr.Starts["worker"] != 1 || tr.Ends["worker"] != 1 {
		t.Fatalf("worker starts=%d ends=%d", tr.Starts["worker"], tr.Ends["worker"])
	}
	if tr.Kills["worker"] != 0 {
		t.Fatal("completed worker marked killed")
	}
	if tr.Kills["forever"] != 1 {
		t.Fatalf("shutdown kill not traced: %v", tr.Kills)
	}
}

func TestWriterTracer(t *testing.T) {
	s := New()
	var b strings.Builder
	s.SetTracer(&WriterTracer{W: &b, ProcsOnly: true})
	s.Spawn("p1", func(p *Proc) { p.Sleep(Millisecond) })
	s.RunAll()
	out := b.String()
	if !strings.Contains(out, "start p1") || !strings.Contains(out, "end p1") {
		t.Fatalf("trace output:\n%s", out)
	}
	if strings.Contains(out, "event #") {
		t.Fatal("ProcsOnly leaked event lines")
	}
}

func TestWriterTracerEventLines(t *testing.T) {
	s := New()
	var b strings.Builder
	s.SetTracer(&WriterTracer{W: &b})
	s.At(5*Millisecond, func() {})
	s.Spawn("p1", func(p *Proc) { p.Sleep(Millisecond) })
	s.RunAll()
	out := b.String()
	if !strings.Contains(out, "event #") {
		t.Fatalf("no event lines without ProcsOnly:\n%s", out)
	}
	// Event lines carry the simulated timestamp in sim.Time's format.
	if !strings.Contains(out, (5*Millisecond).String()+" event #") {
		t.Fatalf("event line missing formatted timestamp:\n%s", out)
	}
	if !strings.Contains(out, "start p1") || !strings.Contains(out, "end p1") {
		t.Fatalf("proc lines missing alongside event lines:\n%s", out)
	}
}

func TestWriterTracerKilledSuffix(t *testing.T) {
	s := New()
	var b strings.Builder
	s.SetTracer(&WriterTracer{W: &b, ProcsOnly: true})
	s.Spawn("loop", func(p *Proc) {
		for {
			p.Sleep(Second)
		}
	})
	s.Run(10 * Millisecond)
	s.Shutdown()
	out := b.String()
	if !strings.Contains(out, "end loop (killed)") {
		t.Fatalf("kill suffix missing:\n%s", out)
	}
}

func TestTracerRemoval(t *testing.T) {
	s := New()
	tr := NewCountingTracer()
	s.SetTracer(tr)
	s.At(1, func() {})
	s.SetTracer(nil)
	s.At(2, func() {})
	s.RunAll()
	if tr.Events != 0 {
		// Both events ran after removal check? The first fires with tracer on.
		if tr.Events != 1 {
			t.Fatalf("events traced %d", tr.Events)
		}
	}
}
