package telemetry

import (
	"strings"
	"testing"

	"dclue/internal/sim"
)

func TestLinkTelExactAttribution(t *testing.T) {
	col := NewCollector(0)
	reg := col.NewRegistry("run")
	l := reg.NewLink("l0")
	// Odd, boundary-hostile slices: per-class busy must sum to the exact
	// integer total because each slice goes to exactly one class.
	var total sim.Time
	slices := []struct {
		cls  Class
		from sim.Time
		d    sim.Time
	}{
		{ClassIPC, 0, 7}, {ClassISCSI, 7, 13}, {ClassIPC, 100, 1},
		{ClassFTP, 101, 999}, {ClassHeartbeat, 5000, 3}, {ClassClient, 5003, 42},
		{ClassOther, 6000, 11},
	}
	for _, s := range slices {
		l.OnTransmit(s.cls, s.from, s.from+s.d, 100)
		total += s.d
	}
	if l.BusyTotal() != total {
		t.Fatalf("BusyTotal %d != sum of slices %d", l.BusyTotal(), total)
	}
	if l.Busy[ClassIPC] != 8 || l.Pkts[ClassIPC] != 2 || l.Bytes[ClassIPC] != 200 {
		t.Fatalf("per-class accounting wrong: busy=%d pkts=%d bytes=%d",
			l.Busy[ClassIPC], l.Pkts[ClassIPC], l.Bytes[ClassIPC])
	}
	// Out-of-range class falls back to Other instead of corrupting memory.
	l.OnTransmit(Class(250), 7000, 7001, 1)
	if l.Busy[ClassOther] != 12 {
		t.Fatalf("overflow class not folded into other: %d", l.Busy[ClassOther])
	}
}

func TestRegistryTimelinesFollowBucket(t *testing.T) {
	for _, bucket := range []sim.Time{0, sim.Second} {
		col := NewCollector(bucket)
		reg := col.NewRegistry("r")
		l := reg.NewLink("l")
		q := reg.NewQueue("q")
		c := reg.NewCPU("c")
		d := reg.NewDisk("d")
		g := reg.NewGCS("g")
		want := bucket > 0
		got := l.Timeline(ClassIPC) != nil && q.Timeline() != nil &&
			c.Timeline(false) != nil && c.Timeline(true) != nil &&
			d.Timeline() != nil && g.CtlTimeline() != nil && g.DataTimeline() != nil &&
			g.WaitTimeline() != nil
		if got != want {
			t.Fatalf("bucket=%d: timelines present=%v, want %v", bucket, got, want)
		}
		// Hooks must be safe in both configurations.
		l.OnTransmit(ClassISCSI, 0, sim.Second/2, 1500)
		q.OnDepth(10, 3000)
		q.OnDepth(20, 0)
		c.OnBusy(false, 0, 5)
		c.OnBusy(true, 5, 9)
		d.OnIO(0, 3, true)
		g.OnCtlMsg(1)
		g.OnDataMsg(2)
		g.OnLockWait(3, 9)
		reg.RecordPhase("recovery", "fence", 0, sim.Second)
	}
}

func TestCollectorExportsOnlySealedSortedByLabel(t *testing.T) {
	col := NewCollector(sim.Second)
	rb := col.NewRegistry("b-run")
	ra := col.NewRegistry("a-run")
	rb.NewLink("lb").OnTransmit(ClassIPC, 0, 10, 64)
	ra.NewLink("la").OnTransmit(ClassISCSI, 0, 10, 64)

	var buf strings.Builder
	if err := col.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("unsealed registries exported: %q", buf.String())
	}

	col.Seal(rb)
	col.Seal(ra)
	buf.Reset()
	if err := col.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	ia, ib := strings.Index(out, `"a-run"`), strings.Index(out, `"b-run"`)
	if ia < 0 || ib < 0 || ia > ib {
		t.Fatalf("export not sorted by label (a at %d, b at %d):\n%s", ia, ib, out)
	}
	if !strings.Contains(out, `"kind":"link"`) {
		t.Fatalf("no link scalar record:\n%s", out)
	}

	buf.Reset()
	if err := col.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	prom := buf.String()
	for _, want := range []string{
		"# TYPE dclue_link_busy_seconds counter",
		`dclue_link_busy_seconds{run="a-run",link="la",class="iscsi"}`,
		`dclue_link_busy_seconds{run="b-run",link="lb",class="ipc"}`,
	} {
		if !strings.Contains(prom, want) {
			t.Fatalf("prometheus export missing %q:\n%s", want, prom)
		}
	}
}

func TestQueueTelOccupancy(t *testing.T) {
	col := NewCollector(10)
	q := col.NewRegistry("r").NewQueue("q")
	q.OnDepth(0, 100)
	q.OnDepth(10, 0) // 100 bytes held for 10 units
	if q.Occ.Max() != 100 {
		t.Fatalf("max %v, want 100", q.Occ.Max())
	}
	// Byte-seconds timeline: bucket 0 integrated 100 bytes * 10 units.
	want := 100 * sim.Time(10).Seconds()
	if got := q.Timeline().Value(0); got != want {
		t.Fatalf("bucket 0 byte-seconds %v, want %v", got, want)
	}
}

// TestNilHooks calls every per-event hook on a typed-nil instrument, as an
// unobserved run does at each hook site: none may panic or allocate.
func TestNilHooks(t *testing.T) {
	var (
		l *LinkTel
		q *QueueTel
		c *CPUTel
		d *DiskTel
		g *GCSTel
	)
	hooks := []struct {
		name string
		call func()
	}{
		{"LinkTel.OnTransmit", func() { l.OnTransmit(ClassIPC, 1, 2, 64) }},
		{"QueueTel.OnDepth", func() { q.OnDepth(1, 64) }},
		{"CPUTel.OnBusy", func() { c.OnBusy(true, 1, 2) }},
		{"DiskTel.OnIO", func() { d.OnIO(1, 2, false) }},
		{"GCSTel.OnCtlMsg", func() { g.OnCtlMsg(1) }},
		{"GCSTel.OnDataMsg", func() { g.OnDataMsg(1) }},
		{"GCSTel.OnLockWait", func() { g.OnLockWait(1, 2) }},
	}
	for _, h := range hooks {
		t.Run(h.name, func(t *testing.T) {
			if n := testing.AllocsPerRun(100, h.call); n != 0 {
				t.Errorf("%s on a nil instrument allocates %v times per call", h.name, n)
			}
		})
	}
}
