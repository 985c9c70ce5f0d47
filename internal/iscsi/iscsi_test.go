package iscsi

import (
	"testing"

	"dclue/internal/disk"
	"dclue/internal/netsim"
	"dclue/internal/rng"
	"dclue/internal/sim"
	"dclue/internal/tcp"
)

// rig wires an initiator on node 0 against a target with one drive on
// node 1.
type rig struct {
	s    *sim.Sim
	init *Initiator
	tgt  *Target
	drv  *disk.Drive
	dom  *tcp.Domain
}

func buildRig(t *testing.T, costs CostModel) *rig {
	t.Helper()
	s := sim.New()
	n := netsim.New(s)
	r := netsim.NewRouter(n, "r", 1e6, 0)
	n.NIC(0).Attach(r, 1e9, sim.Microsecond)
	n.NIC(1).Attach(r, 1e9, sim.Microsecond)
	dom := tcp.NewDomain(n, tcp.DefaultConfig(1))
	st0 := dom.NewStack(0, tcp.InstantProcessor{}, tcp.CostModel{})
	st1 := dom.NewStack(1, tcp.InstantProcessor{}, tcp.CostModel{})

	drv := disk.NewDrive(s, disk.DefaultParams(1), rng.New(7))
	tgt := NewTarget(tcp.InstantProcessor{}, costs, func(int) *disk.Drive { return drv })
	st1.Listen(Port, tgt.Attach)

	ini := NewInitiator(tcp.InstantProcessor{}, costs)
	s.Spawn("dial", func(p *sim.Proc) {
		c := tcp.Dial(p, st0, 1, Port, tcp.DialOptions{MaxRetx: 100})
		if c == nil {
			t.Error("iscsi dial failed")
			return
		}
		ini.SetConn(1, c)
	})
	return &rig{s: s, init: ini, tgt: tgt, drv: drv, dom: dom}
}

func TestRemoteRead(t *testing.T) {
	rg := buildRig(t, HWCosts())
	var took sim.Time
	rg.s.Spawn("reader", func(p *sim.Proc) {
		for !rg.init.HasTarget(1) {
			p.Sleep(sim.Millisecond)
		}
		start := p.Now()
		rg.init.Read(p, 1, 3, 42, 8192)
		took = p.Now() - start
	})
	rg.s.Run(5 * sim.Second)
	rg.s.Shutdown()
	if rg.drv.Reads != 1 || rg.drv.BytesRead != 8192 {
		t.Fatalf("drive reads=%d bytes=%d", rg.drv.Reads, rg.drv.BytesRead)
	}
	if rg.tgt.Served != 1 {
		t.Fatalf("target served %d", rg.tgt.Served)
	}
	if took <= 0 {
		t.Fatal("read returned instantly")
	}
}

func TestRemoteWrite(t *testing.T) {
	rg := buildRig(t, HWCosts())
	done := false
	rg.s.Spawn("writer", func(p *sim.Proc) {
		for !rg.init.HasTarget(1) {
			p.Sleep(sim.Millisecond)
		}
		rg.init.Write(p, 1, 2, 7, 8192)
		done = true
	})
	rg.s.Run(5 * sim.Second)
	rg.s.Shutdown()
	if !done {
		t.Fatal("write did not complete")
	}
	if rg.drv.Writes != 1 || rg.drv.BytesWritten != 8192 {
		t.Fatalf("drive writes=%d bytes=%d", rg.drv.Writes, rg.drv.BytesWritten)
	}
}

func TestConcurrentRequestsMatchResponses(t *testing.T) {
	rg := buildRig(t, HWCosts())
	completed := 0
	for i := 0; i < 8; i++ {
		i := i
		rg.s.Spawn("reader", func(p *sim.Proc) {
			for !rg.init.HasTarget(1) {
				p.Sleep(sim.Millisecond)
			}
			rg.init.Read(p, 1, i%3, int64(i*1000), 4096)
			completed++
		})
	}
	rg.s.Run(10 * sim.Second)
	rg.s.Shutdown()
	if completed != 8 {
		t.Fatalf("completed %d of 8", completed)
	}
	if rg.drv.Reads != 8 {
		t.Fatalf("drive reads %d", rg.drv.Reads)
	}
}

func TestSWCostsSlowerThanHW(t *testing.T) {
	// With a CPU that takes real time per instruction, SW iSCSI (CRC over
	// 8KB) must take longer than HW.
	run := func(costs CostModel) sim.Time {
		s := sim.New()
		n := netsim.New(s)
		r := netsim.NewRouter(n, "r", 1e6, 0)
		n.NIC(0).Attach(r, 1e9, sim.Microsecond)
		n.NIC(1).Attach(r, 1e9, sim.Microsecond)
		dom := tcp.NewDomain(n, tcp.DefaultConfig(1))
		st0 := dom.NewStack(0, tcp.InstantProcessor{}, tcp.CostModel{})
		st1 := dom.NewStack(1, tcp.InstantProcessor{}, tcp.CostModel{})
		slow := &cycleProcessor{s: s, hz: 1e8}
		drv := disk.NewDrive(s, disk.DefaultParams(1), rng.New(7))
		tgt := NewTarget(slow, costs, func(int) *disk.Drive { return drv })
		st1.Listen(Port, tgt.Attach)
		ini := NewInitiator(slow, costs)
		var took sim.Time
		s.Spawn("reader", func(p *sim.Proc) {
			c := tcp.Dial(p, st0, 1, Port, tcp.DialOptions{})
			ini.SetConn(1, c)
			start := p.Now()
			ini.Read(p, 1, 0, 0, 8192)
			took = p.Now() - start
		})
		s.Run(10 * sim.Second)
		s.Shutdown()
		return took
	}
	hw := run(HWCosts())
	sw := run(SWCosts())
	if sw <= hw {
		t.Fatalf("SW iSCSI (%v) not slower than HW (%v)", sw, hw)
	}
}

// cycleProcessor models a CPU running pathLen instructions at hz.
type cycleProcessor struct {
	s  *sim.Sim
	hz float64
}

func (c *cycleProcessor) Process(pathLen float64, done func()) {
	c.s.After(sim.Time(pathLen/c.hz*float64(sim.Second)), done)
}

func (c *cycleProcessor) ProcessArg(pathLen float64, fn func(any), arg any) {
	c.Process(pathLen, func() { fn(arg) })
}

// TestDemuxSharedConnection verifies the paper's two-connections-per-pair
// layout: one storage connection carries node A's commands to B's target
// AND B's responses to A's initiator, demuxed by PDU type.
func TestDemuxSharedConnection(t *testing.T) {
	s := sim.New()
	n := netsim.New(s)
	r := netsim.NewRouter(n, "r", 1e6, 0)
	n.NIC(0).Attach(r, 1e9, sim.Microsecond)
	n.NIC(1).Attach(r, 1e9, sim.Microsecond)
	dom := tcp.NewDomain(n, tcp.DefaultConfig(1))
	st0 := dom.NewStack(0, tcp.InstantProcessor{}, tcp.CostModel{})
	st1 := dom.NewStack(1, tcp.InstantProcessor{}, tcp.CostModel{})

	drv0 := disk.NewDrive(s, disk.DefaultParams(1), rng.New(1))
	drv1 := disk.NewDrive(s, disk.DefaultParams(1), rng.New(2))
	tgt0 := NewTarget(tcp.InstantProcessor{}, HWCosts(), func(int) *disk.Drive { return drv0 })
	tgt1 := NewTarget(tcp.InstantProcessor{}, HWCosts(), func(int) *disk.Drive { return drv1 })
	ini0 := NewInitiator(tcp.InstantProcessor{}, HWCosts())
	ini1 := NewInitiator(tcp.InstantProcessor{}, HWCosts())

	st1.Listen(Port, func(conn *tcp.Conn) {
		ini1.RegisterConn(0, conn)
		Demux(conn, tgt1, ini1)
	})
	done0, done1 := false, false
	s.Spawn("a", func(p *sim.Proc) {
		conn := tcp.Dial(p, st0, 1, Port, tcp.DialOptions{})
		ini0.RegisterConn(1, conn)
		Demux(conn, tgt0, ini0)
		// A reads from B's disk...
		ini0.Read(p, 1, 0, 5, 8192)
		done0 = true
	})
	s.Spawn("b", func(p *sim.Proc) {
		for !ini1.HasTarget(0) {
			p.Sleep(sim.Millisecond)
		}
		// ... while B writes to A's disk over the same connection.
		ini1.Write(p, 0, 2, 9, 4096)
		done1 = true
	})
	s.Run(10 * sim.Second)
	s.Shutdown()
	if !done0 || !done1 {
		t.Fatalf("bidirectional shared connection: a=%v b=%v", done0, done1)
	}
	if drv1.Reads != 1 || drv0.Writes != 1 {
		t.Fatalf("drive ops: tgt1 reads=%d tgt0 writes=%d", drv1.Reads, drv0.Writes)
	}
}
