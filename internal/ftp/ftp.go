// Package ftp provides the cross-traffic application of the paper's QoS
// experiments (§3.4): an FTP-like workload with 50% GETs and 50% PUTs, a
// fresh TCP connection per transfer (making it more "stubborn" than the
// static DBMS connections), and file sizes similar to DBMS transfer sizes
// (control-message-sized and block-sized-and-up).
package ftp

import (
	"fmt"

	"dclue/internal/netsim"
	"dclue/internal/rng"
	"dclue/internal/sim"
	"dclue/internal/tcp"
	"dclue/internal/telemetry"
)

// Port is the FTP server listener port.
const Port = 21

// reqGet asks the server to send size bytes; reqPut announces size bytes
// are coming. ack completes a PUT.
type (
	reqGet struct{ size int }
	reqPut struct{ size int }
	ack    struct{}
)

// Server serves GET/PUT transfers.
type Server struct {
	Served uint64
}

// NewServer attaches a server to the stack.
func NewServer(st *tcp.Stack) *Server {
	s := &Server{}
	st.Listen(Port, func(conn *tcp.Conn) {
		var pending int // bytes expected from an in-flight PUT
		conn.SetOnMessage(func(m tcp.Message) {
			switch r := m.Meta.(type) {
			case reqGet:
				conn.Enqueue(ack{}, r.size) // file data
				s.Served++
			case reqPut:
				pending = r.size
			case ack: // PUT payload arrives as a data message with ack meta
				_ = pending
				conn.Enqueue(ack{}, 32)
				s.Served++
			}
		})
	})
	return s
}

// Generator drives Poisson transfer arrivals at a target offered load.
type Generator struct {
	sim    *sim.Sim
	stack  *tcp.Stack
	target netsim.Addr
	class  netsim.Class
	rnd    *rng.Stream

	offeredBps float64

	// Stats.
	Started        uint64
	Completed      uint64
	Failed         uint64
	BytesDelivered uint64
}

// NewGenerator creates an idle generator; call Start.
func NewGenerator(s *sim.Sim, stack *tcp.Stack, target netsim.Addr,
	class netsim.Class, offeredBps float64, seed uint64) *Generator {
	return &Generator{
		sim:        s,
		stack:      stack,
		target:     target,
		class:      class,
		rnd:        rng.Derive(seed, "ftp-gen"),
		offeredBps: offeredBps,
	}
}

// fileSize draws a transfer size similar to DBMS message sizes: 30%
// control-sized (250 B), 70% block-sized and up (8-32 KB).
func (g *Generator) fileSize() int {
	if g.rnd.Bool(0.3) {
		return 250
	}
	return g.rnd.IntRange(8*1024, 32*1024)
}

// meanFileBits is the expectation of fileSize in bits.
func (g *Generator) meanFileBits() float64 {
	return (0.3*250 + 0.7*20*1024) * 8
}

// Start launches the arrival process.
func (g *Generator) Start() {
	if g.offeredBps <= 0 {
		return
	}
	g.sim.Spawn("ftp-arrivals", func(p *sim.Proc) {
		mean := g.meanFileBits() / g.offeredBps // seconds between arrivals
		i := 0
		for {
			p.Sleep(sim.FromSeconds(g.rnd.Exp(mean)))
			i++
			size := g.fileSize()
			get := g.rnd.Bool(0.5)
			g.sim.Spawn(fmt.Sprintf("ftp-%d", i), func(p *sim.Proc) {
				g.transfer(p, size, get)
			})
		}
	})
}

// transfer runs one GET or PUT on its own connection.
func (g *Generator) transfer(p *sim.Proc, size int, get bool) {
	g.Started++
	conn := tcp.Dial(p, g.stack, g.target, Port,
		tcp.DialOptions{Class: g.class, MaxRetx: 50, TC: telemetry.ClassFTP})
	if conn == nil {
		g.Failed++
		return
	}
	reply := p.Waiter()
	conn.SetOnMessage(func(m tcp.Message) { reply.Deliver(m.Size) })
	if get {
		conn.Enqueue(reqGet{size: size}, 64)
	} else {
		conn.Enqueue(reqPut{size: size}, 64)
		conn.Enqueue(ack{}, size) // the file itself
	}
	v, ok := p.Await(300 * sim.Second)
	if !ok || conn.IsReset() {
		g.Failed++
		conn.Close()
		return
	}
	g.Completed++
	if get {
		g.BytesDelivered += uint64(v.(int))
	} else {
		g.BytesDelivered += uint64(size)
	}
	conn.Close()
}

// ResetStats clears counters at the warmup boundary.
func (g *Generator) ResetStats() {
	g.Started, g.Completed, g.Failed, g.BytesDelivered = 0, 0, 0, 0
}
