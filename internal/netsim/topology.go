package netsim

import "dclue/internal/sim"

// Well-known endpoint addresses. Server nodes are 0..N-1.
const (
	AddrClientCloud Addr = 1000 // aggregate TPC-C client population
	AddrExtraClient Addr = 2000 // cross-traffic (FTP) client
	AddrExtraServer Addr = 2001 // cross-traffic (FTP) server
)

// NodeAddr returns the fabric address of server node i.
func NodeAddr(i int) Addr { return Addr(i) }

// TopologyConfig describes the Fig 1 network: LATAs of server nodes behind
// inner routers, joined by an outer router where clients home in.
type TopologyConfig struct {
	NodesPerLata []int // length = number of LATAs

	NodeLinkBps  float64 // server <-> inner router
	InterLataBps float64 // inner router <-> outer router
	ClientBps    float64 // client cloud <-> outer router

	NodeProp  sim.Time // propagation on server links
	InterProp sim.Time // base propagation on inter-LATA links

	// ExtraInterLataLatency is the Fig 12/13 knob: the added one-way delay,
	// split half per inter-LATA hop exactly as in §3.3 ("each of the two
	// interlata links includes one-half of the additional latency").
	ExtraInterLataLatency sim.Time

	InnerFwdRate float64 // inner router forwarding rate, pkt/s
	OuterFwdRate float64 // outer router forwarding rate, pkt/s
	FwdLatency   sim.Time

	WithExtraHosts bool // attach the FTP cross-traffic endpoints

	// PortSetup, when non-nil, is applied to every router port queue as it
	// is created (the QoS ablation switches it to WFQ).
	PortSetup func(*Qdisc)
}

// Topology is the built fabric with handles the experiments need.
type Topology struct {
	Net    *Network
	Inner  []*Router
	Outer  *Router
	Config TopologyConfig

	// interLataLinks are the four directed links between inner routers and
	// the outer router (two per LATA), used for utilization reporting.
	interLataLinks []*Link

	// nodeLinks[i] is server node i's access link pair {uplink (NIC to
	// inner router), downlink (inner router to NIC)}; clientLinks is the
	// same pair for the client cloud at the outer router. Kept so the fault
	// injector can target a specific node or the client path.
	nodeLinks   [][2]*Link
	clientLinks [2]*Link

	totalNodes int
}

// LataOfNode returns which LATA node i lives in.
func (t *Topology) LataOfNode(i int) int {
	for l, n := range t.Config.NodesPerLata {
		if i < n {
			return l
		}
		i -= n
	}
	panic("netsim: node index out of range")
}

// TotalNodes returns the number of server nodes.
func (t *Topology) TotalNodes() int { return t.totalNodes }

// InterLataUtilization returns the max utilization across inter-LATA links.
func (t *Topology) InterLataUtilization() float64 {
	u := 0.0
	for _, l := range t.interLataLinks {
		if v := l.Utilization(); v > u {
			u = v
		}
	}
	return u
}

// BuildTopology wires the network per cfg and returns the topology.
func BuildTopology(s *sim.Sim, cfg TopologyConfig) *Topology {
	n := New(s)
	if cfg.PortSetup != nil {
		n.portSetup = cfg.PortSetup
	}
	t := &Topology{Net: n, Config: cfg}

	t.Outer = NewRouter(n, "outer", cfg.OuterFwdRate, cfg.FwdLatency)

	interProp := cfg.InterProp + cfg.ExtraInterLataLatency/2

	node := 0
	for l, count := range cfg.NodesPerLata {
		inner := NewRouter(n, "inner", cfg.InnerFwdRate, cfg.FwdLatency)
		t.Inner = append(t.Inner, inner)

		// Uplink pair between inner and outer routers.
		up := inner.AddPort(cfg.InterLataBps, interProp, DefaultQdiscConfig(), t.Outer)
		inner.DefaultRoute(up)
		down := t.Outer.AddPort(cfg.InterLataBps, interProp, DefaultQdiscConfig(), inner)
		t.interLataLinks = append(t.interLataLinks, inner.PortLink(up), t.Outer.PortLink(down))

		// Server nodes in this LATA.
		for i := 0; i < count; i++ {
			addr := NodeAddr(node)
			nic := n.NIC(addr)
			back := nic.Attach(inner, cfg.NodeLinkBps, cfg.NodeProp)
			t.nodeLinks = append(t.nodeLinks, [2]*Link{nic.Link(), inner.PortLink(back)})
			// Outer router reaches this node via this LATA's downlink.
			t.Outer.Route(addr, down)
			node++
		}

		// Cross-traffic endpoints per Fig 1: extra client in the first
		// LATA, extra server in the last, so their flows cross the
		// inter-LATA links.
		if cfg.WithExtraHosts {
			if l == 0 {
				nic := n.NIC(AddrExtraClient)
				nic.Attach(inner, cfg.NodeLinkBps, cfg.NodeProp)
				t.Outer.Route(AddrExtraClient, down)
			}
			if l == len(cfg.NodesPerLata)-1 {
				nic := n.NIC(AddrExtraServer)
				nic.Attach(inner, cfg.NodeLinkBps, cfg.NodeProp)
				t.Outer.Route(AddrExtraServer, down)
			}
		}
	}
	t.totalNodes = node

	// Client cloud homes in at the outer router.
	clientNIC := n.NIC(AddrClientCloud)
	clientBack := clientNIC.Attach(t.Outer, cfg.ClientBps, cfg.NodeProp)
	t.clientLinks = [2]*Link{clientNIC.Link(), t.Outer.PortLink(clientBack)}

	return t
}

// NodeLinks returns server node i's access link pair: the uplink from the
// node's NIC to its inner router and the downlink back.
func (t *Topology) NodeLinks(i int) (up, down *Link) {
	if i < 0 || i >= len(t.nodeLinks) {
		panic("netsim: NodeLinks index out of range")
	}
	return t.nodeLinks[i][0], t.nodeLinks[i][1]
}

// InterLataLinkPair returns LATA l's trunk pair: the uplink from its inner
// router to the outer router and the downlink back.
func (t *Topology) InterLataLinkPair(l int) (up, down *Link) {
	if l < 0 || 2*l+1 >= len(t.interLataLinks) {
		panic("netsim: InterLataLinkPair index out of range")
	}
	return t.interLataLinks[2*l], t.interLataLinks[2*l+1]
}

// ClientLinks returns the client cloud's access link pair at the outer
// router (uplink from the clients, downlink back to them).
func (t *Topology) ClientLinks() (up, down *Link) {
	return t.clientLinks[0], t.clientLinks[1]
}
