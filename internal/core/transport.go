package core

import (
	"dclue/internal/db"
	"dclue/internal/iscsi"
	"dclue/internal/netsim"
	"dclue/internal/tcp"
	"dclue/internal/telemetry"
)

// heartbeat is a membership heartbeat on the IPC connection: a small real
// packet, so failure-detection latency is a property of the fabric (load,
// loss, RTO dynamics), not a constant. GCS messages ride the same
// connection as bare db.Msg values; the connection names the sender.
type heartbeat struct{}

// hbBytes is the heartbeat wire size.
const hbBytes = 64

// ipcTransport implements db.Transport over the per-pair IPC connections.
type ipcTransport struct {
	cluster *Cluster
	self    int
	conns   [db.MaxNodes]*tcp.Conn // indexed by peer node
}

// Send ships a GCS message to node `to` over the IPC connection. All DBMS
// traffic is best-effort (§3.4); QoS experiments prioritize the cross
// traffic, never the DBMS.
func (t *ipcTransport) Send(to int, m db.Msg, size int) {
	if to == t.self {
		// Local shortcut (can happen for the central log node).
		self := t.self
		t.cluster.Sim.After(0, func() {
			t.cluster.nodes[self].dbn.GCS.HandleMessage(self, m)
		})
		return
	}
	conn := t.conns[to]
	if conn == nil {
		panic("core: IPC send before mesh established")
	}
	conn.Enqueue(m, size)
}

// sendHeartbeat ships one membership heartbeat. Unlike Send it tolerates a
// missing or torn-down connection (Enqueue on a closed connection is a
// no-op): heartbeats to an unreachable peer simply stop arriving, which is
// exactly the signal the lease monitor consumes.
func (t *ipcTransport) sendHeartbeat(to int) {
	if conn := t.conns[to]; conn != nil {
		// Heartbeats ride the IPC connection but attribute as their own
		// traffic class, so telemetry can separate liveness chatter from
		// cache-fusion messaging on the same wire.
		conn.EnqueueTC(heartbeat{}, hbBytes, telemetry.ClassHeartbeat)
	}
}

// abortPeer tears down the connection to a fenced peer locally: queued and
// in-flight segments are abandoned instead of retransmitting into a dead
// link for the rest of the run. The slot keeps the stale pointer (Enqueue on
// it no-ops) until the peer rejoins and a fresh dial replaces it.
func (t *ipcTransport) abortPeer(peer int) {
	if conn := t.conns[peer]; conn != nil {
		conn.Abort()
	}
}

// bindIPC wires an established dialer-side IPC connection into both ends'
// transports.
func (c *Cluster) bindIPC(i, j int, conn *tcp.Conn) {
	c.nodes[i].transport.conns[j] = conn
	c.hookIPC(i, j, conn)
	// The acceptor side hooks its direction in acceptIPC; conn here is the
	// dialer's endpoint only.
}

// acceptIPC registers the acceptor-side endpoint of an IPC connection.
func (c *Cluster) acceptIPC(self int, conn *tcp.Conn) {
	peer := int(conn.Remote())
	c.nodes[self].transport.conns[peer] = conn
	c.hookIPC(self, peer, conn)
}

// hookIPC delivers the messages node self receives from peer on conn: GCS
// messages to the node's GCS and heartbeats to its membership service. The
// node's engine is resolved at delivery time, not hook time: after a
// crash-restart the same connection-accept closures must reach the rebuilt
// engine, not a dead one.
func (c *Cluster) hookIPC(self, peer int, conn *tcp.Conn) {
	conn.SetOnMessage(func(m tcp.Message) {
		switch msg := m.Meta.(type) {
		case heartbeat:
			if c.rec != nil {
				c.rec.observeHeartbeat(self, peer)
			}
		case db.Msg:
			c.nodes[self].dbn.GCS.HandleMessage(peer, msg)
		}
	})
}

// bindISCSI wires the dialer side of the per-pair storage connection:
// node i's initiator targets j, and i's target serves j's commands arriving
// on the same connection.
func (c *Cluster) bindISCSI(i, j int, conn *tcp.Conn) {
	c.nodes[i].initiator.RegisterConn(j, conn)
	iscsi.Demux(conn, c.nodes[i].target, c.nodes[i].initiator)
}

// acceptISCSI wires the acceptor side.
func (c *Cluster) acceptISCSI(self int, conn *tcp.Conn) {
	peer := int(conn.Remote())
	c.nodes[self].initiator.RegisterConn(peer, conn)
	iscsi.Demux(conn, c.nodes[self].target, c.nodes[self].initiator)
}

// nodeAddrOf is a tiny helper for readability elsewhere.
func nodeAddrOf(i int) netsim.Addr { return netsim.NodeAddr(i) }
