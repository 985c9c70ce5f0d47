package core

import (
	"fmt"

	"dclue/internal/db"
	"dclue/internal/disk"
	"dclue/internal/faults"
	"dclue/internal/iscsi"
	"dclue/internal/netsim"
	"dclue/internal/platform"
	"dclue/internal/recovery"
	"dclue/internal/sim"
	"dclue/internal/tcp"
	"dclue/internal/telemetry"
)

// This file is the cluster's crash-recovery coordinator: it wires the
// membership service (internal/recovery) and the GCS's node-local fencing
// and remastering surgery (internal/db) into the full protocol — detect,
// fence, remaster, replay, reopen, and later re-admit. It exists only when
// the fault schedule contains crash/restart events; fault-free runs carry
// none of its calendar events and stay event-for-event identical to builds
// without it.
//
// Protocol summary. When a node's heartbeats go silent past the lease, the
// lowest-id survivor (the deterministic coordinator) drives:
//
//	FENCE     every survivor expels the dead node from directory and lock
//	          state, aborts its connections, and closes a gate that fails
//	          requests for the dead partition fast instead of timing out.
//	REMASTER  the coordinator becomes surrogate master for the dead
//	          partition and rebuilds its directory from survivors' reported
//	          holdings.
//	REPLAY    the buddy node (next live id — its dual-ported enclosure
//	          reaches the dead node's disks) scans the redo log written
//	          since the last checkpoint; the coordinator then re-applies the
//	          dirty blocks the crash lost, reading and writing through the
//	          failover I/O route.
//	OPEN      survivors lift their gates; the partition serves again under
//	          surrogate mastering and failover I/O.
//
// A restart boots a fresh engine on the surviving hardware (cold cache, new
// CPU), re-dials the mesh, and asks the coordinator to re-admit it: the
// surrogate hands the directory back, survivors clear fences and failover
// routes, and the joiner warms its cache before taking load.

// nodeCtl adapts one cluster node to the fault injector's crash/restart
// control.
type nodeCtl struct {
	c   *Cluster
	idx int
}

func (nc *nodeCtl) Crash()   { nc.c.crashNode(nc.idx) }
func (nc *nodeCtl) Restart() { nc.c.restartNode(nc.idx) }

var _ faults.NodeController = (*nodeCtl)(nil)

// recState is the cluster-wide recovery bookkeeping. Its counters are
// cumulative from t=0 and are deliberately not reset at the warmup boundary:
// a recovery straddling the boundary must still be reported whole.
type recState struct {
	c *Cluster

	// svc is each node's membership service; nil while that node is down.
	svc []*recovery.Service

	// closed[observer][home] is observer's gate: true fails observer's
	// requests for blocks homed at home fast (fence-to-reopen window).
	closed [][]bool

	down       []bool // crashed and not yet re-admitted
	recovering []bool // fence-to-reopen in progress

	crashAt   []sim.Time
	suspectAt []sim.Time
	restartAt []sim.Time

	// Crash ground truth, captured at the instant of death: the dirty owned
	// blocks and unreplayed redo bytes a real log scan would discover.
	snapDirty [][]db.BlockID
	snapRedo  []int64

	// waiters collects multi-message recovery replies (acks, holdings
	// batches, replay chunks). Unlike the GCS's request table, waking a
	// waiter does not consume it — streams send many messages to one id.
	nextWait uint64
	waiters  map[uint64]*sim.Mailbox

	// Metrics.
	crashes, restarts     uint64
	recovered, readmitted uint64
	detectSum             sim.Time // crash -> coordinator suspicion
	recTimeSum            sim.Time // suspicion -> partition reopened
	unavailSum            sim.Time // crash -> partition reopened
	readmitSum            sim.Time // restart -> re-admission complete
	clientRetries         uint64   // terminal dials redirected off a dead node
	remasterHoldings      uint64
	replayBytes           int64
	replayBlocks          uint64
	warmupFetches         uint64
}

// newRecState arms the recovery subsystem (fault schedule contains
// crash/restart). Per-node hooks attach as each engine is built.
func newRecState(c *Cluster) *recState {
	n := c.P.Nodes
	r := &recState{
		c:          c,
		svc:        make([]*recovery.Service, n),
		closed:     make([][]bool, n),
		down:       make([]bool, n),
		recovering: make([]bool, n),
		crashAt:    make([]sim.Time, n),
		suspectAt:  make([]sim.Time, n),
		restartAt:  make([]sim.Time, n),
		snapDirty:  make([][]db.BlockID, n),
		snapRedo:   make([]int64, n),
		waiters:    make(map[uint64]*sim.Mailbox),
	}
	for i := range r.closed {
		r.closed[i] = make([]bool, n)
	}
	return r
}

// wireNode installs the per-node recovery hooks on a freshly attached
// engine (initial build and restart rebuild).
func (r *recState) wireNode(n *node) {
	i := n.idx
	n.dbn.GCS.Gate = func(home int) bool { return !r.closed[i][home] }
	n.dbn.GCS.OnClusterMsg = func(from int, m db.Msg) { r.handle(i, from, m) }
}

// observeHeartbeat feeds an arriving heartbeat to the receiver's membership
// service.
func (r *recState) observeHeartbeat(self, from int) {
	if sv := r.svc[self]; sv != nil {
		sv.Observe(from)
	}
}

// startMembership boots node i's membership service (cluster setup, and
// again after the node rejoins).
func (r *recState) startMembership(i int) {
	c := r.c
	sv := recovery.NewService(c.Sim, i, c.P.Nodes, c.P.heartbeat(), c.P.suspectAfter(),
		recovery.Hooks{
			Spawn: func(name string, fn func(*sim.Proc)) *sim.Proc {
				return c.spawnOn(i, fmt.Sprintf("%s-%d", name, i), fn)
			},
			// Resolved at send time: the transport is rebuilt on restart.
			SendHeartbeat: func(to int) { c.nodes[i].transport.sendHeartbeat(to) },
			OnSuspect:     func(peer int, silent sim.Time) { r.onSuspect(i, peer) },
		})
	for j := 0; j < c.P.Nodes; j++ {
		if r.down[j] {
			sv.SetState(j, recovery.StateDown)
		}
	}
	r.svc[i] = sv
	sv.Start()
}

// startCheckpoints runs node i's dirty-page checkpoint loop, which bounds
// how much redo log a crash forces recovery to replay.
func (r *recState) startCheckpoints(i int) {
	c := r.c
	interval := c.P.checkpointInterval()
	c.spawnOn(i, fmt.Sprintf("checkpoint-%d", i), func(p *sim.Proc) {
		for {
			p.Sleep(interval)
			c.nodes[i].dbn.GCS.Checkpoint()
		}
	})
}

// crashNode kills node i: links drop, every process dies, connections are
// abandoned (a dead host sends no RSTs), volatile state is lost. Kernel
// context (fault-activation event).
func (c *Cluster) crashNode(i int) {
	r := c.rec
	if r == nil || r.down[i] {
		return
	}
	n := c.nodes[i]
	r.down[i] = true
	r.crashAt[i] = c.Sim.Now()
	r.crashes++
	// Ground truth of what recovery must reconstruct.
	r.snapDirty[i], r.snapRedo[i] = n.dbn.CrashSnapshot()

	up, down := c.Topo.NodeLinks(i)
	up.SetDown(true)
	down.SetDown(true)

	// Tear down the CPU's continuations (its interrupt channels, whose queued
	// and in-flight protocol work dies with the node, and its stats tick),
	// then kill every process the node owns, oldest first (spawn order) so
	// teardown is deterministic.
	n.cpu.Stop()
	var procs []*sim.Proc
	procs = append(procs, n.dbn.Procs()...)
	procs = append(procs, n.tracked...)
	live := procs[:0]
	for _, p := range procs {
		if !p.Done() {
			live = append(live, p)
		}
	}
	sortProcsBySeq(live)
	for _, p := range live {
		c.Sim.Kill(p)
	}
	n.tracked = nil

	// Local TCP teardown only: peers discover the death by silence.
	n.stack.AbortConns()
	r.svc[i] = nil
}

// sortProcsBySeq orders processes by spawn sequence.
func sortProcsBySeq(ps []*sim.Proc) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j].Seq() < ps[j-1].Seq(); j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}

// restartNode boots a fresh engine on node i's surviving hardware (NIC,
// drives, log disk persist; CPU state and caches are lost) and starts the
// rejoin protocol. Kernel context (fault-activation event).
func (c *Cluster) restartNode(i int) {
	r := c.rec
	if r == nil || !r.down[i] {
		return
	}
	n := c.nodes[i]
	r.restartAt[i] = c.Sim.Now()
	r.restarts++

	up, down := c.Topo.NodeLinks(i)
	up.SetDown(false)
	down.SetDown(false)

	n.cpu = platform.NewCPU(c.Sim, platform.DefaultConfig(c.P.Scale))
	n.stack.SetProcessor(n.cpu)
	if c.inj != nil {
		c.inj.RegisterCPU(fmt.Sprintf("node:%d", i), n.cpu)
	}
	c.attachEngine(n, c.frames, c.opCosts)

	c.spawnOn(i, fmt.Sprintf("rejoin-%d", i), func(p *sim.Proc) { r.rejoin(p, i) })
}

// onSuspect reacts to a membership suspicion on node self. Every survivor
// marks a genuinely-crashed peer Down; only the coordinator drives recovery,
// from a spawned process (suspicions fire inside the monitor process, where
// blocking protocol work must not happen).
func (r *recState) onSuspect(self, peer int) {
	c := r.c
	if !r.down[peer] {
		// False suspicion — a slow or lossy fabric, not a crash. The next
		// heartbeat revives the peer via Observe.
		return
	}
	sv := r.svc[self]
	if sv == nil {
		return
	}
	sv.SetState(peer, recovery.StateDown)
	if sv.Coordinator() != self || r.recovering[peer] {
		return
	}
	r.recovering[peer] = true
	r.suspectAt[peer] = c.Sim.Now()
	r.detectSum += c.Sim.Now() - r.crashAt[peer]
	c.spawnOn(self, fmt.Sprintf("recover-%d", peer), func(p *sim.Proc) {
		r.recover(p, self, peer)
	})
}

// recTimeout bounds each wait for recovery-protocol replies: generous
// against fabric congestion, short enough that a second crash mid-recovery
// degrades to recovering with whoever still answers.
func recTimeout(p Params) sim.Time {
	return sim.Time(2 * float64(sim.Second) * p.Scale)
}

// recover drives the fence -> remaster -> replay -> open sequence on the
// coordinator.
func (r *recState) recover(p *sim.Proc, self, dead int) {
	c := r.c
	g := c.nodes[self].dbn.GCS
	tFence := p.Now()

	// FENCE: local first, then every survivor, gathering acks.
	r.fenceLocal(self, dead)
	id, mb := r.newWait()
	want := 0
	for j := range c.nodes {
		if j == self || r.down[j] {
			continue
		}
		g.SendCtl(j, db.MsgFence{ReqID: id, Dead: dead})
		want++
	}
	for got := 0; got < want; {
		v, ok := mb.RecvTimeout(p, recTimeout(c.P))
		if !ok {
			break
		}
		if _, isAck := v.(db.MsgFenceAck); isAck {
			got++
		}
	}
	r.dropWait(id)

	tRemaster := p.Now()

	// REMASTER: become surrogate master and rebuild the dead partition's
	// directory from survivors' holdings (the catalog is shared state, so
	// every node's Master() now routes here).
	c.Cat.SetSurrogate(dead, self)
	for _, h := range g.HoldingsHomedAt(dead) {
		g.RegisterHolding(self, h)
		r.remasterHoldings++
	}
	id, mb = r.newWait()
	want = 0
	for j := range c.nodes {
		if j == self || r.down[j] {
			continue
		}
		g.SendCtl(j, db.MsgRemasterReq{ReqID: id, Dead: dead})
		want++
	}
	for done := 0; done < want; {
		v, ok := mb.RecvTimeout(p, recTimeout(c.P))
		if !ok {
			break
		}
		switch msg := v.(type) {
		case db.MsgRemaster:
			for _, h := range msg.Holdings {
				g.RegisterHolding(msg.From, h)
				r.remasterHoldings++
			}
		case db.MsgRemasterDone:
			done++
		}
	}
	r.dropWait(id)

	tReplay := p.Now()
	r.replay(p, self, dead)

	tOpen := p.Now()
	r.openLocal(self, dead)
	for j := range c.nodes {
		if j == self || r.down[j] {
			continue
		}
		g.SendCtl(j, db.MsgRecoveryOpen{Dead: dead})
	}
	now := p.Now()
	r.recovered++
	r.recTimeSum += now - r.suspectAt[dead]
	r.unavailSum += now - r.crashAt[dead]
	r.recovering[dead] = false
	if reg := c.telReg; reg != nil {
		comp := fmt.Sprintf("recover-%d", dead)
		reg.RecordPhase(comp, "fence", tFence, tRemaster)
		reg.RecordPhase(comp, "remaster", tRemaster, tReplay)
		reg.RecordPhase(comp, "replay", tReplay, tOpen)
		reg.RecordPhase(comp, "open", tOpen, now)
	}
}

// replay performs the log scan and dirty-block reapplication. The scan runs
// on the buddy (whose enclosure reaches the dead node's log disk); the
// block work runs here through the failover I/O route, spread over a small
// worker pool the way a real recovery parallelizes redo.
func (r *recState) replay(p *sim.Proc, self, dead int) {
	c := r.c
	g := c.nodes[self].dbn.GCS
	redo := r.snapRedo[dead]
	buddy := r.buddyOf(dead)
	if redo > 0 {
		if buddy == self {
			// Direct dual-ported access to the log device.
			c.nodes[dead].logDisk.Read(p, int(redo))
		} else {
			id, mb := r.newWait()
			g.SendCtl(buddy, db.MsgReplayReq{ReqID: id, Dead: dead, Bytes: redo})
			for {
				v, ok := mb.RecvTimeout(p, recTimeout(c.P))
				if !ok {
					break
				}
				if ch, isChunk := v.(db.MsgReplayChunk); isChunk && ch.Last {
					break
				}
			}
			r.dropWait(id)
		}
		r.replayBytes += redo
	}

	dirty := r.snapDirty[dead]
	if len(dirty) == 0 {
		return
	}
	workers := 8
	if len(dirty) < workers {
		workers = len(dirty)
	}
	joined := sim.NewMailbox(c.Sim)
	for w := 0; w < workers; w++ {
		w := w
		c.spawnOn(self, fmt.Sprintf("replay-%d-%d", dead, w), func(wp *sim.Proc) {
			n := c.nodes[self]
			for bi := w; bi < len(dirty); bi += workers {
				blk := dirty[bi]
				if n.dbn.Pager.ReadBlock(wp, blk, db.BlockBytes) != nil {
					continue
				}
				// Apply the logged changes to the block image.
				n.cpu.Execute(wp, c.opCosts.RowWrite*4)
				n.dbn.Pager.WriteBack(blk, db.BlockBytes)
				r.replayBlocks++
			}
			joined.Send(w)
		})
	}
	for w := 0; w < workers; w++ {
		joined.Recv(p)
	}
}

// fenceLocal expels dead from node j's state: GCS surgery, connection
// abort, gate closed, failover I/O route installed. The buddy additionally
// exports the dead node's enclosure to the rest of the cluster.
func (r *recState) fenceLocal(j, dead int) {
	if r.closed[j][dead] {
		return
	}
	c := r.c
	r.closed[j][dead] = true
	n := c.nodes[j]
	n.dbn.GCS.FenceNode(dead)
	n.transport.abortPeer(dead)
	buddy := r.buddyOf(dead)
	if buddy == j {
		deadDrives := c.nodes[dead].drives
		n.dbn.Pager.SetFailover(dead, buddy, deadDrives)
		n.target.Export(dead, func(table int) *disk.Drive {
			return deadDrives[table%len(deadDrives)]
		})
	} else {
		n.dbn.Pager.SetFailover(dead, buddy, nil)
	}
	if sv := r.svc[j]; sv != nil {
		sv.SetState(dead, recovery.StateDown)
	}
}

// openLocal lifts node j's gate for the dead partition (surrogate serving).
func (r *recState) openLocal(j, dead int) {
	r.closed[j][dead] = false
}

// clearFenceLocal undoes fenceLocal after the node rejoined.
func (r *recState) clearFenceLocal(j, rejoined int) {
	c := r.c
	r.closed[j][rejoined] = false
	n := c.nodes[j]
	n.dbn.Pager.ClearFailover(rejoined)
	n.target.Unexport(rejoined)
	if sv := r.svc[j]; sv != nil {
		sv.SetState(rejoined, recovery.StateLive)
	}
}

// handle routes recovery-protocol messages arriving at node self's GCS.
// Kernel context (post-dispatch).
func (r *recState) handle(self, from int, m db.Msg) {
	c := r.c
	g := c.nodes[self].dbn.GCS
	switch msg := m.(type) {
	case db.MsgFence:
		r.fenceLocal(self, msg.Dead)
		g.SendCtl(from, db.MsgFenceAck{ReqID: msg.ReqID, From: self})

	case db.MsgRemasterReq:
		hs := g.HoldingsHomedAt(msg.Dead)
		const batch = 256
		for off := 0; off < len(hs); off += batch {
			end := off + batch
			if end > len(hs) {
				end = len(hs)
			}
			b := hs[off:end]
			g.SendData(from, db.MsgRemaster{ReqID: msg.ReqID, From: self, Holdings: b}, len(b)*16)
		}
		g.SendCtl(from, db.MsgRemasterDone{ReqID: msg.ReqID, From: self})

	case db.MsgReplayReq:
		// Buddy side: scan the dead node's log off the dual-ported enclosure
		// and stream it back. Blocking disk reads need a process.
		dead, bytes, reqID := msg.Dead, msg.Bytes, msg.ReqID
		c.spawnOn(self, fmt.Sprintf("logscan-%d", dead), func(p *sim.Proc) {
			const chunk = 64 * 1024
			remaining := bytes
			for remaining > 0 {
				n := chunk
				if remaining < chunk {
					n = int(remaining)
				}
				c.nodes[dead].logDisk.Read(p, n)
				remaining -= int64(n)
				g.SendData(from, db.MsgReplayChunk{ReqID: reqID, Bytes: n, Last: remaining <= 0}, n)
			}
		})

	case db.MsgRecoveryOpen:
		r.openLocal(self, msg.Dead)

	case db.MsgJoinReq:
		node, reqID := msg.Node, msg.ReqID
		c.spawnOn(self, fmt.Sprintf("readmit-%d", node), func(p *sim.Proc) {
			r.readmit(p, self, node, reqID)
		})

	case db.MsgJoinDir:
		g.ImportDir(msg.Entries)

	case db.MsgJoinOK:
		if msg.ReqID != 0 {
			r.wakeWait(msg.ReqID, msg)
			return
		}
		// Survivor broadcast: the node rejoined.
		r.clearFenceLocal(self, msg.Node)

	case db.MsgFenceAck:
		r.wakeWait(msg.ReqID, msg)
	case db.MsgRemaster:
		r.wakeWait(msg.ReqID, msg)
	case db.MsgRemasterDone:
		r.wakeWait(msg.ReqID, msg)
	case db.MsgReplayChunk:
		r.wakeWait(msg.ReqID, msg)
	}
}

// readmit runs on the coordinator (surrogate): hand mastering back to the
// rejoined node, clear cluster-wide fences and failover routes, and confirm.
func (r *recState) readmit(p *sim.Proc, self, node int, reqID uint64) {
	c := r.c
	g := c.nodes[self].dbn.GCS

	// A join request can arrive while the fence-to-reopen of the same node
	// is still in flight (a very fast restart); let it finish first.
	for r.recovering[node] {
		p.Sleep(c.P.heartbeat())
	}

	entries := g.ExportDirHomedAt(node)
	const batch = 128
	for off := 0; off < len(entries); off += batch {
		end := off + batch
		if end > len(entries) {
			end = len(entries)
		}
		b := entries[off:end]
		g.SendData(node, db.MsgJoinDir{ReqID: reqID, Entries: b}, len(b)*32)
	}
	g.DropDirHomedAt(node)
	g.DropLocksHomedAt(node)
	c.Cat.ClearSurrogate(node)
	r.down[node] = false
	r.clearFenceLocal(self, node)
	for j := range c.nodes {
		if j == self || j == node || r.down[j] {
			continue
		}
		g.SendCtl(j, db.MsgJoinOK{ReqID: 0, Node: node})
	}
	g.SendCtl(node, db.MsgJoinOK{ReqID: reqID, Node: node})
	r.readmitted++
	r.readmitSum += p.Now() - r.restartAt[node]
	if reg := c.telReg; reg != nil {
		reg.RecordPhase(fmt.Sprintf("rejoin-%d", node), "readmit", r.restartAt[node], p.Now())
	}
}

// rejoin runs on a restarted node: re-dial the mesh, ask the coordinator
// for re-admission, import the handed-back directory, warm the cache, and
// resume membership and checkpointing.
func (r *recState) rejoin(p *sim.Proc, i int) {
	c := r.c
	opts := tcp.DialOptions{Class: netsim.ClassBestEffort, MaxRetx: 1000, TC: telemetry.ClassIPC}
	stoOpts := opts
	stoOpts.TC = telemetry.ClassISCSI
	for j := 0; j < c.P.Nodes; j++ {
		if j == i || r.down[j] {
			continue
		}
		ipc := tcp.Dial(p, c.nodes[i].stack, netsim.NodeAddr(j), PortIPC, opts)
		if ipc == nil {
			continue // peer died in the meantime; skip it
		}
		c.bindIPC(i, j, ipc)
		sto := tcp.Dial(p, c.nodes[i].stack, netsim.NodeAddr(j), iscsi.Port, stoOpts)
		if sto == nil {
			continue
		}
		c.bindISCSI(i, j, sto)
	}

	coord := -1
	for j := 0; j < c.P.Nodes; j++ {
		if j != i && !r.down[j] {
			coord = j
			break
		}
	}
	if coord >= 0 {
		g := c.nodes[i].dbn.GCS
		id, mb := r.newWait()
		g.SendCtl(coord, db.MsgJoinReq{ReqID: id, Node: i})
		for {
			v, ok := mb.RecvTimeout(p, recTimeout(c.P))
			if !ok {
				// Re-ask: the coordinator may still be mid-recovery.
				g.SendCtl(coord, db.MsgJoinReq{ReqID: id, Node: i})
				continue
			}
			if _, isOK := v.(db.MsgJoinOK); isOK {
				break
			}
		}
		r.dropWait(id)
	} else {
		// No survivors to join: serve immediately.
		r.down[i] = false
	}

	r.warmCache(p, i)
	r.startMembership(i)
	r.startCheckpoints(i)
}

// warmCache fetches the hottest blocks of the joiner's own partition — its
// index leaves — before the node takes full load, bounding the post-rejoin
// cache-miss storm the availability experiments measure.
func (r *recState) warmCache(p *sim.Proc, i int) {
	c := r.c
	const warmupCap = 512
	n := c.nodes[i]
	fetched := 0
	for _, t := range c.Eng.Tables {
		for b := int64(0); b < t.IndexLeafBlocks(); b++ {
			blk := t.IndexLeafBlock(b)
			if c.Cat.Home(blk) != i {
				continue
			}
			if err := n.dbn.GCS.GetBlock(p, blk, false); err != nil {
				continue
			}
			n.dbn.Cache.Unpin(blk)
			r.warmupFetches++
			if fetched++; fetched >= warmupCap {
				return
			}
		}
	}
}

// buddyOf returns the next live node after dead in the ring: the server
// whose dual-ported enclosure connection reaches the dead node's disks.
func (r *recState) buddyOf(dead int) int {
	n := r.c.P.Nodes
	for k := 1; k < n; k++ {
		j := (dead + k) % n
		if !r.down[j] {
			return j
		}
	}
	return dead
}

// failoverTarget redirects a terminal whose preferred server is down to the
// next live node in the ring.
func (r *recState) failoverTarget(pref int) int {
	n := r.c.P.Nodes
	for k := 1; k < n; k++ {
		j := (pref + k) % n
		if !r.down[j] {
			return j
		}
	}
	return pref
}

// newWait registers a recovery wait: a mailbox that collects any number of
// messages routed to its id (unlike GCS requests, which consume on wake).
func (r *recState) newWait() (uint64, *sim.Mailbox) {
	r.nextWait++
	mb := sim.NewMailbox(r.c.Sim)
	r.waiters[r.nextWait] = mb
	return r.nextWait, mb
}

// wakeWait delivers one message to a registered wait (late replies to
// dropped waits are ignored).
func (r *recState) wakeWait(id uint64, v any) {
	if mb, ok := r.waiters[id]; ok {
		mb.Send(v)
	}
}

// dropWait abandons a wait.
func (r *recState) dropWait(id uint64) { delete(r.waiters, id) }
