package db

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"dclue/internal/rng"
	"dclue/internal/sim"
)

// refDir is a reference for the master-side directory: a heap entry per
// block holding a map of holder nodes, forward state with a map of tried
// suppliers, the supplier rules as min-scans over map keys, and recovery
// steps over sorted keys. It mirrors masterBlockReq, masterFwdFail,
// masterRegisterHolder, masterEvict, FenceNode, RegisterHolding and the
// mastering hand-back, and returns the messages the real master sends.
type refDir struct {
	self    int
	cat     *Catalog
	nextReq uint64
	dir     map[BlockID]*refEntry
	fwd     map[uint64]*refFwd
}

type refEntry struct {
	holders    map[int]bool
	lastWriter int
}

type refFwd struct {
	requester int
	blk       BlockID
	forWrite  bool
	tried     map[int]bool
	reqID     uint64
}

// sent is one message a master sent.
type sent struct {
	to int
	m  Msg
}

func newRefDir(self int, cat *Catalog) *refDir {
	return &refDir{self: self, cat: cat, dir: map[BlockID]*refEntry{}, fwd: map[uint64]*refFwd{}}
}

// writer is the currency-fetch rule: the last writer, if it holds a copy
// and is not the requester.
func (r *refDir) writer(blk BlockID, requester int) int {
	if e := r.dir[blk]; e != nil && e.lastWriter >= 0 && e.lastWriter != requester && e.holders[e.lastWriter] {
		return e.lastWriter
	}
	return -1
}

func (r *refDir) pickSupplier(blk BlockID, requester int) int {
	e := r.dir[blk]
	if e == nil {
		return -1
	}
	if e.lastWriter != requester && e.holders[e.lastWriter] {
		return e.lastWriter
	}
	best := -1
	for h := range e.holders {
		if h == requester {
			continue
		}
		if best < 0 || h < best {
			best = h
		}
	}
	return best
}

func (r *refDir) blockReq(from int, m MsgBlkReq) []sent {
	var supplier int
	if m.HaveCopy {
		supplier = r.writer(m.Blk, from)
	} else {
		supplier = r.pickSupplier(m.Blk, from)
	}
	switch {
	case supplier < 0:
		return []sent{{from, MsgBlkNeg{ReqID: m.ReqID}}}
	case supplier == r.self:
		return []sent{{from, MsgBlkXfer{ReqID: m.ReqID, Blk: m.Blk}}}
	}
	r.nextReq++
	r.fwd[r.nextReq] = &refFwd{requester: from, blk: m.Blk, forWrite: m.ForWrite,
		tried: map[int]bool{supplier: true}, reqID: m.ReqID}
	return []sent{{supplier, MsgBlkFwd{ReqID: r.nextReq, DestReqID: m.ReqID, Blk: m.Blk, Requester: from}}}
}

func (r *refDir) fwdFail(from int, m MsgBlkFwdFail) []sent {
	st, ok := r.fwd[m.ReqID]
	if !ok {
		return nil
	}
	r.evict(st.blk, from)
	e := r.dir[st.blk]
	next := -1
	if e != nil {
		for h := range e.holders {
			if h == st.requester || st.tried[h] {
				continue
			}
			if next < 0 || h < next {
				next = h
			}
		}
	}
	if next < 0 {
		delete(r.fwd, m.ReqID)
		return []sent{{st.requester, MsgBlkNeg{ReqID: st.reqID}}}
	}
	st.tried[next] = true
	if next == r.self {
		delete(r.fwd, m.ReqID)
		return []sent{{st.requester, MsgBlkXfer{ReqID: st.reqID, Blk: st.blk}}}
	}
	return []sent{{next, MsgBlkFwd{ReqID: m.ReqID, DestReqID: st.reqID, Blk: st.blk, Requester: st.requester}}}
}

func (r *refDir) register(blk BlockID, holder int, forWrite bool) []sent {
	var out []sent
	e := r.dir[blk]
	if e == nil {
		e = &refEntry{holders: map[int]bool{}, lastWriter: -1}
		r.dir[blk] = e
	}
	e.holders[holder] = true
	if forWrite && e.lastWriter != holder {
		prev := e.lastWriter
		e.lastWriter = holder
		if prev >= 0 && prev != r.self {
			out = append(out, sent{prev, MsgOwnerRevoke{Blk: blk}})
		}
	}
	for id, st := range r.fwd {
		if st.blk == blk && st.requester == holder {
			delete(r.fwd, id)
		}
	}
	return out
}

func (r *refDir) evict(blk BlockID, holder int) {
	e := r.dir[blk]
	if e == nil {
		return
	}
	delete(e.holders, holder)
	if len(e.holders) == 0 {
		delete(r.dir, blk)
	}
}

func (r *refDir) registerHolding(holder int, h Holding) {
	e := r.dir[h.Blk]
	if e == nil {
		e = &refEntry{holders: map[int]bool{}, lastWriter: -1}
		r.dir[h.Blk] = e
	}
	e.holders[holder] = true
	if h.WriteOwner {
		e.lastWriter = holder
	}
}

func (r *refDir) sortedBlocks(keep func(BlockID) bool) []BlockID {
	var blks []BlockID
	for b := range r.dir {
		if keep(b) {
			blks = append(blks, b)
		}
	}
	sort.Slice(blks, func(i, j int) bool {
		if blks[i].Table != blks[j].Table {
			return blks[i].Table < blks[j].Table
		}
		return blks[i].Block < blks[j].Block
	})
	return blks
}

func (r *refDir) fence(dead int) {
	for _, b := range r.sortedBlocks(func(BlockID) bool { return true }) {
		e := r.dir[b]
		delete(e.holders, dead)
		if e.lastWriter == dead {
			e.lastWriter = -1
		}
		if len(e.holders) == 0 {
			delete(r.dir, b)
		}
	}
	for id, st := range r.fwd {
		if st.requester == dead {
			delete(r.fwd, id)
		}
	}
}

// refExport is one exported entry with its holders sorted.
type refExport struct {
	blk        BlockID
	holders    []int
	lastWriter int
}

func (r *refDir) export(home int) []refExport {
	var out []refExport
	for _, b := range r.sortedBlocks(func(b BlockID) bool { return r.cat.Home(b) == home }) {
		e := r.dir[b]
		out = append(out, refExport{blk: b, holders: sortedHolders(e), lastWriter: e.lastWriter})
	}
	return out
}

func (r *refDir) dropHomedAt(home int) {
	for _, b := range r.sortedBlocks(func(b BlockID) bool { return r.cat.Home(b) == home }) {
		delete(r.dir, b)
	}
}

func (r *refDir) importDir(entries []refExport) {
	for _, de := range entries {
		e := &refEntry{holders: map[int]bool{}, lastWriter: de.lastWriter}
		for _, h := range de.holders {
			e.holders[h] = true
		}
		r.dir[de.blk] = e
	}
}

// recordTransport records what a master sends instead of delivering it.
type recordTransport struct{ out []sent }

func (t *recordTransport) Send(to int, m Msg, size int) { t.out = append(t.out, sent{to, m}) }

// holderList lists a NodeSet's members in ascending order.
func holderList(s NodeSet) []int {
	var out []int
	for n := 0; n < MaxNodes; n++ {
		if s.Has(n) {
			out = append(out, n)
		}
	}
	return out
}

// TestDirectoryMatchesReference drives a real master GCS and refDir through
// the same random register, evict, request, forward-fail, fence, remaster
// and hand-back steps at 2, 8 and 64 nodes. After every step the messages
// each sent, the supplier every node would get for every block, the
// forward state and ExportDirHomedAt must agree.
func TestDirectoryMatchesReference(t *testing.T) {
	for _, nodes := range []int{2, 8, MaxNodes} {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			checkDirectoryAgainstReference(t, nodes, 3000)
		})
	}
}

func checkDirectoryAgainstReference(t *testing.T, nodes, steps int) {
	const nBlocks = 16
	cat := NewCatalog(nodes)
	tbl := cat.AddTable(TableSpec{Name: "t", RowBytes: 512, Placement: PlacementHashed})
	self := nodes / 2
	cache := NewBufferCache(8, nil)
	g := NewGCS(sim.New(), self, cat, instantHost{}, cache, nil,
		NewVersionManager(cat, cache, 0), DefaultOpCosts(), nil)
	tr := &recordTransport{}
	g.SetTransport(tr)
	ref := newRefDir(self, cat)
	r := rng.Derive(uint64(nodes), "dir-oracle")

	blk := func() BlockID { return BlockID{Table: tbl.ID, Block: int64(r.Intn(nBlocks))} }
	// holderOf picks a current holder of b when it has one, so evictions
	// and forward failures mostly hit real entries.
	holderOf := func(b BlockID) int {
		if e := ref.dir[b]; e != nil && r.Bool(0.8) {
			hs := sortedHolders(e)
			return hs[r.Intn(len(hs))]
		}
		return r.Intn(nodes)
	}
	// asked remembers which supplier each open forward was last sent to,
	// the node whose MsgBlkFwdFail the master would receive.
	asked := map[uint64]int{}
	var reqID uint64
	var forwards, retries, negs uint64

	for step := 0; step < steps; step++ {
		tr.out = tr.out[:0]
		var want []sent
		var what string
		switch k := r.Intn(100); {
		case k < 25:
			b, h, w := blk(), r.Intn(nodes), r.Bool(0.5)
			what = fmt.Sprintf("register %v holder %d write %v", b, h, w)
			g.masterRegisterHolder(b, h, w)
			want = ref.register(b, h, w)
		case k < 30:
			h := Holding{Blk: blk(), WriteOwner: r.Bool(0.3)}
			holder := r.Intn(nodes)
			what = fmt.Sprintf("remaster holding %+v at %d", h, holder)
			g.RegisterHolding(holder, h)
			ref.registerHolding(holder, h)
		case k < 45:
			b := blk()
			h := holderOf(b)
			what = fmt.Sprintf("evict %v holder %d", b, h)
			g.masterEvict(b, h)
			ref.evict(b, h)
		case k < 70:
			reqID++
			m := MsgBlkReq{ReqID: reqID, Blk: blk(), ForWrite: r.Bool(0.5), HaveCopy: r.Bool(0.2)}
			from := r.Intn(nodes)
			what = fmt.Sprintf("request %+v from %d", m, from)
			g.masterBlockReq(from, m)
			want = ref.blockReq(from, m)
		case k < 95:
			if len(ref.fwd) == 0 {
				continue
			}
			ids := make([]uint64, 0, len(ref.fwd))
			for id := range ref.fwd {
				ids = append(ids, id)
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			id := ids[r.Intn(len(ids))]
			st := ref.fwd[id]
			from := asked[id]
			m := MsgBlkFwdFail{ReqID: id, Blk: st.blk, Requester: st.requester}
			what = fmt.Sprintf("forward %d failed at %d", id, from)
			g.masterFwdFail(from, m)
			want = ref.fwdFail(from, m)
			retries++
		case k < 98:
			dead := r.Intn(nodes)
			what = fmt.Sprintf("fence %d", dead)
			g.FenceNode(dead)
			ref.fence(dead)
		default:
			home := r.Intn(nodes)
			what = fmt.Sprintf("hand back home %d", home)
			got := g.ExportDirHomedAt(home)
			exp := ref.export(home)
			g.DropDirHomedAt(home)
			ref.dropHomedAt(home)
			if r.Bool(0.5) {
				g.ImportDir(got)
				ref.importDir(exp)
			}
		}
		if !sameSent(tr.out, want) {
			t.Fatalf("step %d (%s): master sent %v, reference %v", step, what, tr.out, want)
		}
		for _, s := range want {
			switch m := s.m.(type) {
			case MsgBlkFwd:
				asked[m.ReqID] = s.to
				forwards++
			case MsgBlkNeg:
				negs++
			}
		}
		compareDirectories(t, step, what, g, ref, tbl.ID, nBlocks, nodes)
	}
	if forwards == 0 || retries == 0 || negs == 0 {
		t.Fatalf("walk did not engage: %d forwards, %d forward failures, %d negatives", forwards, retries, negs)
	}
	t.Logf("%d forwards, %d forward failures, %d negatives", forwards, retries, negs)
}

// sortedHolders lists a reference entry's holders in ascending order.
func sortedHolders(e *refEntry) []int {
	hs := make([]int, 0, len(e.holders))
	for h := range e.holders {
		hs = append(hs, h)
	}
	sort.Ints(hs)
	return hs
}

func sameSent(a, b []sent) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// compareDirectories checks every block's supplier for every requester,
// the forward state, and every home's export.
func compareDirectories(t *testing.T, step int, what string, g *GCS, ref *refDir, tbl TableID, nBlocks, nodes int) {
	t.Helper()
	for b := int64(0); b < int64(nBlocks); b++ {
		blk := BlockID{Table: tbl, Block: b}
		for req := 0; req < nodes; req++ {
			if got, want := g.pickSupplier(blk, req), ref.pickSupplier(blk, req); got != want {
				t.Fatalf("step %d (%s): supplier of %v for %d = %d, reference %d", step, what, blk, req, got, want)
			}
			if got, want := g.dir[blk].writerSupplier(req), ref.writer(blk, req); got != want {
				t.Fatalf("step %d (%s): writer of %v for %d = %d, reference %d", step, what, blk, req, got, want)
			}
		}
	}
	if len(g.pendingFwd) != len(ref.fwd) {
		t.Fatalf("step %d (%s): %d open forwards, reference %d", step, what, len(g.pendingFwd), len(ref.fwd))
	}
	for id, st := range ref.fwd {
		got, ok := g.pendingFwd[id]
		var tried NodeSet
		for h := range st.tried {
			tried |= 1 << h
		}
		want := fwdState{requester: st.requester, blk: st.blk, forWrite: st.forWrite, tried: tried, reqID: st.reqID}
		if !ok || got != want {
			t.Fatalf("step %d (%s): forward %d = %+v (present %v), reference %+v", step, what, id, got, ok, want)
		}
	}
	for home := 0; home < min(nodes, nBlocks); home++ {
		got, want := g.ExportDirHomedAt(home), ref.export(home)
		if len(got) != len(want) {
			t.Fatalf("step %d (%s): home %d exports %d entries, reference %d", step, what, home, len(got), len(want))
		}
		for i, de := range got {
			w := want[i]
			if de.Blk != w.blk || de.LastWriter != w.lastWriter || !slices.Equal(holderList(de.Holders), w.holders) {
				t.Fatalf("step %d (%s): home %d export %d = %v %v writer %d, reference %v %v writer %d",
					step, what, home, i, de.Blk, holderList(de.Holders), de.LastWriter, w.blk, w.holders, w.lastWriter)
			}
		}
	}
}
