package db

import "sort"

// This file holds the GCS side of crash recovery: fencing a dead node out
// of the directory and lock tables, rebuilding mastering state from
// survivors' holdings, handing mastering back on rejoin, and the checkpoint
// that bounds how much redo log a crash forces recovery to replay. The
// protocol itself (who fences, who remasters, in what order) lives in the
// core cluster's recovery coordinator; everything here is node-local state
// surgery. Each step that ranges over a map touches one entry and deletes
// commute, so map order cannot show; the export, whose order becomes
// message order, sorts its blocks.

// SendCtl ships a control message on the GCS's IPC channel (recovery
// coordinator use; same pricing as protocol messages).
func (g *GCS) SendCtl(to int, m Msg) { g.sendCtl(to, m) }

// SendData ships a data message of the given wire size.
func (g *GCS) SendData(to int, m Msg, size int) { g.sendData(to, m, size) }

// RedoBytes returns log volume written since the last checkpoint: the
// amount a crash right now would force recovery to replay.
func (g *GCS) RedoBytes() int64 { return g.redoBytes }

// Checkpoint flushes every dirty unpinned owned frame to disk (lazy
// write-backs) and truncates the redo accounting. Returns frames flushed.
func (g *GCS) Checkpoint() (flushed int) {
	g.cache.Each(func(f *Frame) {
		if f.Dirty && f.Pins == 0 && f.WriteOwner {
			g.pager.WriteBack(f.Blk, BlockBytes)
			f.Dirty = false
			flushed++
		}
	})
	g.redoBytes = 0
	return flushed
}

// FenceNode expels dead from this node's master-side state: directory
// entries forget its copies, forward state on its behalf is dropped, and
// every lock its transactions held or waited for is released so survivors
// stop queueing behind a peer that will never answer.
func (g *GCS) FenceNode(dead int) {
	for b, e := range g.dir {
		e.holders &^= 1 << dead
		if e.lastWriter == dead {
			e.lastWriter = -1
		}
		if e.holders == 0 {
			delete(g.dir, b)
		} else {
			g.dir[b] = e
		}
	}
	for id, st := range g.pendingFwd {
		if st.requester == dead {
			delete(g.pendingFwd, id)
		}
	}
	g.locks.ReleaseNode(dead)
}

// HoldingsHomedAt reports this node's cached copies of blocks homed at
// home, in pool order: the survivors' answers to a remastering sweep.
func (g *GCS) HoldingsHomedAt(home int) []Holding {
	var out []Holding
	g.cache.Each(func(f *Frame) {
		if g.cat.Home(f.Blk) == home {
			out = append(out, Holding{Blk: f.Blk, WriteOwner: f.WriteOwner})
		}
	})
	return out
}

// RegisterHolding records one remastered holding in the local directory
// (surrogate side). Unlike masterRegisterHolder it never revokes anyone:
// the reports describe existing ownership, they do not move it.
func (g *GCS) RegisterHolding(holder int, h Holding) {
	e, ok := g.dir[h.Blk]
	if !ok {
		e.lastWriter = -1
	}
	e.holders |= 1 << holder
	if h.WriteOwner {
		e.lastWriter = holder
	}
	g.dir[h.Blk] = e
}

// ExportDirHomedAt returns the directory entries for blocks homed at home
// in sorted order: the mastering state a surrogate hands back on rejoin.
func (g *GCS) ExportDirHomedAt(home int) []DirExport {
	var blks []BlockID
	for b := range g.dir {
		if g.cat.Home(b) == home {
			blks = append(blks, b)
		}
	}
	sort.Slice(blks, func(i, j int) bool {
		if blks[i].Table != blks[j].Table {
			return blks[i].Table < blks[j].Table
		}
		return blks[i].Block < blks[j].Block
	})
	out := make([]DirExport, 0, len(blks))
	for _, b := range blks {
		e := g.dir[b]
		out = append(out, DirExport{Blk: b, Holders: e.holders, LastWriter: e.lastWriter})
	}
	return out
}

// DropDirHomedAt forgets directory entries for blocks homed at home (the
// mastering moved elsewhere).
func (g *GCS) DropDirHomedAt(home int) {
	for b := range g.dir {
		if g.cat.Home(b) == home {
			delete(g.dir, b)
		}
	}
}

// ImportDir installs handed-back directory entries (rejoining node side).
func (g *GCS) ImportDir(entries []DirExport) {
	for _, de := range entries {
		g.dir[de.Blk] = dirEntry{holders: de.Holders, lastWriter: de.LastWriter}
	}
}

// DropLocksHomedAt discards lock-master state for resources homed at home
// (surrogate hand-back; the owner rebuilds as traffic arrives).
func (g *GCS) DropLocksHomedAt(home int) {
	g.locks.DropHomedAt(func(r ResourceID) bool {
		return g.cat.Home(BlockID{Table: r.Table, Block: r.Block}) == home
	})
}
