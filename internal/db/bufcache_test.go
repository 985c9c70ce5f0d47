package db

import (
	"testing"

	"dclue/internal/rng"
)

func blk(t TableID, b int64) BlockID { return BlockID{t, b} }

func TestCacheHitMiss(t *testing.T) {
	bc := NewBufferCache(16, nil)
	if bc.Lookup(blk(0, 1)) != nil {
		t.Fatal("hit on empty cache")
	}
	f := bc.InsertPinned(blk(0, 1))
	if f.Pins != 1 {
		t.Fatalf("pins %d", f.Pins)
	}
	bc.Unpin(blk(0, 1))
	if g := bc.Lookup(blk(0, 1)); g == nil || g != f {
		t.Fatal("miss after insert")
	}
	if bc.Hits != 1 || bc.Misses != 1 {
		t.Fatalf("hits=%d misses=%d", bc.Hits, bc.Misses)
	}
	if r := bc.HitRatio(); r != 0.5 {
		t.Fatalf("hit ratio %v", r)
	}
}

func TestCacheEvictsUnpinned(t *testing.T) {
	var evicted []BlockID
	bc := NewBufferCache(8, func(b BlockID, dirty bool) { evicted = append(evicted, b) })
	for i := int64(0); i < 20; i++ {
		bc.InsertPinned(blk(0, i))
		bc.Unpin(blk(0, i))
	}
	if bc.Len() > 8 {
		t.Fatalf("cache grew to %d frames", bc.Len())
	}
	if len(evicted) != 12 {
		t.Fatalf("evicted %d, want 12", len(evicted))
	}
}

func TestCachePinnedNotEvicted(t *testing.T) {
	bc := NewBufferCache(8, nil)
	for i := int64(0); i < 8; i++ {
		bc.InsertPinned(blk(0, i)) // all pinned
	}
	bc.InsertPinned(blk(0, 100)) // must over-commit, not evict pinned
	for i := int64(0); i < 8; i++ {
		if !bc.Contains(blk(0, i)) {
			t.Fatalf("pinned block %d evicted", i)
		}
	}
}

func TestCacheDirtyEvictionCallback(t *testing.T) {
	var dirtyEv int
	bc := NewBufferCache(8, func(b BlockID, dirty bool) {
		if dirty {
			dirtyEv++
		}
	})
	f := bc.InsertPinned(blk(0, 1))
	f.Dirty = true
	bc.Unpin(blk(0, 1))
	for i := int64(2); i < 30; i++ {
		bc.InsertPinned(blk(0, i))
		bc.Unpin(blk(0, i))
	}
	if dirtyEv != 1 {
		t.Fatalf("dirty evictions %d", dirtyEv)
	}
}

func TestCacheClockGivesSecondChance(t *testing.T) {
	bc := NewBufferCache(8, nil)
	for i := int64(0); i < 8; i++ {
		bc.InsertPinned(blk(0, i))
		bc.Unpin(blk(0, i))
	}
	// One insert clears every reference bit during its sweep and evicts the
	// first frame.
	bc.InsertPinned(blk(0, 90))
	bc.Unpin(blk(0, 90))
	if bc.Contains(blk(0, 0)) {
		t.Fatal("expected block 0 evicted on first full sweep")
	}
	// Now re-reference block 1: with its bit set it must get a second
	// chance, so the next eviction takes block 2 instead.
	bc.Lookup(blk(0, 1))
	bc.Unpin(blk(0, 1))
	bc.InsertPinned(blk(0, 91))
	bc.Unpin(blk(0, 91))
	if !bc.Contains(blk(0, 1)) {
		t.Fatal("recently referenced block evicted before cold ones")
	}
	if bc.Contains(blk(0, 2)) {
		t.Fatal("cold block survived ahead of the clock hand")
	}
}

func TestCacheStealShrinksCapacity(t *testing.T) {
	bc := NewBufferCache(8, nil)
	for i := int64(0); i < 8; i++ {
		bc.InsertPinned(blk(0, i))
		bc.Unpin(blk(0, i))
	}
	if !bc.Steal() {
		t.Fatal("steal failed with unpinned frames")
	}
	if bc.Capacity() != 7 {
		t.Fatalf("capacity %d after steal", bc.Capacity())
	}
	if bc.Len() != 7 {
		t.Fatalf("len %d after steal", bc.Len())
	}
	bc.ReturnStolen()
	if bc.Capacity() != 8 {
		t.Fatalf("capacity %d after return", bc.Capacity())
	}
}

func TestCacheStealAllPinnedFails(t *testing.T) {
	bc := NewBufferCache(8, nil)
	bc.InsertPinned(blk(0, 1))
	if bc.Steal() {
		t.Fatal("stole a pinned frame")
	}
}

func TestCacheInvalidate(t *testing.T) {
	bc := NewBufferCache(8, nil)
	bc.InsertPinned(blk(0, 1))
	bc.Unpin(blk(0, 1))
	bc.InsertPinned(blk(0, 2))
	bc.Unpin(blk(0, 2))
	bc.Invalidate(blk(0, 1))
	if bc.Contains(blk(0, 1)) {
		t.Fatal("invalidated block still resident")
	}
	if !bc.Contains(blk(0, 2)) {
		t.Fatal("wrong block removed")
	}
	bc.Invalidate(blk(0, 42)) // absent: no-op
}

func TestCacheSharedFetchSamePins(t *testing.T) {
	bc := NewBufferCache(8, nil)
	a := bc.InsertPinned(blk(0, 7))
	b := bc.InsertPinned(blk(0, 7))
	if a != b {
		t.Fatal("duplicate insert created two frames")
	}
	if a.Pins != 2 {
		t.Fatalf("pins %d", a.Pins)
	}
}

func TestUnpinUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on unpin underflow")
		}
	}()
	bc := NewBufferCache(8, nil)
	bc.InsertPinned(blk(0, 1))
	bc.Unpin(blk(0, 1))
	bc.Unpin(blk(0, 1))
}

// TestCacheRandomOpsConsistent runs random operations on small caches and
// checks after every step that pool and index describe the same frames,
// that Contains and Peek agree with them, and that no pin count is
// negative. Steal and Invalidate often remove the pool's last frame, the
// slot a swap-remove has nothing to move into.
func TestCacheRandomOpsConsistent(t *testing.T) {
	const blocks = 24
	var lastStolen, lastInvalidated int
	for seed := uint64(1); seed <= 40; seed++ {
		r := rng.New(seed)
		bc := NewBufferCache(8, nil)
		for step := 0; step < 400; step++ {
			b := blk(0, int64(r.Intn(blocks)))
			var tail BlockID
			if n := len(bc.pool); n > 0 {
				tail = bc.pool[n-1].Blk
			}
			before := bc.Len()
			op := r.Intn(9)
			switch op {
			case 0, 1:
				bc.InsertPinned(b)
			case 2:
				bc.InsertWarm(b)
			case 3:
				bc.Lookup(b)
			case 4, 5:
				if f := bc.Peek(b); f != nil && f.Pins > 0 {
					bc.Unpin(b)
				}
			case 6:
				if bc.Steal() && !bc.Contains(tail) && bc.Len() == before-1 {
					lastStolen++
				}
			case 7:
				if bc.Len() > 0 && r.Intn(2) == 0 {
					b = tail
					lastInvalidated++
				}
				bc.Invalidate(b)
			case 8:
				bc.ReturnStolen()
			}
			if len(bc.index) != len(bc.pool) {
				t.Fatalf("seed %d step %d op %d: index holds %d blocks, pool %d frames", seed, step, op, len(bc.index), len(bc.pool))
			}
			for i, f := range bc.pool {
				if j, ok := bc.index[f.Blk]; !ok || j != i {
					t.Fatalf("seed %d step %d op %d: pool[%d] holds %v, indexed at %d (%v)", seed, step, op, i, f.Blk, j, ok)
				}
				if f.Pins < 0 {
					t.Fatalf("seed %d step %d op %d: %v has %d pins", seed, step, op, f.Blk, f.Pins)
				}
			}
			for k := int64(0); k < blocks; k++ {
				b := blk(0, k)
				f := bc.Peek(b)
				if bc.Contains(b) != (f != nil) || (f != nil && f.Blk != b) {
					t.Fatalf("seed %d step %d op %d: Contains(%v) = %v, Peek = %v", seed, step, op, b, bc.Contains(b), f)
				}
			}
		}
	}
	if lastStolen == 0 || lastInvalidated == 0 {
		t.Fatalf("last frame stolen %d times, invalidated %d times: want both > 0", lastStolen, lastInvalidated)
	}
}
