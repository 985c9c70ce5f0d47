package db

// Frame is one buffer-cache slot. Since DCLUE keeps the whole database in
// memory, a frame carries status only — residency is what matters, not
// bytes (§2.3: "buffer cache operations merely change status of the pages").
type Frame struct {
	Blk        BlockID
	Pins       int
	Dirty      bool
	Ref        bool // clock reference bit
	VersBytes  int  // version data attached to the block (fattens transfers)
	WriteOwner bool // this node holds the current (most recent) copy
}

// BufferCache is one node's page cache with clock (second-chance)
// replacement. The version manager may steal unpinned frames when its
// overflow area runs low, shrinking the effective cache (§2.3).
type BufferCache struct {
	capacity int
	pool     []*Frame
	index    map[BlockID]int
	hand     int
	stolen   int

	// onEvict is called when a block leaves the cache (eviction or steal):
	// the node notifies the directory and schedules a write-back if dirty.
	onEvict func(blk BlockID, dirty bool)

	Hits, Misses, Evictions uint64
}

// NewBufferCache creates a cache of the given capacity in frames.
func NewBufferCache(capacity int, onEvict func(BlockID, bool)) *BufferCache {
	if capacity < 8 {
		capacity = 8
	}
	return &BufferCache{
		capacity: capacity,
		index:    make(map[BlockID]int),
		onEvict:  onEvict,
	}
}

// Capacity returns the current effective capacity (configured minus stolen).
func (bc *BufferCache) Capacity() int { return bc.capacity - bc.stolen }

// Len returns resident frames.
func (bc *BufferCache) Len() int { return len(bc.pool) }

// HitRatio returns hits / (hits+misses); the paper stresses this is an
// output of cache management, never an input.
func (bc *BufferCache) HitRatio() float64 {
	total := bc.Hits + bc.Misses
	if total == 0 {
		return 0
	}
	return float64(bc.Hits) / float64(total)
}

// Lookup returns the frame for blk and pins it, or nil on miss.
func (bc *BufferCache) Lookup(blk BlockID) *Frame {
	if i, ok := bc.index[blk]; ok {
		f := bc.pool[i]
		f.Ref = true
		f.Pins++
		bc.Hits++
		return f
	}
	bc.Misses++
	return nil
}

// Contains reports residency without pinning or counting.
func (bc *BufferCache) Contains(blk BlockID) bool {
	_, ok := bc.index[blk]
	return ok
}

// Peek returns the resident frame without pinning or statistics, or nil.
func (bc *BufferCache) Peek(blk BlockID) *Frame {
	if i, ok := bc.index[blk]; ok {
		return bc.pool[i]
	}
	return nil
}

// InsertPinned adds a freshly fetched block, pinned once, evicting if full.
func (bc *BufferCache) InsertPinned(blk BlockID) *Frame {
	if i, ok := bc.index[blk]; ok {
		// Raced fetch of the same block: share the frame.
		f := bc.pool[i]
		f.Pins++
		f.Ref = true
		return f
	}
	f := &Frame{Blk: blk, Pins: 1, Ref: true}
	if len(bc.pool) < bc.Capacity() {
		bc.index[blk] = len(bc.pool)
		bc.pool = append(bc.pool, f)
		return f
	}
	if i := bc.victim(); i >= 0 {
		old := bc.pool[i]
		delete(bc.index, old.Blk)
		bc.Evictions++
		if bc.onEvict != nil {
			bc.onEvict(old.Blk, old.Dirty)
		}
		bc.pool[i] = f
		bc.index[blk] = i
		return f
	}
	// Everything pinned: over-commit rather than deadlock.
	bc.index[blk] = len(bc.pool)
	bc.pool = append(bc.pool, f)
	return f
}

// victim runs the clock hand over the pool, clearing reference bits, and
// returns the index of an evictable frame or -1 if all frames are pinned.
func (bc *BufferCache) victim() int {
	n := len(bc.pool)
	if n == 0 {
		return -1
	}
	for sweep := 0; sweep < 2*n; sweep++ {
		i := bc.hand
		bc.hand = (bc.hand + 1) % n
		f := bc.pool[i]
		if f.Pins > 0 {
			continue
		}
		if f.Ref {
			f.Ref = false
			continue
		}
		return i
	}
	return -1
}

// Unpin releases one pin.
func (bc *BufferCache) Unpin(blk BlockID) {
	if i, ok := bc.index[blk]; ok {
		f := bc.pool[i]
		if f.Pins <= 0 {
			panic("db: unpin of unpinned frame")
		}
		f.Pins--
	}
}

// Steal removes one unpinned frame for the version overflow area, shrinking
// effective capacity. Returns false if nothing is evictable.
func (bc *BufferCache) Steal() bool {
	i := bc.victim()
	if i < 0 {
		return false
	}
	old := bc.pool[i]
	bc.remove(i)
	bc.Evictions++
	if bc.onEvict != nil {
		bc.onEvict(old.Blk, old.Dirty)
	}
	bc.stolen++
	return true
}

// ReturnStolen gives one stolen frame back (version GC reclaimed space).
func (bc *BufferCache) ReturnStolen() {
	if bc.stolen > 0 {
		bc.stolen--
	}
}

// InsertWarm admits a block unpinned with a cold reference bit, without
// evicting anything: used to prewarm caches at build time (DCLUE builds the
// database in memory, so nodes start with their partitions resident).
// Returns false when the cache is full.
func (bc *BufferCache) InsertWarm(blk BlockID) bool {
	if _, ok := bc.index[blk]; ok {
		return true
	}
	if len(bc.pool) >= bc.Capacity() {
		return false
	}
	bc.index[blk] = len(bc.pool)
	bc.pool = append(bc.pool, &Frame{Blk: blk})
	return true
}

// Each calls fn for every resident frame in pool order (deterministic).
// Used by recovery to enumerate a node's holdings and dirty set.
func (bc *BufferCache) Each(fn func(*Frame)) {
	for _, f := range bc.pool {
		fn(f)
	}
}

// Invalidate drops a block (e.g., the current copy moved to another node in
// exclusive mode). No eviction callback: the directory already knows.
func (bc *BufferCache) Invalidate(blk BlockID) {
	if i, ok := bc.index[blk]; ok {
		bc.remove(i)
	}
}

// remove drops the frame at pool slot i by moving the last frame into the
// slot; when i is the last slot there is nothing to move.
func (bc *BufferCache) remove(i int) {
	delete(bc.index, bc.pool[i].Blk)
	last := len(bc.pool) - 1
	if i != last {
		bc.pool[i] = bc.pool[last]
		bc.index[bc.pool[i].Blk] = i
	}
	bc.pool[last] = nil
	bc.pool = bc.pool[:last]
	if bc.hand >= last && last > 0 {
		bc.hand = 0
	}
}
