package db

import (
	"sort"

	"dclue/internal/sim"
)

// verKey names a row version chain.
type verKey struct {
	Table TableID
	Row   int64
}

// versionChain tracks the live versions of one row (§2.3): the creation
// time of each, for snapshot selection, and the per-version size. The
// paper's minimum, maximum and current version numbers are not kept, since
// nothing in the model reads them.
type versionChain struct {
	stamps []sim.Time // creation time per live version (ascending)
	bytes  int        // per-version size (row bytes)
}

// VersionManager is one node's multi-version state: a timestamp-ordered
// version store living in an overflow memory area that steals unpinned
// buffer-cache pages when it runs low (§2.3).
type VersionManager struct {
	cat         *Catalog
	cache       *BufferCache
	capacity    int // bytes in the overflow area
	used        int
	chains      map[verKey]*versionChain
	perBlock    map[BlockID]int // live version bytes attached to each block
	stolenBytes int

	// multi indexes the chains holding two or more live versions — the only
	// ones GC can shrink. A sweep over every chain ever written is O(hot
	// rows) per GC tick and showed up as ~10% of a figure run; the working
	// set of genuinely multi-versioned rows is tiny by comparison.
	multi map[verKey]*versionChain

	Created   uint64
	Collected uint64
	Steals    uint64
}

// NewVersionManager creates a version store of capacityBytes backed by the
// given cache for page stealing.
func NewVersionManager(cat *Catalog, cache *BufferCache, capacityBytes int) *VersionManager {
	return &VersionManager{
		cat:      cat,
		cache:    cache,
		capacity: capacityBytes,
		chains:   make(map[verKey]*versionChain),
		perBlock: make(map[BlockID]int),
		multi:    make(map[verKey]*versionChain),
	}
}

// Used returns bytes of live version data.
func (vm *VersionManager) Used() int { return vm.used }

// Capacity returns the current overflow capacity including stolen pages.
func (vm *VersionManager) Capacity() int { return vm.capacity + vm.stolenBytes }

// Create records a new version of a row at time now. Returns the number of
// versions now live on the row (path-length charges scale with it).
func (vm *VersionManager) Create(t *Table, row int64, now sim.Time) int {
	k := verKey{t.ID, row}
	ch := vm.chains[k]
	if ch == nil {
		ch = &versionChain{bytes: t.Spec.RowBytes}
		vm.chains[k] = ch
	}
	ch.stamps = append(ch.stamps, now)
	if len(ch.stamps) == 2 {
		vm.multi[k] = ch
	}
	vm.used += ch.bytes
	vm.perBlock[t.BlockOf(row)] += ch.bytes
	vm.Created++
	// Replenish from the buffer cache when low (§2.3: unpinned pages are
	// stolen).
	for vm.used > vm.Capacity()*9/10 {
		if !vm.cache.Steal() {
			break
		}
		vm.stolenBytes += BlockBytes
		vm.Steals++
	}
	return len(ch.stamps)
}

// SnapshotHops returns how many versions a reader with snapshot time ts
// must walk on (table,row): versions created after ts sit between the
// current version and the visible one.
func (vm *VersionManager) SnapshotHops(t TableID, row int64, ts sim.Time) int {
	ch := vm.chains[verKey{t, row}]
	if ch == nil {
		return 0
	}
	// stamps ascending: count entries with stamp > ts.
	i := sort.Search(len(ch.stamps), func(i int) bool { return ch.stamps[i] > ts })
	return len(ch.stamps) - i
}

// VersionBytes returns the version payload that travels with a block in a
// cache-fusion transfer (the paper: data messages are "8 KB or larger - the
// larger part comes because of additional versioning data").
func (vm *VersionManager) VersionBytes(blk BlockID) int { return vm.perBlock[blk] }

// GC drops versions older than minActive (no active snapshot can need
// them), keeping the newest version of each row, and returns stolen pages
// once usage drops. Only chains in the multi-version set are visited: a
// single-version chain always keeps its newest (only) version, so sweeping
// it could never change anything. Per-chain updates are independent and
// commutative, so map iteration order does not leak into the result.
func (vm *VersionManager) GC(minActive sim.Time) {
	for k, ch := range vm.multi {
		keep := ch.stamps[:0]
		dropped := 0
		for i, st := range ch.stamps {
			if st >= minActive || i == len(ch.stamps)-1 {
				keep = append(keep, st)
			} else {
				dropped++
			}
		}
		if dropped > 0 {
			ch.stamps = keep
			bytes := dropped * ch.bytes
			vm.used -= bytes
			vm.Collected += uint64(dropped)
			blk := vm.cat.Tables[k.Table].BlockOf(k.Row)
			vm.perBlock[blk] -= bytes
			if vm.perBlock[blk] <= 0 {
				delete(vm.perBlock, blk)
			}
		}
		if len(ch.stamps) <= 1 {
			delete(vm.multi, k)
		}
	}
	// Return stolen pages while comfortably below capacity.
	for vm.stolenBytes > 0 && vm.used < (vm.capacity+vm.stolenBytes-BlockBytes)*7/10 {
		vm.stolenBytes -= BlockBytes
		vm.cache.ReturnStolen()
	}
}
