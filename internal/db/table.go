package db

import "fmt"

// BlockBytes is the database block (page) size; also the basic IPC transfer
// size of the paper (§2.1).
const BlockBytes = 8192

// TableID identifies a table in the catalog.
type TableID int

// indexRegion flags a BlockID as an index block rather than a data block.
const indexRegion int64 = 1 << 40

// BlockID names a block cluster-wide.
type BlockID struct {
	Table TableID
	Block int64
}

func (b BlockID) String() string {
	if b.Block&indexRegion != 0 {
		return fmt.Sprintf("t%d.ix%d", b.Table, b.Block&^indexRegion)
	}
	return fmt.Sprintf("t%d.b%d", b.Table, b.Block)
}

// IsIndex reports whether the block belongs to the table's index segment.
func (b BlockID) IsIndex() bool { return b.Block&indexRegion != 0 }

// ResourceID names a lockable subpage cluster-wide.
type ResourceID struct {
	Table   TableID
	Block   int64
	Subpage int
}

// Placement is how rows map onto nodes.
type Placement int

const (
	// PlacementPartitioned homes a block on the node that inserted its
	// first row (warehouse partitioning makes this the warehouse owner).
	PlacementPartitioned Placement = iota
	// PlacementHashed spreads blocks across nodes round-robin (the shared
	// item table).
	PlacementHashed
)

// TableSpec declares a table.
type TableSpec struct {
	Name      string
	RowBytes  int
	Subpages  int // lock subpages per block; the paper tunes this per table
	Placement Placement
	Grows     bool // history-like tables that only grow
}

// Table is one cluster-global table: row placement, primary index, and
// block homing. Attribute data lives with the workload (dense arrays
// indexed by the row ids this table allocates).
type Table struct {
	ID   TableID
	Spec TableSpec
	cat  *Catalog

	RowsPerBlock int
	Index        *BTree

	// Rows are allocated from per-home block extents so one block never
	// mixes partitions: the block's home node is well-defined and affinity
	// 1.0 workloads generate (almost) no cross-node block traffic, as the
	// paper reports.
	nextBlock int64
	cur       []allocExtent // [home] the block being filled
	freeRows  [][]int64     // [home] recycled row slots
	blockHome []int16       // data block -> owning node

	// indexFanout controls how many data blocks one index leaf covers.
	indexFanout int64

	Inserts, Deletes uint64
}

// allocExtent is the unfilled rest of a home's open block: row ids
// [next, end). The zero value is a full extent.
type allocExtent struct {
	next, end int64
}

// Catalog is the cluster-wide set of tables.
type Catalog struct {
	Tables []*Table
	nodes  int

	// surrogate redirects mastering for blocks homed at a crashed node to a
	// surviving coordinator until the owner rejoins. Disk placement (Home)
	// is unaffected: the paper's shared-storage model keeps the data where
	// it is; only directory/lock mastering moves.
	surrogate map[int]int
}

// NewCatalog creates a catalog for a cluster of n nodes.
func NewCatalog(n int) *Catalog {
	return &Catalog{nodes: n}
}

// Nodes returns the cluster size the catalog was built for.
func (c *Catalog) Nodes() int { return c.nodes }

// AddTable registers a table and returns it.
func (c *Catalog) AddTable(spec TableSpec) *Table {
	rpb := BlockBytes / spec.RowBytes
	if rpb < 1 {
		rpb = 1
	}
	if spec.Subpages < 1 {
		spec.Subpages = 1
	}
	t := &Table{
		ID:           TableID(len(c.Tables)),
		Spec:         spec,
		cat:          c,
		RowsPerBlock: rpb,
		Index:        NewBTree(64),
		indexFanout:  64,
		cur:          make([]allocExtent, c.nodes),
		freeRows:     make([][]int64, c.nodes),
	}
	c.Tables = append(c.Tables, t)
	return t
}

// Table returns the table with the given id.
func (c *Catalog) Table(id TableID) *Table { return c.Tables[id] }

// Home returns the owning node of a block: the disk it lives on and the
// master of its directory entry and locks (partition-aware mastering).
func (c *Catalog) Home(b BlockID) int {
	t := c.Tables[b.Table]
	blk := b.Block &^ indexRegion
	if b.IsIndex() {
		blk *= t.indexFanout // home index leaves with the data they cover
	}
	if t.Spec.Placement == PlacementHashed {
		return int(blk % int64(c.nodes))
	}
	if blk < int64(len(t.blockHome)) {
		return int(t.blockHome[blk])
	}
	return 0
}

// Master returns the node currently mastering b's directory entry and
// locks: Home, unless a surrogate took over after a crash.
func (c *Catalog) Master(b BlockID) int {
	h := c.Home(b)
	if via, ok := c.surrogate[h]; ok {
		return via
	}
	return h
}

// SetSurrogate redirects mastering for every block homed at dead to via
// until ClearSurrogate (GCS fencing: the recovery coordinator takes over
// the dead node's directory and lock duties).
func (c *Catalog) SetSurrogate(dead, via int) {
	if c.surrogate == nil {
		c.surrogate = make(map[int]int)
	}
	c.surrogate[dead] = via
}

// ClearSurrogate restores mastering to home (the node rejoined).
func (c *Catalog) ClearSurrogate(dead int) { delete(c.surrogate, dead) }

// Insert allocates a row for key from the given home node's extent and
// returns the dense row id. Hashed-placement tables ignore home for
// ownership (Home hashes the block) but still pack rows densely.
func (t *Table) Insert(key int64, home int) int64 {
	row, _ := t.InsertFresh(key, home)
	return row
}

// InsertFresh is Insert, additionally reporting whether the row opened a
// brand-new block — such a block has no disk image yet, so the executor
// formats it in the cache instead of reading it.
func (t *Table) InsertFresh(key int64, home int) (row int64, fresh bool) {
	if t.Spec.Placement == PlacementHashed {
		home = 0 // single allocation extent; ownership comes from hashing
	}
	if fr := t.freeRows[home]; len(fr) > 0 {
		row = fr[len(fr)-1]
		t.freeRows[home] = fr[:len(fr)-1]
	} else {
		ext := &t.cur[home]
		if ext.next == ext.end {
			rpb := int64(t.RowsPerBlock)
			*ext = allocExtent{next: t.nextBlock * rpb, end: (t.nextBlock + 1) * rpb}
			t.nextBlock++
			t.blockHome = append(t.blockHome, int16(home))
			fresh = true
		}
		row = ext.next
		ext.next++
	}
	t.Index.Put(key, row)
	t.Inserts++
	return row, fresh
}

// Lookup returns the row id for key.
func (t *Table) Lookup(key int64) (int64, bool) { return t.Index.Get(key) }

// Delete removes key, recycling its row slot within its home's extent.
func (t *Table) Delete(key int64) bool {
	row, ok := t.DeleteKeepSlot(key)
	if !ok {
		return false
	}
	t.Recycle(row)
	return true
}

// DeleteKeepSlot removes key from the index without recycling its slot;
// the executor recycles at commit so a concurrent insert cannot reuse a
// slot whose lock the deleting transaction still holds.
func (t *Table) DeleteKeepSlot(key int64) (int64, bool) {
	row, ok := t.Index.Get(key)
	if !ok {
		return 0, false
	}
	t.Index.Delete(key)
	t.Deletes++
	return row, true
}

// Recycle returns a deleted row's slot to its home's free list.
func (t *Table) Recycle(row int64) {
	home := 0
	if blk := row / int64(t.RowsPerBlock); blk < int64(len(t.blockHome)) {
		home = int(t.blockHome[blk])
	}
	t.freeRows[home] = append(t.freeRows[home], row)
}

// BlockOf returns the data block holding a row.
func (t *Table) BlockOf(row int64) BlockID {
	return BlockID{t.ID, row / int64(t.RowsPerBlock)}
}

// IndexLeafOf returns the index leaf block covering a row's data block.
func (t *Table) IndexLeafOf(row int64) BlockID {
	leaf := (row / int64(t.RowsPerBlock)) / t.indexFanout
	return BlockID{t.ID, indexRegion | leaf}
}

// ResourceOf returns the lockable subpage of a row.
func (t *Table) ResourceOf(row int64) ResourceID {
	blk := row / int64(t.RowsPerBlock)
	slot := int(row % int64(t.RowsPerBlock))
	sub := slot * t.Spec.Subpages / t.RowsPerBlock
	return ResourceID{t.ID, blk, sub}
}

// Blocks returns the number of data blocks allocated so far.
func (t *Table) Blocks() int64 { return int64(len(t.blockHome)) }

// IndexLeafBlocks returns how many index-leaf blocks cover the table.
func (t *Table) IndexLeafBlocks() int64 { return t.Blocks()/t.indexFanout + 1 }

// IndexLeafBlock returns the i-th index leaf block id.
func (t *Table) IndexLeafBlock(i int64) BlockID {
	return BlockID{t.ID, indexRegion | i}
}

// Rows returns the live row count.
func (t *Table) Rows() int { return t.Index.Len() }
