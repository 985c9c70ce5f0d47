// Package db implements the clustered DBMS engine of the paper: tables on
// 8 KB blocks with B+-tree indices, per-node buffer caches, multi-version
// concurrency control, two-phase subpage locking with a global lock
// service, cache-fusion block transfers with partition-aware directory
// mastering, and write-ahead logging (local or centralized). It is the Go
// counterpart of what DCLUE implemented on top of OPNET.
package db

// BTree is an in-memory B+ tree mapping int64 keys to int64 values (row
// ids). DCLUE "explicitly maintains B+-tree indices for each table"; the
// tree here is fully functional (insert, delete, exact and range lookup)
// and its depth feeds the index-traversal path-length charge.
type BTree struct {
	root   *btNode
	last   *btNode // rightmost leaf, the tail of the leaf chain
	degree int
	size   int
}

// btNode is a B+ tree node. Leaves carry values and are chained.
type btNode struct {
	leaf bool
	keys []int64
	// Internal nodes: children, len(children) == len(keys)+1.
	children []*btNode
	// Leaves: values parallel to keys, plus the leaf chain.
	vals []int64
	next *btNode
}

// NewBTree returns an empty tree. Degree is the maximum number of keys per
// node (order); 64 gives realistic 2-4 level trees for our table sizes.
func NewBTree(degree int) *BTree {
	if degree < 4 {
		degree = 4
	}
	root := &btNode{leaf: true}
	return &BTree{root: root, last: root, degree: degree}
}

// Len returns the number of stored keys.
func (t *BTree) Len() int { return t.size }

// Height returns the number of levels (1 for a lone leaf); table ops charge
// an index path length per level.
func (t *BTree) Height() int {
	h := 1
	for n := t.root; !n.leaf; n = n.children[0] {
		h++
	}
	return h
}

// search returns the index of the first key >= k.
func (n *btNode) search(k int64) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if n.keys[mid] < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Get returns the value for k.
func (t *BTree) Get(k int64) (int64, bool) {
	n := t.root
	for !n.leaf {
		i := n.search(k)
		if i < len(n.keys) && n.keys[i] == k {
			i++ // equal keys route right in internal nodes
		}
		n = n.children[i]
	}
	i := n.search(k)
	if i < len(n.keys) && n.keys[i] == k {
		return n.vals[i], true
	}
	return 0, false
}

// Put inserts or replaces the value for k.
//
// A k above every key of a non-empty rightmost leaf that has room is
// appended there without a descent, which is how the database build loads
// each table. This is exactly the descent's result: every key in the
// rightmost leaf was routed through the last separator of each node on the
// right spine, so it is at least each of them, and k, being greater than
// the leaf's last key, would take the same route, land past that key and
// split nothing. An empty rightmost leaf bounds nothing, so it descends.
func (t *BTree) Put(k, v int64) {
	if n := t.last; len(n.keys) > 0 && len(n.keys) < t.degree && k > n.keys[len(n.keys)-1] {
		n.keys = append(n.keys, k)
		n.vals = append(n.vals, v)
		t.size++
		return
	}
	sep, right := t.insert(t.root, k, v)
	if right != nil {
		t.root = &btNode{
			keys:     []int64{sep},
			children: []*btNode{t.root, right},
		}
	}
}

// insert descends, inserting into the leaf; on overflow it splits and
// returns the separator key and new right sibling.
func (t *BTree) insert(n *btNode, k, v int64) (int64, *btNode) {
	if n.leaf {
		i := n.search(k)
		if i < len(n.keys) && n.keys[i] == k {
			n.vals[i] = v // replace
			return 0, nil
		}
		n.keys = append(n.keys, 0)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = k
		n.vals = append(n.vals, 0)
		copy(n.vals[i+1:], n.vals[i:])
		n.vals[i] = v
		t.size++
		if len(n.keys) > t.degree {
			return t.splitLeaf(n)
		}
		return 0, nil
	}
	i := n.search(k)
	if i < len(n.keys) && n.keys[i] == k {
		i++
	}
	sep, right := t.insert(n.children[i], k, v)
	if right == nil {
		return 0, nil
	}
	n.keys = append(n.keys, 0)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = sep
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
	if len(n.keys) > t.degree {
		return t.splitInternal(n)
	}
	return 0, nil
}

// splitLeaf moves the upper half of n into a new right sibling. The lower
// half, which ascending inserts never extend again, is copied into
// exact-size slices; the upper half is moved down n's buffers and keeps
// them, so under ascending inserts only the rightmost leaf's buffers grow.
func (t *BTree) splitLeaf(n *btNode) (int64, *btNode) {
	mid := len(n.keys) / 2
	keys, vals := n.keys, n.vals
	n.keys = append(make([]int64, 0, mid), keys[:mid]...)
	n.vals = append(make([]int64, 0, mid), vals[:mid]...)
	m := copy(keys, keys[mid:])
	copy(vals, vals[mid:])
	right := &btNode{leaf: true, keys: keys[:m], vals: vals[:m], next: n.next}
	n.next = right
	if t.last == n {
		t.last = right
	}
	return right.keys[0], right
}

func (t *BTree) splitInternal(n *btNode) (int64, *btNode) {
	mid := len(n.keys) / 2
	sep := n.keys[mid]
	right := &btNode{
		keys:     append([]int64(nil), n.keys[mid+1:]...),
		children: append([]*btNode(nil), n.children[mid+1:]...),
	}
	n.keys = n.keys[:mid]
	n.children = n.children[:mid+1]
	return sep, right
}

// Delete removes k, returning whether it was present. Underflowed nodes are
// left lazy (no rebalancing): deletions in the workload (new-order retirement)
// are immediately followed by inserts at higher keys, so lazy deletion keeps
// the tree compact enough while staying simple and fast.
func (t *BTree) Delete(k int64) bool {
	n := t.root
	for !n.leaf {
		i := n.search(k)
		if i < len(n.keys) && n.keys[i] == k {
			i++
		}
		n = n.children[i]
	}
	i := n.search(k)
	if i < len(n.keys) && n.keys[i] == k {
		n.keys = append(n.keys[:i], n.keys[i+1:]...)
		n.vals = append(n.vals[:i], n.vals[i+1:]...)
		t.size--
		return true
	}
	return false
}

// Scan visits keys in [from, +inf) in ascending order until fn returns
// false. Used for range reads (oldest new-order, last orders of a district).
func (t *BTree) Scan(from int64, fn func(k, v int64) bool) {
	n := t.root
	for !n.leaf {
		i := n.search(from)
		if i < len(n.keys) && n.keys[i] == from {
			i++
		}
		n = n.children[i]
	}
	i := n.search(from)
	for n != nil {
		for ; i < len(n.keys); i++ {
			if !fn(n.keys[i], n.vals[i]) {
				return
			}
		}
		n = n.next
		i = 0
	}
}

// Min returns the smallest key (ok=false when empty).
func (t *BTree) Min() (int64, bool) {
	n := t.root
	for !n.leaf {
		n = n.children[0]
	}
	for n != nil {
		if len(n.keys) > 0 {
			return n.keys[0], true
		}
		n = n.next
	}
	return 0, false
}
