package db

import (
	"fmt"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"dclue/internal/rng"
)

func TestBTreePutGet(t *testing.T) {
	bt := NewBTree(8)
	for i := int64(0); i < 1000; i++ {
		bt.Put(i*7%1000, i)
	}
	if bt.Len() != 1000 {
		t.Fatalf("len %d", bt.Len())
	}
	for i := int64(0); i < 1000; i++ {
		v, ok := bt.Get(i * 7 % 1000)
		if !ok || v != i {
			t.Fatalf("Get(%d) = %d/%v, want %d", i*7%1000, v, ok, i)
		}
	}
	if _, ok := bt.Get(5000); ok {
		t.Fatal("found absent key")
	}
}

func TestBTreeReplace(t *testing.T) {
	bt := NewBTree(8)
	bt.Put(5, 1)
	bt.Put(5, 2)
	if bt.Len() != 1 {
		t.Fatalf("len %d after replace", bt.Len())
	}
	if v, _ := bt.Get(5); v != 2 {
		t.Fatalf("Get = %d", v)
	}
}

func TestBTreeDelete(t *testing.T) {
	bt := NewBTree(8)
	for i := int64(0); i < 500; i++ {
		bt.Put(i, i)
	}
	for i := int64(0); i < 500; i += 2 {
		if !bt.Delete(i) {
			t.Fatalf("Delete(%d) failed", i)
		}
	}
	if bt.Delete(1000) {
		t.Fatal("deleted absent key")
	}
	if bt.Len() != 250 {
		t.Fatalf("len %d", bt.Len())
	}
	for i := int64(0); i < 500; i++ {
		_, ok := bt.Get(i)
		if want := i%2 == 1; ok != want {
			t.Fatalf("Get(%d) present=%v", i, ok)
		}
	}
}

func TestBTreeScanOrdered(t *testing.T) {
	bt := NewBTree(8)
	r := rng.New(3)
	inserted := map[int64]bool{}
	for i := 0; i < 2000; i++ {
		k := int64(r.Intn(10000))
		bt.Put(k, k*2)
		inserted[k] = true
	}
	var got []int64
	bt.Scan(2500, func(k, v int64) bool {
		if v != k*2 {
			t.Fatalf("value mismatch at %d", k)
		}
		got = append(got, k)
		return len(got) < 100
	})
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatal("scan not ordered")
	}
	for _, k := range got {
		if k < 2500 {
			t.Fatalf("scan returned key %d below start", k)
		}
		if !inserted[k] {
			t.Fatalf("scan invented key %d", k)
		}
	}
}

func TestBTreeMin(t *testing.T) {
	bt := NewBTree(8)
	if _, ok := bt.Min(); ok {
		t.Fatal("Min on empty tree")
	}
	bt.Put(42, 0)
	bt.Put(7, 0)
	bt.Put(99, 0)
	if k, ok := bt.Min(); !ok || k != 7 {
		t.Fatalf("Min = %d/%v", k, ok)
	}
}

func TestBTreeHeightGrows(t *testing.T) {
	bt := NewBTree(8)
	if bt.Height() != 1 {
		t.Fatalf("empty height %d", bt.Height())
	}
	for i := int64(0); i < 10000; i++ {
		bt.Put(i, i)
	}
	if h := bt.Height(); h < 3 || h > 8 {
		t.Fatalf("height %d for 10k keys at degree 8", h)
	}
}

func TestBTreeMatchesMapProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 50}
	err := quick.Check(func(seed uint64, n uint8) bool {
		r := rng.New(seed)
		bt := NewBTree(6)
		ref := map[int64]int64{}
		for i := 0; i < int(n)*8; i++ {
			k := int64(r.Intn(200))
			switch r.Intn(3) {
			case 0, 1:
				v := int64(r.Intn(1000))
				bt.Put(k, v)
				ref[k] = v
			case 2:
				want := false
				if _, ok := ref[k]; ok {
					want = true
				}
				if bt.Delete(k) != want {
					return false
				}
				delete(ref, k)
			}
		}
		if bt.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			got, ok := bt.Get(k)
			if !ok || got != v {
				return false
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

// refTree is the B+-tree without the rightmost-leaf append and the
// exact-size splits: every put descends from the root, and a leaf split
// copies its upper half into a new node. TestBTreeShapeOracle checks that
// BTree builds exactly the tree this one builds.
type refTree struct {
	root   *btNode
	degree int
	size   int
}

func newRefTree(degree int) *refTree {
	return &refTree{root: &btNode{leaf: true}, degree: degree}
}

func (t *refTree) put(k, v int64) {
	sep, right := t.insert(t.root, k, v)
	if right != nil {
		t.root = &btNode{
			keys:     []int64{sep},
			children: []*btNode{t.root, right},
		}
	}
}

func (t *refTree) insert(n *btNode, k, v int64) (int64, *btNode) {
	if n.leaf {
		i := n.search(k)
		if i < len(n.keys) && n.keys[i] == k {
			n.vals[i] = v
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

func (t *refTree) splitLeaf(n *btNode) (int64, *btNode) {
	mid := len(n.keys) / 2
	right := &btNode{
		leaf: true,
		keys: append([]int64(nil), n.keys[mid:]...),
		vals: append([]int64(nil), n.vals[mid:]...),
		next: n.next,
	}
	n.keys = n.keys[:mid]
	n.vals = n.vals[:mid]
	n.next = right
	return right.keys[0], right
}

func (t *refTree) splitInternal(n *btNode) (int64, *btNode) {
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

func (t *refTree) delete(k int64) bool {
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

func (t *refTree) height() int {
	h := 1
	for n := t.root; !n.leaf; n = n.children[0] {
		h++
	}
	return h
}

// onRightSpine reports whether a put of k descends the right spine.
func (t *refTree) onRightSpine(k int64) bool {
	for n := t.root; !n.leaf; n = n.children[len(n.children)-1] {
		if k < n.keys[len(n.keys)-1] {
			return false
		}
	}
	return true
}

// shapeDiff describes where two subtrees first differ in node kind, keys
// (separators in internal nodes), values or fan-out, as a path of child
// indexes, or returns "" if they agree.
func shapeDiff(a, b *btNode) string {
	switch {
	case a.leaf != b.leaf:
		return ": leaf vs internal"
	case !slices.Equal(a.keys, b.keys):
		return fmt.Sprintf(": keys %v, want %v", a.keys, b.keys)
	case a.leaf && !slices.Equal(a.vals, b.vals):
		return fmt.Sprintf(": values %v, want %v", a.vals, b.vals)
	case len(a.children) != len(b.children):
		return fmt.Sprintf(": %d children, want %d", len(a.children), len(b.children))
	}
	for i := range a.children {
		if d := shapeDiff(a.children[i], b.children[i]); d != "" {
			return fmt.Sprintf("/%d%s", i, d)
		}
	}
	return ""
}

// leftmostLeaf returns the head of n's leaf chain.
func leftmostLeaf(n *btNode) *btNode {
	for !n.leaf {
		n = n.children[0]
	}
	return n
}

// TestBTreeShapeOracle drives BTree and refTree with the same operations and
// checks after every step that they hold the same tree: height, size, every
// node's keys level by level, and the keys and values along the leaf chain.
// The operations mix ascending runs (the build's pattern, which takes the
// append path), random inserts, replaces, and deletes that empty the
// rightmost leaf before more inserts arrive.
func TestBTreeShapeOracle(t *testing.T) {
	var appends, emptiedLast, spineRootSplits int
	for _, degree := range []int{4, 8, 64} {
		for seed := uint64(1); seed <= 24; seed++ {
			r := rng.New(seed*1000 + uint64(degree))
			bt, ref := NewBTree(degree), newRefTree(degree)
			var top int64 // above every key inserted so far
			var live []int64
			check := func(step int, op string) {
				t.Helper()
				if bt.Height() != ref.height() || bt.Len() != ref.size {
					t.Fatalf("degree %d seed %d step %d (%s): height/len %d/%d, want %d/%d",
						degree, seed, step, op, bt.Height(), bt.Len(), ref.height(), ref.size)
				}
				if d := shapeDiff(bt.root, ref.root); d != "" {
					t.Fatalf("degree %d seed %d step %d (%s): root%s", degree, seed, step, op, d)
				}
				a, b := leftmostLeaf(bt.root), leftmostLeaf(ref.root)
				for ; a != nil && b != nil; a, b = a.next, b.next {
					if !slices.Equal(a.keys, b.keys) || !slices.Equal(a.vals, b.vals) {
						t.Fatalf("degree %d seed %d step %d (%s): chain leaf %v/%v, want %v/%v",
							degree, seed, step, op, a.keys, a.vals, b.keys, b.vals)
					}
					if a.next == nil && a != bt.last {
						t.Fatalf("degree %d seed %d step %d (%s): last is not the chain's tail", degree, seed, step, op)
					}
				}
				if a != nil || b != nil {
					t.Fatalf("degree %d seed %d step %d (%s): leaf chains differ in length", degree, seed, step, op)
				}
			}
			put := func(k, v int64) {
				if n := bt.last; len(n.keys) > 0 && len(n.keys) < degree && k > n.keys[len(n.keys)-1] {
					appends++
				}
				spine, h := ref.onRightSpine(k), ref.height()
				bt.Put(k, v)
				ref.put(k, v)
				if spine && ref.height() > h {
					spineRootSplits++
				}
				live = append(live, k)
				top = max(top, k+1)
			}
			for step := 0; step < 300; step++ {
				var op string
				switch x := r.Intn(20); {
				case x < 8:
					op = "ascending run"
					for n := r.IntRange(1, degree+degree/2); n > 0; n-- {
						put(top+int64(r.Intn(3)), int64(r.Intn(1000)))
					}
				case x < 12:
					op = "random insert"
					put(int64(r.Intn(int(top)+10)), int64(r.Intn(1000)))
				case x < 14 && len(live) > 0:
					op = "replace"
					put(live[r.Intn(len(live))], int64(r.Intn(1000)))
				case x < 17 && len(live) > 0:
					op = "delete"
					i := r.Intn(len(live))
					k := live[i]
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
					if got, want := bt.Delete(k), ref.delete(k); got != want {
						t.Fatalf("degree %d seed %d step %d: Delete(%d) = %v, want %v", degree, seed, step, k, got, want)
					}
				default:
					op = "empty the rightmost leaf"
					keys := slices.Clone(bt.last.keys)
					for _, k := range keys {
						if got, want := bt.Delete(k), ref.delete(k); got != want {
							t.Fatalf("degree %d seed %d step %d: Delete(%d) = %v, want %v", degree, seed, step, k, got, want)
						}
					}
					if len(keys) > 0 && bt.Len() > 0 {
						emptiedLast++
					}
				}
				check(step, op)
			}
		}
	}
	if appends == 0 || emptiedLast == 0 || spineRootSplits == 0 {
		t.Fatalf("appends %d, emptied rightmost leaves %d, root splits on the right spine %d: want each > 0",
			appends, emptiedLast, spineRootSplits)
	}
	t.Logf("appends %d, emptied rightmost leaves %d, root splits on the right spine %d",
		appends, emptiedLast, spineRootSplits)
}
