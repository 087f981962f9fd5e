// Package rtree implements an in-memory R-tree over 2D rectangles
// with integer payloads, the index substrate of Section 6 of the
// paper. Two construction paths are provided:
//
//   - one-by-one insertion in the style of Guttman (SIGMOD'84) with
//     quadratic split, and
//   - STR bulk loading (sort-tile-recursive), which packs a static
//     entry set into a tree with full nodes.
//
// Both trees answer intersection range queries; SearchLeaves exposes
// leaf-level traversal for the per-leaf spatial joins of the batch
// similarity search (Section 6.1.2).
package rtree

import (
	"fmt"
	"math"
	"slices"

	"geofootprint/internal/geom"
)

// Entry is one indexed item: a rectangle key and an opaque integer
// payload (a user ID in the RoI index, or a footprint ID in the
// user-centric index).
type Entry struct {
	Rect geom.Rect
	Data int64
}

// DefaultMaxEntries is the default node capacity M; the minimum fill
// m defaults to M*2/5 (40%), Guttman's recommendation.
const DefaultMaxEntries = 32

// Tree is an R-tree. The zero value is not usable; construct with New
// or Bulk.
type Tree struct {
	root *node
	size int
	max  int
	min  int
}

type node struct {
	leaf     bool
	rects    []geom.Rect
	children []*node // internal nodes only
	data     []int64 // leaves only
}

// New returns an empty R-tree with node capacity maxEntries
// (DefaultMaxEntries if <= 0).
func New(maxEntries int) *Tree {
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	if maxEntries < 4 {
		maxEntries = 4
	}
	t := &Tree{max: maxEntries, min: maxEntries * 2 / 5}
	t.root = &node{leaf: true}
	return t
}

// Len returns the number of entries in the tree.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels (a tree holding only a root
// leaf has height 1).
func (t *Tree) Height() int {
	h := 1
	for n := t.root; !n.leaf; n = n.children[0] {
		h++
	}
	return h
}

// Insert adds an entry to the tree (Guttman insertion with quadratic
// split).
func (t *Tree) Insert(r geom.Rect, data int64) {
	t.size++
	split := t.insert(t.root, r, data)
	if split != nil {
		// Root overflowed: grow the tree by one level.
		old := t.root
		t.root = &node{
			leaf:     false,
			rects:    []geom.Rect{mbrOf(old), mbrOf(split)},
			children: []*node{old, split},
		}
	}
}

// insert descends to a leaf and returns the new sibling if the node
// split, nil otherwise.
func (t *Tree) insert(n *node, r geom.Rect, data int64) *node {
	if n.leaf {
		n.rects = append(n.rects, r)
		n.data = append(n.data, data)
		if len(n.rects) > t.max {
			return t.splitNode(n)
		}
		return nil
	}
	i := chooseSubtree(n, r)
	n.rects[i] = n.rects[i].Extend(r)
	split := t.insert(n.children[i], r, data)
	if split == nil {
		return nil
	}
	n.rects[i] = mbrOf(n.children[i])
	n.rects = append(n.rects, mbrOf(split))
	n.children = append(n.children, split)
	if len(n.rects) > t.max {
		return t.splitNode(n)
	}
	return nil
}

// chooseSubtree picks the child needing the least area enlargement to
// cover r, breaking ties by smaller area (Guttman's ChooseLeaf).
func chooseSubtree(n *node, r geom.Rect) int {
	best := 0
	bestEnl := math.Inf(1)
	bestArea := math.Inf(1)
	for i, c := range n.rects {
		enl := c.Enlargement(r)
		area := c.Area()
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	return best
}

// splitNode performs Guttman's quadratic split, moving roughly half of
// n's entries into a returned new sibling.
func (t *Tree) splitNode(n *node) *node {
	count := len(n.rects)
	// PickSeeds: the pair wasting the most area together.
	seedA, seedB := 0, 1
	worst := math.Inf(-1)
	for i := 0; i < count; i++ {
		for j := i + 1; j < count; j++ {
			d := n.rects[i].Extend(n.rects[j]).Area() - n.rects[i].Area() - n.rects[j].Area()
			if d > worst {
				worst, seedA, seedB = d, i, j
			}
		}
	}

	assigned := make([]int8, count) // 0 = pending, 1 = stay, 2 = move
	assigned[seedA], assigned[seedB] = 1, 2
	mbrA, mbrB := n.rects[seedA], n.rects[seedB]
	nA, nB := 1, 1
	pending := count - 2

	for pending > 0 {
		// Force-assign when one group must take all remaining
		// entries to reach minimum fill.
		if nA+pending == t.min {
			for i := range assigned {
				if assigned[i] == 0 {
					assigned[i] = 1
					mbrA = mbrA.Extend(n.rects[i])
				}
			}
			break
		}
		if nB+pending == t.min {
			for i := range assigned {
				if assigned[i] == 0 {
					assigned[i] = 2
					mbrB = mbrB.Extend(n.rects[i])
				}
			}
			break
		}
		// PickNext: the pending entry with the greatest preference
		// for one group.
		next, nextDiff := -1, -1.0
		var nextDA, nextDB float64
		for i := range assigned {
			if assigned[i] != 0 {
				continue
			}
			dA := mbrA.Enlargement(n.rects[i])
			dB := mbrB.Enlargement(n.rects[i])
			if diff := math.Abs(dA - dB); diff > nextDiff {
				next, nextDiff, nextDA, nextDB = i, diff, dA, dB
			}
		}
		toA := nextDA < nextDB
		if nextDA == nextDB {
			// Resolve by smaller area, then by fewer entries.
			if mbrA.Area() != mbrB.Area() {
				toA = mbrA.Area() < mbrB.Area()
			} else {
				toA = nA <= nB
			}
		}
		if toA {
			assigned[next] = 1
			mbrA = mbrA.Extend(n.rects[next])
			nA++
		} else {
			assigned[next] = 2
			mbrB = mbrB.Extend(n.rects[next])
			nB++
		}
		pending--
	}

	// Partition in place: group 1 stays in n, group 2 moves out.
	sib := &node{leaf: n.leaf}
	keepRects := n.rects[:0]
	var keepChildren []*node
	var keepData []int64
	if n.leaf {
		keepData = n.data[:0]
	} else {
		keepChildren = n.children[:0]
	}
	for i, a := range assigned {
		if a == 1 {
			keepRects = append(keepRects, n.rects[i])
			if n.leaf {
				keepData = append(keepData, n.data[i])
			} else {
				keepChildren = append(keepChildren, n.children[i])
			}
		} else {
			sib.rects = append(sib.rects, n.rects[i])
			if n.leaf {
				sib.data = append(sib.data, n.data[i])
			} else {
				sib.children = append(sib.children, n.children[i])
			}
		}
	}
	n.rects = keepRects
	n.data = keepData
	n.children = keepChildren
	return sib
}

func mbrOf(n *node) geom.Rect {
	return geom.MBR(n.rects)
}

// Search calls fn for every entry whose rectangle intersects q
// (closed-box semantics). Traversal stops early if fn returns false.
func (t *Tree) Search(q geom.Rect, fn func(Entry) bool) {
	t.search(t.root, q, fn)
}

func (t *Tree) search(n *node, q geom.Rect, fn func(Entry) bool) bool {
	if n.leaf {
		for i, r := range n.rects {
			if r.Intersects(q) {
				if !fn(Entry{Rect: r, Data: n.data[i]}) {
					return false
				}
			}
		}
		return true
	}
	for i, r := range n.rects {
		if r.Intersects(q) {
			if !t.search(n.children[i], q, fn) {
				return false
			}
		}
	}
	return true
}

// SearchLeaves visits every leaf whose MBR intersects q and passes the
// leaf's full entry set to fn, together with the leaf MBR. This is the
// access path of the batch similarity search (Section 6.1.2): the
// caller joins the leaf contents against the whole query footprint.
// The callback must not retain the slice.
func (t *Tree) SearchLeaves(q geom.Rect, fn func(leafMBR geom.Rect, entries []Entry)) {
	var buf []Entry
	var walk func(n *node, nodeMBR geom.Rect)
	walk = func(n *node, nodeMBR geom.Rect) {
		if n.leaf {
			buf = buf[:0]
			for i, r := range n.rects {
				buf = append(buf, Entry{Rect: r, Data: n.data[i]})
			}
			fn(nodeMBR, buf)
			return
		}
		for i, r := range n.rects {
			if r.Intersects(q) {
				walk(n.children[i], r)
			}
		}
	}
	if t.size == 0 {
		return
	}
	if root := mbrOf(t.root); root.Intersects(q) {
		walk(t.root, root)
	}
}

// All calls fn for every entry in the tree.
func (t *Tree) All(fn func(Entry) bool) {
	var walk func(n *node) bool
	walk = func(n *node) bool {
		if n.leaf {
			for i, r := range n.rects {
				if !fn(Entry{Rect: r, Data: n.data[i]}) {
					return false
				}
			}
			return true
		}
		for _, c := range n.children {
			if !walk(c) {
				return false
			}
		}
		return true
	}
	walk(t.root)
}

// Stats summarises the tree's shape.
type Stats struct {
	Entries    int
	Height     int
	LeafNodes  int
	InnerNodes int
}

// Stats returns size statistics of the tree.
func (t *Tree) Stats() Stats {
	s := Stats{Entries: t.size, Height: t.Height()}
	var walk func(n *node)
	walk = func(n *node) {
		if n.leaf {
			s.LeafNodes++
			return
		}
		s.InnerNodes++
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	return s
}

// Validate checks the structural invariants of the tree: parent MBRs
// exactly cover their children, node occupancy is within [min, max]
// (except the root), all leaves are at the same depth, and the entry
// count matches Len. It returns the first violation found.
func (t *Tree) Validate() error {
	leafDepth := -1
	entries := 0
	var walk func(n *node, depth int) error
	walk = func(n *node, depth int) error {
		count := len(n.rects)
		// Occupancy: every non-root node holds at least one entry
		// (STR packing can leave edge nodes below Guttman's minimum
		// fill, so the lower bound here is 1, not t.min) and no node
		// exceeds the capacity.
		if n != t.root && count < 1 {
			return fmt.Errorf("rtree: empty node at depth %d", depth)
		}
		if count > t.max {
			return fmt.Errorf("rtree: node at depth %d has %d entries, max %d",
				depth, count, t.max)
		}
		if n.leaf {
			if leafDepth == -1 {
				leafDepth = depth
			} else if depth != leafDepth {
				return fmt.Errorf("rtree: leaves at depths %d and %d", leafDepth, depth)
			}
			entries += count
			if n.children != nil {
				return fmt.Errorf("rtree: leaf with children")
			}
			if len(n.data) != count {
				return fmt.Errorf("rtree: leaf data/rects length mismatch")
			}
			return nil
		}
		if len(n.children) != count {
			return fmt.Errorf("rtree: inner children/rects length mismatch")
		}
		for i, c := range n.children {
			if got := mbrOf(c); got != n.rects[i] {
				return fmt.Errorf("rtree: stale MBR at depth %d child %d: stored %v, actual %v",
					depth, i, n.rects[i], got)
			}
			if err := walk(c, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, 0); err != nil {
		return err
	}
	if entries != t.size {
		return fmt.Errorf("rtree: counted %d entries, Len says %d", entries, t.size)
	}
	return nil
}

// Bulk builds an R-tree over the given entries with STR
// (sort-tile-recursive) packing: entries are sorted by x-center,
// tiled into vertical slabs, each slab sorted by y-center and cut
// into full leaves; the process repeats on the leaf MBRs until a
// single root remains. maxEntries <= 0 selects DefaultMaxEntries.
func Bulk(entries []Entry, maxEntries int) *Tree {
	t := New(maxEntries)
	if len(entries) == 0 {
		return t
	}
	t.size = len(entries)

	leaves := packLeaves(entries, t.max)
	level := leaves
	for len(level) > 1 {
		level = packInner(level, t.max)
	}
	t.root = level[0]
	return t
}

func packLeaves(entries []Entry, m int) []*node {
	leaves := make([]*node, 0, (len(entries)+m-1)/m)
	strTile(len(entries), m, func(i int) geom.Rect { return entries[i].Rect }, func(run []strKey) {
		leaf := &node{leaf: true, rects: make([]geom.Rect, len(run)), data: make([]int64, len(run))}
		for j, k := range run {
			leaf.rects[j], leaf.data[j] = entries[k.idx].Rect, entries[k.idx].Data
		}
		leaves = append(leaves, leaf)
	})
	return leaves
}

func packInner(level []*node, m int) []*node {
	mbrs := make([]geom.Rect, len(level))
	for i, n := range level {
		mbrs[i] = mbrOf(n)
	}
	out := make([]*node, 0, (len(level)+m-1)/m)
	strTile(len(level), m, func(i int) geom.Rect { return mbrs[i] }, func(run []strKey) {
		inner := &node{rects: make([]geom.Rect, len(run)), children: make([]*node, len(run))}
		for j, k := range run {
			inner.rects[j], inner.children[j] = mbrs[k.idx], level[k.idx]
		}
		out = append(out, inner)
	})
	return out
}

// strKey is what STR sorts: one coordinate of a rectangle's centre and
// the rectangle's position in the caller's slice. Sixteen bytes and a
// plain float comparison, instead of swapping whole entries through a
// reflection-based sort that recomputes both centres per comparison.
type strKey struct {
	key float64
	idx int
}

func sortSTRKeys(ks []strKey) {
	slices.SortFunc(ks, func(a, b strKey) int {
		switch {
		case a.key < b.key:
			return -1
		case a.key > b.key:
			return 1
		default:
			return 0
		}
	})
}

// strTile is one level of sort-tile-recursive packing over the n
// rectangles rect(0..n-1): sort by x-centre, cut into vertical slabs
// of about sqrt(n/m) nodes each, sort every slab by y-centre, and hand
// emit each run of at most m consecutive rectangles — one node. emit
// must not retain run.
func strTile(n, m int, rect func(i int) geom.Rect, emit func(run []strKey)) {
	ks := make([]strKey, n)
	for i := range ks {
		ks[i] = strKey{key: rect(i).Center().X, idx: i}
	}
	sortSTRKeys(ks)
	nNodes := (n + m - 1) / m
	nSlabs := int(math.Ceil(math.Sqrt(float64(nNodes))))
	slabSize := nSlabs * m
	for s := 0; s < n; s += slabSize {
		slab := ks[s:min(s+slabSize, n)]
		for i := range slab {
			slab[i].key = rect(slab[i].idx).Center().Y
		}
		sortSTRKeys(slab)
		for r := 0; r < len(slab); r += m {
			emit(slab[r:min(r+m, len(slab))])
		}
	}
}
