// Package rtree implements a classical, in-memory R-tree (Guttman 1984),
// the index structure the DR-tree distributes (paper Section 2.2). It is
// the centralized baseline of the reproduction and also serves as the
// reference implementation for the height-balance and degree invariants
// the distributed overlay must preserve:
//
//   - every leaf holds between m and M entries (except the root);
//   - every non-leaf node has between m and M children, the root at least
//     two (unless it is a leaf);
//   - all leaves are at the same depth; height is O(log_m N);
//   - every non-leaf entry is tagged with the MBR of its child.
//
// The node-splitting strategy is pluggable (internal/split): linear,
// quadratic, or R*-style.
package rtree

import (
	"fmt"

	"drtree/internal/geom"
	"drtree/internal/split"
)

// Tree is an R-tree mapping rectangles to opaque values. It is not safe
// for concurrent use; wrap with a mutex if shared across goroutines.
type Tree struct {
	m, M   int
	policy split.Policy
	root   *node
	height int // number of levels; a lone leaf root has height 1
	size   int
}

// node is a tree node; leaves carry data entries, interior nodes carry
// child entries.
type node struct {
	leaf    bool
	entries []entry
	parent  *node
}

// entry is either a data record (leaf) or a child pointer (interior),
// always tagged with its minimum bounding rectangle.
type entry struct {
	rect  geom.Rect
	child *node // nil in leaves
	data  any   // nil in interior nodes
}

func (n *node) mbr() geom.Rect {
	var out geom.Rect
	for _, e := range n.entries {
		out = out.Union(e.rect)
	}
	return out
}

// New creates an R-tree with branching bounds [m, M] and the given split
// policy. The paper requires M >= 2m so a split can produce two groups of
// at least m entries.
func New(m, M int, policy split.Policy) (*Tree, error) {
	if m < 1 {
		return nil, fmt.Errorf("rtree: m must be >= 1, got %d", m)
	}
	if M < 2*m {
		return nil, fmt.Errorf("rtree: M must be >= 2m (got m=%d, M=%d)", m, M)
	}
	if policy == nil {
		return nil, fmt.Errorf("rtree: nil split policy")
	}
	return &Tree{
		m:      m,
		M:      M,
		policy: policy,
		root:   &node{leaf: true},
		height: 1,
	}, nil
}

// MustNew is New that panics on invalid parameters; for tests.
func MustNew(m, M int, policy split.Policy) *Tree {
	t, err := New(m, M, policy)
	if err != nil {
		panic(err)
	}
	return t
}

// Len returns the number of stored entries.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels (1 for a lone leaf root).
func (t *Tree) Height() int { return t.height }

// Params returns the branching bounds (m, M).
func (t *Tree) Params() (m, M int) { return t.m, t.M }

// Insert adds a rectangle/value pair to the tree.
func (t *Tree) Insert(r geom.Rect, data any) error {
	if r.IsEmpty() {
		return fmt.Errorf("rtree: cannot insert empty rectangle")
	}
	leaf := t.chooseNode(r, 1)
	leaf.entries = append(leaf.entries, entry{rect: r, data: data})
	t.size++
	return t.adjustAfterGrowth(leaf)
}

// chooseNode descends from the root to the node at the given level
// (leaves are level 1) choosing at each step the child needing the least
// MBR enlargement, ties broken by smaller area — Guttman's ChooseLeaf and
// the DR-tree's Choose_Best_Child.
func (t *Tree) chooseNode(r geom.Rect, level int) *node {
	n := t.root
	depth := t.height
	for depth > level {
		best := 0
		bestEnl := n.entries[0].rect.Enlargement(r)
		bestArea := n.entries[0].rect.Area()
		for i := 1; i < len(n.entries); i++ {
			enl := n.entries[i].rect.Enlargement(r)
			area := n.entries[i].rect.Area()
			if enl < bestEnl || (enl == bestEnl && area < bestArea) {
				best, bestEnl, bestArea = i, enl, area
			}
		}
		n = n.entries[best].child
		depth--
	}
	return n
}

// adjustAfterGrowth splits overflowing nodes bottom-up and refreshes
// ancestor MBRs (Guttman's AdjustTree).
func (t *Tree) adjustAfterGrowth(n *node) error {
	for n != nil {
		if len(n.entries) > t.M {
			if err := t.splitNode(n); err != nil {
				return err
			}
		}
		if n.parent != nil {
			t.refreshEntryFor(n)
		}
		n = n.parent
	}
	return nil
}

// splitNode partitions an overflowing node into two using the configured
// policy, attaching the new sibling to the parent (creating a new root if
// n was the root).
func (t *Tree) splitNode(n *node) error {
	rects := make([]geom.Rect, len(n.entries))
	for i, e := range n.entries {
		rects[i] = e.rect
	}
	leftIdx, rightIdx, err := t.policy.Split(rects, t.m)
	if err != nil {
		return fmt.Errorf("rtree: split failed: %w", err)
	}
	old := n.entries
	n.entries = nil
	sibling := &node{leaf: n.leaf}
	for _, i := range leftIdx {
		n.entries = append(n.entries, old[i])
	}
	for _, i := range rightIdx {
		sibling.entries = append(sibling.entries, old[i])
	}
	if !n.leaf {
		for _, e := range n.entries {
			e.child.parent = n
		}
		for _, e := range sibling.entries {
			e.child.parent = sibling
		}
	}
	if n.parent == nil {
		newRoot := &node{leaf: false}
		newRoot.entries = []entry{
			{rect: n.mbr(), child: n},
			{rect: sibling.mbr(), child: sibling},
		}
		n.parent = newRoot
		sibling.parent = newRoot
		t.root = newRoot
		t.height++
		return nil
	}
	sibling.parent = n.parent
	n.parent.entries = append(n.parent.entries, entry{rect: sibling.mbr(), child: sibling})
	t.refreshEntryFor(n)
	return nil
}

// refreshEntryFor updates the MBR tag of n inside its parent.
func (t *Tree) refreshEntryFor(n *node) {
	p := n.parent
	for i := range p.entries {
		if p.entries[i].child == n {
			p.entries[i].rect = n.mbr()
			return
		}
	}
}

// Delete removes one entry whose rectangle equals r and whose data equals
// data (compared with ==). It reports whether an entry was removed.
func (t *Tree) Delete(r geom.Rect, data any) (bool, error) {
	leaf, idx := t.findLeaf(t.root, r, data)
	if leaf == nil {
		return false, nil
	}
	leaf.entries = append(leaf.entries[:idx], leaf.entries[idx+1:]...)
	t.size--
	if err := t.condense(leaf); err != nil {
		return false, err
	}
	return true, nil
}

func (t *Tree) findLeaf(n *node, r geom.Rect, data any) (*node, int) {
	if n.leaf {
		for i, e := range n.entries {
			if e.rect.Equal(r) && e.data == data {
				return n, i
			}
		}
		return nil, 0
	}
	for _, e := range n.entries {
		if e.rect.Contains(r) {
			if leaf, i := t.findLeaf(e.child, r, data); leaf != nil {
				return leaf, i
			}
		}
	}
	return nil, 0
}

// condense implements Guttman's CondenseTree: walk up from a shrunken
// leaf, dropping underflowing nodes and re-inserting their orphaned
// entries at the appropriate level.
func (t *Tree) condense(n *node) error {
	type orphan struct {
		e     entry
		level int
	}
	var orphans []orphan
	level := 1
	for n.parent != nil {
		p := n.parent
		if len(n.entries) < t.m {
			// Detach n from its parent and stash its entries.
			for i := range p.entries {
				if p.entries[i].child == n {
					p.entries = append(p.entries[:i], p.entries[i+1:]...)
					break
				}
			}
			for _, e := range n.entries {
				orphans = append(orphans, orphan{e: e, level: level})
			}
		} else {
			t.refreshEntryFor(n)
		}
		n = p
		level++
	}
	t.shrinkRoot()
	// Re-insert orphans, highest (closest-to-root) level first so subtree
	// heights stay aligned with the shrinking tree.
	for i := len(orphans) - 1; i >= 0; i-- {
		o := orphans[i]
		if o.e.child != nil {
			if err := t.insertSubtree(o.e, o.level); err != nil {
				return err
			}
		} else {
			target := t.chooseNode(o.e.rect, 1)
			target.entries = append(target.entries, o.e)
			if err := t.adjustAfterGrowth(target); err != nil {
				return err
			}
		}
		t.shrinkRoot()
	}
	return nil
}

// shrinkRoot collapses degenerate roots: an interior root with a single
// child is replaced by that child; an interior root with no children
// becomes an empty leaf.
func (t *Tree) shrinkRoot() {
	for !t.root.leaf && len(t.root.entries) == 1 {
		t.root = t.root.entries[0].child
		t.root.parent = nil
		t.height--
	}
	if !t.root.leaf && len(t.root.entries) == 0 {
		t.root = &node{leaf: true}
		t.height = 1
	}
}

// insertSubtree re-attaches an orphaned subtree entry whose detached
// parent node lived at the given level (leaves are level 1); the entry's
// child therefore roots a subtree of height level-1 and needs a new
// parent at exactly that level.
func (t *Tree) insertSubtree(e entry, level int) error {
	if level > t.height {
		// The tree shrank below the subtree's level; dissolve one layer
		// and insert the child's entries individually.
		for _, ce := range e.child.entries {
			if err := t.insertSubtree(ce, level-1); err != nil {
				return err
			}
		}
		return nil
	}
	if level == 1 {
		// Data entry at leaf level.
		target := t.chooseNode(e.rect, 1)
		target.entries = append(target.entries, e)
		return t.adjustAfterGrowth(target)
	}
	target := t.chooseNode(e.rect, level)
	e.child.parent = target
	target.entries = append(target.entries, e)
	return t.adjustAfterGrowth(target)
}

// Search returns the data of every entry whose rectangle intersects q.
func (t *Tree) Search(q geom.Rect) []any {
	var out []any
	t.search(t.root, func(r geom.Rect) bool { return r.Intersects(q) }, &out)
	return out
}

// SearchPoint returns the data of every entry whose rectangle contains
// point p — the spatial-filter matching primitive.
func (t *Tree) SearchPoint(p geom.Point) []any {
	var out []any
	t.search(t.root, func(r geom.Rect) bool { return r.ContainsPoint(p) }, &out)
	return out
}

// SearchContaining returns the data of entries whose rectangle contains q.
func (t *Tree) SearchContaining(q geom.Rect) []any {
	var out []any
	t.search(t.root, func(r geom.Rect) bool { return r.Contains(q) }, &out)
	return out
}

func (t *Tree) search(n *node, pred func(geom.Rect) bool, out *[]any) {
	for _, e := range n.entries {
		if !pred(e.rect) {
			continue
		}
		if n.leaf {
			*out = append(*out, e.data)
		} else {
			t.search(e.child, pred, out)
		}
	}
}

// VisitCount searches like SearchPoint but also reports the number of
// nodes visited, for cost accounting in benchmarks. It is
// VisitAppend(p, nil).
func (t *Tree) VisitCount(p geom.Point) (matches []any, visited int) {
	return t.VisitAppend(p, nil)
}

// VisitAppend appends the data of every entry whose rectangle contains
// p to dst and reports the nodes visited: VisitCount into storage the
// caller reuses, so a per-event probe allocates nothing once dst has
// grown to its working size.
func (t *Tree) VisitAppend(p geom.Point, dst []any) (matches []any, visited int) {
	return t.root.visitAppend(p, dst, 0)
}

func (n *node) visitAppend(p geom.Point, dst []any, visited int) ([]any, int) {
	visited++
	for _, e := range n.entries {
		if !e.rect.ContainsPoint(p) {
			continue
		}
		if n.leaf {
			dst = append(dst, e.data)
		} else {
			dst, visited = e.child.visitAppend(p, dst, visited)
		}
	}
	return dst, visited
}

// VisitFunc searches like VisitCount but hands each match to fn
// instead of accumulating a slice — the allocation-free variant for
// per-event hot paths that already have somewhere to put the results.
func (t *Tree) VisitFunc(p geom.Point, fn func(data any)) (visited int) {
	var walk func(n *node)
	walk = func(n *node) {
		visited++
		for _, e := range n.entries {
			if !e.rect.ContainsPoint(p) {
				continue
			}
			if n.leaf {
				fn(e.data)
			} else {
				walk(e.child)
			}
		}
	}
	walk(t.root)
	return visited
}

// ChooseEntries returns the data of every entry in the leaf that
// ChooseLeaf (least enlargement, ties by area) would select for r —
// the spatially closest O(M) placement candidates without a full scan.
// The broker's adaptive gateway tier uses this to place a subscription
// among thousands of gateways in O(log G) instead of O(G). Returns nil
// on an empty tree.
func (t *Tree) ChooseEntries(r geom.Rect) []any {
	if t.size == 0 {
		return nil
	}
	leaf := t.chooseNode(r, 1)
	out := make([]any, len(leaf.entries))
	for i, e := range leaf.entries {
		out[i] = e.data
	}
	return out
}

// RootMBR returns the MBR of the whole tree (empty if no entries).
func (t *Tree) RootMBR() geom.Rect { return t.root.mbr() }

// CheckInvariants verifies the R-tree properties from Section 2.2 of the
// paper; it returns a descriptive error on the first violation. Intended
// for tests and property checks.
func (t *Tree) CheckInvariants() error {
	if t.size == 0 {
		if !t.root.leaf || len(t.root.entries) != 0 {
			return fmt.Errorf("rtree: empty tree must be a bare leaf root")
		}
		return nil
	}
	leafDepth := -1
	var walk func(n *node, depth int) (int, error)
	walk = func(n *node, depth int) (int, error) {
		if n != t.root {
			if len(n.entries) < t.m {
				return 0, fmt.Errorf("rtree: node at depth %d underflows: %d < m=%d", depth, len(n.entries), t.m)
			}
		} else if !n.leaf && len(n.entries) < 2 {
			return 0, fmt.Errorf("rtree: interior root must have >= 2 children, has %d", len(n.entries))
		}
		if len(n.entries) > t.M {
			return 0, fmt.Errorf("rtree: node at depth %d overflows: %d > M=%d", depth, len(n.entries), t.M)
		}
		if n.leaf {
			if leafDepth == -1 {
				leafDepth = depth
			} else if leafDepth != depth {
				return 0, fmt.Errorf("rtree: leaves at different depths %d and %d", leafDepth, depth)
			}
			return len(n.entries), nil
		}
		count := 0
		for _, e := range n.entries {
			if e.child == nil {
				return 0, fmt.Errorf("rtree: interior entry with nil child at depth %d", depth)
			}
			if e.child.parent != n {
				return 0, fmt.Errorf("rtree: broken parent pointer at depth %d", depth)
			}
			if !e.rect.Equal(e.child.mbr()) {
				return 0, fmt.Errorf("rtree: stale MBR at depth %d: tag %v vs child %v", depth, e.rect, e.child.mbr())
			}
			c, err := walk(e.child, depth+1)
			if err != nil {
				return 0, err
			}
			count += c
		}
		return count, nil
	}
	n, err := walk(t.root, 0)
	if err != nil {
		return err
	}
	if n != t.size {
		return fmt.Errorf("rtree: size mismatch: counted %d, recorded %d", n, t.size)
	}
	if leafDepth+1 != t.height {
		return fmt.Errorf("rtree: height mismatch: leaves at depth %d, height %d", leafDepth, t.height)
	}
	return nil
}

// Stats summarizes structural quality metrics used by the split-policy
// ablation (experiment E8).
type Stats struct {
	Height        int
	Nodes         int
	Entries       int
	TotalCoverage float64 // sum of interior MBR areas
	TotalOverlap  float64 // sum of pairwise overlap areas between siblings
}

// ComputeStats walks the tree and gathers Stats.
func (t *Tree) ComputeStats() Stats {
	s := Stats{Height: t.height, Entries: t.size}
	var walk func(n *node)
	walk = func(n *node) {
		s.Nodes++
		if n.leaf {
			return
		}
		for i, e := range n.entries {
			s.TotalCoverage += e.rect.Area()
			for j := i + 1; j < len(n.entries); j++ {
				s.TotalOverlap += e.rect.OverlapArea(n.entries[j].rect)
			}
			walk(e.child)
		}
	}
	walk(t.root)
	return s
}
