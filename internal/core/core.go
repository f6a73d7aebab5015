// Package core implements the DR-tree, the paper's primary contribution:
// a decentralized, self-stabilizing R-tree overlay for peer-to-peer
// content-based publish/subscribe (Bianchi, Datta, Felber, Gradinariu,
// ICDCS 2007, Section 3).
//
// Every tree node is owned by a physical process (a subscriber). A
// process is recursively its own child (paper §3): if p owns an interior
// node, p also owns one node on every level beneath it down to the
// leaves. We call each per-level node an Instance, identified by its
// height above the leaf level (leaves are height 0), so that a root split
// never renumbers existing instances.
//
// Instances are stored in a per-tree arena with a structure-of-arrays
// layout (see arena.go): a process's instance table maps heights to dense
// int32 handles, and every per-instance field — parents, children sets,
// MBRs — lives in its own parallel slice. The routing loops in publish.go
// scan those slices cache-linearly instead of dereferencing per-node heap
// objects, and Leave/Crash recycle handles through a free list.
//
// The package provides the sequential DR-tree engine: every protocol rule
// of the paper's Figures 7-14 (join, add-child with splitting and root
// election, controlled leave, the five stabilization checks, compaction,
// cover and false-positive-driven exchanges) is a directly callable and
// individually testable state transition. The message-passing runtime in
// internal/proto drives the same rules through an asynchronous network.
package core

import (
	"errors"
	"fmt"
	"slices"

	"drtree/internal/geom"
	"drtree/internal/split"
)

// ProcID identifies a process (subscriber). IDs are assigned by the
// caller and must be positive.
type ProcID int

// NoProc is the zero ProcID, used as "no process".
const NoProc ProcID = 0

// ErrNotMember is what every engine's refusal of a process that is not
// a member of the overlay ("not in the tree", "not in the cluster") is
// to errors.Is. A caller that raced a departure maps on it, and does not
// have to look at its own tables a second time to guess what the engine
// meant.
var ErrNotMember = errors.New("core: process is not a member of the overlay")

// NotMemberf formats an ErrNotMember refusal whose message is the
// formatted text and nothing else.
func NotMemberf(format string, args ...any) error {
	return notMember(fmt.Sprintf(format, args...))
}

type notMember string

func (e notMember) Error() string { return string(e) }
func (e notMember) Unwrap() error { return ErrNotMember }

// Params configures a DR-tree.
type Params struct {
	// MinFanout is m: the minimum number of children of every non-root
	// interior node. Must be >= 1.
	MinFanout int
	// MaxFanout is M: the maximum number of children of any node. The
	// paper requires M >= 2m so splits can produce two legal groups.
	MaxFanout int
	// Split selects the node-splitting method (linear, quadratic, rstar).
	// Defaults to quadratic, the paper's primary method.
	Split split.Policy
	// Election selects the parent/root election policy. Defaults to
	// LargestMBR, the paper's rule (Figure 6).
	Election Election
	// TrackReorgStats enables the per-instance false-positive counters
	// that drive the dynamic reorganization of §3.2.
	TrackReorgStats bool
	// DisableCoverRule turns off the Is_Better_MBR_Cover exchanges (the
	// CHECK_COVER module and its eager equivalents in the join path).
	// Only for the root-election ablation (experiment E9); the paper's
	// protocol always runs the cover rule.
	DisableCoverRule bool
}

func (p Params) withDefaults() Params {
	if p.Split == nil {
		p.Split = split.Quadratic{}
	}
	if p.Election == nil {
		p.Election = LargestMBR{}
	}
	return p
}

func (p Params) validate() error {
	if p.MinFanout < 1 {
		return fmt.Errorf("core: MinFanout must be >= 1, got %d", p.MinFanout)
	}
	if p.MaxFanout < 2*p.MinFanout {
		return fmt.Errorf("core: MaxFanout must be >= 2*MinFanout (got m=%d, M=%d)",
			p.MinFanout, p.MaxFanout)
	}
	return nil
}

// Instance is a materialized view of one tree node: the state a process
// maintains for one level where it is active (paper §3.2 "Data
// Structures"). Heights count up from the leaves: height 0 instances are
// leaves whose MBR equals the process filter; an instance at height h>0
// has children at height h-1.
//
// The engine stores instances in the tree's arena (arena.go); an
// Instance value is a read-only snapshot assembled on demand for
// inspection and tests. Mutating it does not change the tree.
type Instance struct {
	// Parent is the process owning this instance's parent node (at
	// height+1). The root instance's parent is the owning process itself.
	Parent ProcID
	// Children are the processes owning the child nodes at height-1.
	// Empty for leaves.
	Children []ProcID
	// MBR is the minimum bounding rectangle of the children's MBRs (for
	// leaves, the process filter).
	MBR geom.Rect
	// Underloaded mirrors the paper's underloaded flag: the children set
	// has fewer than m members.
	Underloaded bool
}

func (in *Instance) hasChild(id ProcID) bool {
	return hasID(in.Children, id)
}

func replaceID(ids []ProcID, old, new ProcID) {
	for i, c := range ids {
		if c == old {
			ids[i] = new
		}
	}
}

func hasID(ids []ProcID, id ProcID) bool {
	return indexOf(ids, id) >= 0
}

// Process is a subscriber: a physical peer owning a constant filter and
// one instance per level where it is active.
type Process struct {
	ID     ProcID
	Filter geom.Rect
	// inst is the instance table, indexed by height, holding arena
	// handles. A live process owns the contiguous range of heights 0..Top
	// (paper §3.2), so a slice is the natural layout; nilH entries mark
	// gaps left by corruption, and entries above Top can exist only
	// transiently mid-repair. Use at for reads so out-of-range heights
	// resolve to nilH.
	inst []Handle
	// Top is the height of the process's topmost instance.
	Top int
	// slot is the process's dense delivery slot, indexing the
	// generation-stamp tables of the publish path (recycled on leave).
	slot int32

	// Delivery accounting (pub/sub layer).
	Delivered int // events received
	FalsePos  int // events received but not matching Filter
}

// at returns the process's instance handle at height h, or nilH when h
// is out of range or vacant.
func (p *Process) at(h int) Handle {
	if h < 0 || h >= len(p.inst) {
		return nilH
	}
	return p.inst[h]
}

// instCount returns the number of instances the process currently owns.
func (p *Process) instCount() int {
	n := 0
	for _, x := range p.inst {
		if x != nilH {
			n++
		}
	}
	return n
}

// setInst stores handle x at height h, growing the table as needed.
func (p *Process) setInst(h int, x Handle) {
	for len(p.inst) <= h {
		p.inst = append(p.inst, nilH)
	}
	p.inst[h] = x
}

// clearInst vacates height h and trims trailing vacancies so the table
// length tracks the owned range. The handle is not released; callers
// that retire the instance for good must release it to the arena.
func (p *Process) clearInst(h int) {
	if h < 0 || h >= len(p.inst) {
		return
	}
	p.inst[h] = nilH
	n := len(p.inst)
	for n > 0 && p.inst[n-1] == nilH {
		n--
	}
	p.inst = p.inst[:n]
}

// Tree is the sequential DR-tree engine. It is not safe for concurrent
// use.
type Tree struct {
	params Params
	procs  map[ProcID]*Process
	rootID ProcID
	rootH  int
	nextID ProcID

	// ar is the arena every instance of this tree lives in.
	ar instArena

	// Dense delivery-slot allocator: every live process holds one slot
	// indexing the publish stamp tables; slots recycle on leave/crash.
	slotFree []int32
	nslots   int32

	// pendingFragments queues detached subtrees awaiting re-attachment
	// (drained by repair and stabilization passes).
	pendingFragments []fragment

	// pub is the publish scratch state, reused across events so
	// dissemination stays allocation-free (see pubCtx).
	pub pubCtx
}

// fragment is a detached subtree: process id's instance chain topped at
// height h, waiting to be re-attached to the tree.
type fragment struct {
	id ProcID
	h  int
}

// New creates an empty DR-tree.
func New(p Params) (*Tree, error) {
	p = p.withDefaults()
	if err := p.validate(); err != nil {
		return nil, err
	}
	return &Tree{
		params: p,
		procs:  make(map[ProcID]*Process),
		nextID: 1,
	}, nil
}

// MustNew is New that panics on invalid parameters; for tests.
func MustNew(p Params) *Tree {
	t, err := New(p)
	if err != nil {
		panic(err)
	}
	return t
}

// Params returns the tree's configuration.
func (t *Tree) Params() Params { return t.params }

// Close releases engine resources. The sequential engine holds none; the
// method exists so Tree satisfies the unified Engine interface alongside
// the live runtime, which owns a goroutine.
func (t *Tree) Close() error { return nil }

// Len returns the number of live processes.
func (t *Tree) Len() int { return len(t.procs) }

// Root returns the root process ID and the root height. For an empty
// tree it returns (NoProc, -1).
func (t *Tree) Root() (ProcID, int) {
	if len(t.procs) == 0 {
		return NoProc, -1
	}
	return t.rootID, t.rootH
}

// Height returns the number of levels of the tree: rootH+1 for nonempty
// trees, 0 for the empty tree.
func (t *Tree) Height() int {
	if len(t.procs) == 0 {
		return 0
	}
	return t.rootH + 1
}

// Proc returns the process with the given id, or nil.
func (t *Tree) Proc(id ProcID) *Process { return t.procs[id] }

// RootMBR returns the MBR of the root instance, or the empty rectangle
// for an empty tree. In a legal state this equals the union of every
// live filter.
func (t *Tree) RootMBR() geom.Rect {
	if x := t.at(t.rootID, t.rootH); x != nilH {
		return t.ar.mbr[x]
	}
	return geom.Rect{}
}

// ProcIDs returns all live process IDs in ascending order.
func (t *Tree) ProcIDs() []ProcID {
	out := make([]ProcID, 0, len(t.procs))
	for id := range t.procs {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// Filter returns the subscription rectangle of process id.
func (t *Tree) Filter(id ProcID) (geom.Rect, bool) {
	p, ok := t.procs[id]
	if !ok {
		return geom.Rect{}, false
	}
	return p.Filter, true
}

// at returns the handle of process id's instance at height h, or nilH.
func (t *Tree) at(id ProcID, h int) Handle {
	p := t.procs[id]
	if p == nil {
		return nilH
	}
	return p.at(h)
}

// liveH reports whether handle x currently backs the live instance
// (owner, h). This is the cache-verification predicate: a recycled slot
// has owner NoProc or a different (owner, height) pair, and a process
// owns at most one instance per height, so a positive answer identifies
// the instance uniquely.
func (t *Tree) liveH(x Handle, owner ProcID, h int) bool {
	return x >= 0 && t.ar.owner[x] == owner && t.ar.height[x] == int32(h)
}

// kidHandle resolves the i-th child of instance x (child process c at
// height h), going through the kidH cache and writing back on miss.
func (t *Tree) kidHandle(x Handle, i int, c ProcID, h int) Handle {
	ch := t.ar.kidH[x][i]
	if t.liveH(ch, c, h) {
		return ch
	}
	ch = t.at(c, h)
	t.ar.kidH[x][i] = ch
	return ch
}

// instance returns a read-only snapshot of process id's instance at
// height h, or nil. For inspection and tests; the engine itself works on
// handles.
func (t *Tree) instance(id ProcID, h int) *Instance {
	x := t.at(id, h)
	if x == nilH {
		return nil
	}
	return &Instance{
		Parent:      t.ar.parent[x],
		Children:    slices.Clone(t.ar.kids[x]),
		MBR:         t.ar.mbr[x],
		Underloaded: t.ar.under[x],
	}
}

// childMBR returns the MBR of child c's instance at height h (empty if
// missing). Interior nodes consult the children's MBRs to route and
// filter; this helper is the sequential stand-in for that lookup.
func (t *Tree) childMBR(c ProcID, h int) geom.Rect {
	x := t.at(c, h)
	if x == nilH {
		return geom.Rect{}
	}
	return t.ar.mbr[x]
}

// computeMBR recomputes the MBR of instance (id, h) from its children
// (paper's Compute_MBR) or from the filter for leaves.
func (t *Tree) computeMBR(id ProcID, h int) {
	p := t.procs[id]
	x := p.at(h)
	if h == 0 {
		t.ar.mbr[x] = p.Filter
		return
	}
	var mbr geom.Rect
	for i, c := range t.ar.kids[x] {
		if ch := t.kidHandle(x, i, c, h-1); ch != nilH && !mbr.Contains(t.ar.mbr[ch]) {
			mbr = mbr.Union(t.ar.mbr[ch])
		}
	}
	t.ar.mbr[x] = mbr
}

// refreshUnderloaded recomputes the underloaded flag of (id, h).
func (t *Tree) refreshUnderloaded(id ProcID, h int) {
	x := t.at(id, h)
	if x == nilH || h == 0 {
		return
	}
	t.ar.under[x] = len(t.ar.kids[x]) < t.params.MinFanout
}

// newInstance installs a fresh instance for p at height h and returns
// its handle. Any instance already stored at that height is discarded
// (its handle returns to the free list), matching the pointer-era
// semantics where the overwritten *Instance became garbage.
func (t *Tree) newInstance(p *Process, h int) Handle {
	if old := p.at(h); old != nilH {
		t.ar.release(old)
	}
	x := t.ar.alloc(p.ID, h, p.slot)
	if t.params.TrackReorgStats {
		t.ar.childFP[x] = make(map[ProcID]int)
	}
	p.setInst(h, x)
	if h > p.Top {
		p.Top = h
	}
	return x
}

// releaseInst retires the instance at (p, h) for good: the height is
// vacated and the handle goes back to the arena's free list.
func (t *Tree) releaseInst(p *Process, h int) {
	x := p.at(h)
	p.clearInst(h)
	if x != nilH {
		t.ar.release(x)
	}
}

// allocSlot assigns a dense delivery slot to a joining process.
func (t *Tree) allocSlot() int32 {
	if n := len(t.slotFree); n > 0 {
		s := t.slotFree[n-1]
		t.slotFree = t.slotFree[:n-1]
		return s
	}
	s := t.nslots
	t.nslots++
	return s
}

// dropProc removes a departing process: its remaining instances go back
// to the arena and its delivery slot is recycled.
func (t *Tree) dropProc(p *Process) {
	for h := len(p.inst) - 1; h >= 0; h-- {
		if p.inst[h] != nilH {
			t.ar.release(p.inst[h])
		}
	}
	p.inst = p.inst[:0]
	t.slotFree = append(t.slotFree, p.slot)
	delete(t.procs, p.ID)
}

// dims returns the dimensionality of the tree's filters (0 if empty).
func (t *Tree) dims() int {
	for _, p := range t.procs {
		return p.Filter.Dims()
	}
	return 0
}
