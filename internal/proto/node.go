package proto

import (
	"math"
	"slices"

	"drtree/internal/core"
	"drtree/internal/geom"
	"drtree/internal/simnet"
	"drtree/internal/split"
)

// Config parameterizes a protocol cluster.
type Config struct {
	// MinFanout and MaxFanout are the paper's m and M (M >= 2m).
	MinFanout, MaxFanout int
	// Split is the node-splitting policy (default quadratic).
	Split split.Policy
	// PublishBudget bounds, in rounds, how long one Publish may run
	// before giving up on draining the network. 0 means adaptive
	// (800 + 200 per live process). The real-time LiveCluster
	// has no round clock and reads one round as one base check period
	// (checkBase) of wall-clock time, however far its actors' timers
	// have backed off.
	PublishBudget int
	// StabilizeBudget bounds, in rounds, one Stabilize call. 0 means
	// adaptive (800 + 200 per live process); the LiveCluster reading of
	// a round applies here too.
	StabilizeBudget int
}

func (c Config) withDefaults() Config {
	if c.Split == nil {
		c.Split = split.Quadratic{}
	}
	return c
}

// instance is one per-level node of a process (paper §3.2 data
// structures), kept strictly local to its owner. Instances are stored by
// value in the node's height-indexed table; the cached view of the
// children lives in parallel slices sorted by ascending ProcID, so the
// hot paths (event routing, best-child descent, MBR recomputation) scan
// contiguous memory without map iteration or per-visit sort allocations.
type instance struct {
	live   bool // false marks a vacant table slot (a gap left by faults)
	parent core.ProcID

	// Children, ascending by ID. childMBR and childUnder are the cached
	// parent-side view of each child (the paper's MBR and underloaded
	// variables), index-parallel with childID.
	childID    []core.ProcID
	childMBR   []geom.Rect
	childUnder []bool

	mbr         geom.Rect
	underloaded bool

	underRounds int // consecutive check periods spent underloaded
}

// numChildren returns the size of the children set.
func (in *instance) numChildren() int { return len(in.childID) }

// childIndex returns the position of child c, or -1 if absent.
func (in *instance) childIndex(c core.ProcID) int {
	if i, ok := slices.BinarySearch(in.childID, c); ok {
		return i
	}
	return -1
}

// hasChild reports whether c is in the children set.
func (in *instance) hasChild(c core.ProcID) bool { return in.childIndex(c) >= 0 }

// putChild inserts (or updates) child c with the given cached view,
// keeping the parallel slices sorted by ID.
func (in *instance) putChild(c core.ProcID, mbr geom.Rect, under bool) {
	i, ok := slices.BinarySearch(in.childID, c)
	if ok {
		in.childMBR[i] = mbr
		in.childUnder[i] = under
		return
	}
	in.childID = slices.Insert(in.childID, i, c)
	in.childMBR = slices.Insert(in.childMBR, i, mbr)
	in.childUnder = slices.Insert(in.childUnder, i, under)
}

// delChild removes child c, preserving order.
func (in *instance) delChild(c core.ProcID) {
	i := in.childIndex(c)
	if i < 0 {
		return
	}
	in.childID = slices.Delete(in.childID, i, i+1)
	in.childMBR = slices.Delete(in.childMBR, i, i+1)
	in.childUnder = slices.Delete(in.childUnder, i, i+1)
}

// setChildren replaces the whole children set. The ids need not arrive
// sorted; cached views default to the zero rectangle unless provided.
func (in *instance) setChildren(ids []core.ProcID, mbrs map[core.ProcID]geom.Rect) {
	in.childID = append(in.childID[:0], ids...)
	slices.Sort(in.childID)
	in.childID = slices.Compact(in.childID)
	in.childMBR = make([]geom.Rect, len(in.childID))
	in.childUnder = make([]bool, len(in.childID))
	for i, c := range in.childID {
		if mbrs != nil {
			in.childMBR[i] = mbrs[c]
		}
	}
}

// Node is one process actor.
type Node struct {
	id     core.ProcID
	filter geom.Rect
	cfg    Config

	// inst is the instance table indexed by height, stored by value so a
	// node's whole chain lives in one allocation; a node owns the
	// contiguous range 0..top (non-live entries are gaps left by faults).
	// Use at() for reads so out-of-range heights resolve to nil. Pointers
	// returned by at() are invalidated by setInst (the table may grow);
	// re-fetch after any call that can add an instance.
	inst []instance
	top  int

	// rejoinPending marks an orphaned topmost instance awaiting re-join.
	rejoinPending bool

	// told is what the parent of the topmost instance was last sent about
	// it unasked (reportTop); the live runtime's pushUp reports again when
	// the instance has moved away from it.
	told topView

	// Delivery accounting.
	seen      receiptSet
	Delivered int
	FalsePos  int

	// deliverCB, when set, observes each first receipt of an event (the
	// LiveCluster event hook plumbing; nil everywhere else). It runs
	// inside the owning runtime's actor turn — implementations must not
	// re-enter the cluster.
	deliverCB func(id int64, ev geom.Point, matched bool)

	// timer paces the node's CHECK_* timers in the live runtime (the
	// round scheduler fires them itself and leaves it zero).
	timer checkTimer

	out []simnet.Message
}

func newNode(id core.ProcID, filter geom.Rect, cfg Config) *Node {
	n := &Node{
		id:     id,
		filter: filter,
		cfg:    cfg,
		inst:   make([]instance, 0, 4),
	}
	n.setInst(0, instance{parent: id, mbr: filter})
	return n
}

// at returns the node's instance at height h, or nil when h is out of
// range or vacant. The pointer aims into the node's instance table: it is
// valid until the next setInst.
func (n *Node) at(h int) *instance {
	if h < 0 || h >= len(n.inst) || !n.inst[h].live {
		return nil
	}
	return &n.inst[h]
}

// setInst stores in at height h, growing the table as needed. Existing
// *instance pointers into the table are invalidated.
func (n *Node) setInst(h int, in instance) {
	for len(n.inst) <= h {
		n.inst = append(n.inst, instance{})
	}
	in.live = true
	n.inst[h] = in
}

// clearInst vacates height h and trims trailing vacancies.
func (n *Node) clearInst(h int) {
	if h < 0 || h >= len(n.inst) {
		return
	}
	n.inst[h] = instance{}
	l := len(n.inst)
	for l > 0 && !n.inst[l-1].live {
		l--
	}
	n.inst = n.inst[:l]
}

// instCount returns the number of instances the node currently owns.
func (n *Node) instCount() int {
	c := 0
	for i := range n.inst {
		if n.inst[i].live {
			c++
		}
	}
	return c
}

// ID returns the node's process ID.
func (n *Node) ID() core.ProcID { return n.id }

// Filter returns the node's subscription rectangle.
func (n *Node) Filter() geom.Rect { return n.filter }

// Top returns the height of the node's topmost instance.
func (n *Node) Top() int { return n.top }

// Instance returns a read-only view of the node's instance at height h
// (parent, sorted children, MBR) for checkers and visualization.
func (n *Node) Instance(h int) (parent core.ProcID, children []core.ProcID, mbr geom.Rect, ok bool) {
	in := n.at(h)
	if in == nil {
		return core.NoProc, nil, geom.Rect{}, false
	}
	children = append([]core.ProcID(nil), in.childID...)
	return in.parent, children, in.mbr, true
}

// send enqueues an outgoing message.
func (n *Node) send(to core.ProcID, payload any) {
	n.out = append(n.out, simnet.Message{
		From:    simnet.NodeID(n.id),
		To:      simnet.NodeID(to),
		Payload: payload,
	})
}

// drainOut returns and clears the outbox.
func (n *Node) drainOut() []simnet.Message {
	out := n.out
	n.out = nil
	return out
}

// isRootInstance reports whether instance h is the tree root from this
// node's local view: topmost and self-parented.
func (n *Node) isRootInstance(h int) bool {
	in := n.at(h)
	return in != nil && h == n.top && in.parent == n.id && !n.rejoinPending
}

// process handles one inbound message.
func (n *Node) process(m simnet.Message) {
	switch p := m.Payload.(type) {
	case mJoin:
		n.onJoin(p)
	case mAdd:
		n.onAdd(p.Child, p.MBR, p.Height)
	case mWelcome:
		n.onNewParent(p.Height, p.Parent)
		n.rejoinPending = false
	case mNewParent:
		n.onNewParent(p.Height, p.Parent)
	case mPromote:
		n.onPromote(p)
	case mLeave:
		n.removeChild(p.Height, p.Child)
	case mRemoveChild:
		n.removeChild(p.Height, p.Child)
	case mDissolved:
		n.markOrphan(p.Height)
	case mBecomeRoot:
		n.onBecomeRoot(p.Height)
	case mShrink:
		n.dissolve(p.Height)
	case mParentQuery:
		n.onParentQuery(core.ProcID(m.From), p)
	case mParentAck:
		n.onParentAck(p)
	case mChildQuery:
		n.onChildQuery(core.ProcID(m.From), p)
	case mChildReport:
		n.onChildReport(core.ProcID(m.From), p)
	case mFilterUpdate:
		n.onFilterUpdate(p)
	case mEvent:
		n.onEvent(p)
	case simnet.Bounce:
		n.onBounce(core.ProcID(p.To), p.Original)
	}
}

// onFilterUpdate replaces this node's subscription filter (FILTER_UPDATE,
// the FilterUpdater capability): the leaf MBR follows the filter, the own
// chain is made coherent at once, and the parent of the topmost instance
// is told without waiting for its next CHECK_CHILDREN probe. From there
// the change travels to the root with the CHECK_MBR probes (round-based
// Cluster) or hop by hop with each ancestor's pushUp (LiveCluster).
func (n *Node) onFilterUpdate(p mFilterUpdate) {
	n.filter = p.Filter
	n.recomputeMBR(0)
	if n.at(0) == nil {
		return
	}
	n.refreshOwnChain()
	n.reportTop()
}

// refreshOwnChain recomputes the interior instances bottom-up from the
// cached views of their children, reading the own child locally, so a
// change low in the own chain shows in the topmost MBR in the same turn.
func (n *Node) refreshOwnChain() {
	for h := 1; h <= n.top; h++ {
		hi := n.at(h)
		if hi == nil {
			break
		}
		if low := n.at(h - 1); low != nil {
			if i := hi.childIndex(n.id); i >= 0 {
				hi.childMBR[i] = low.mbr
			}
		}
		n.recomputeMBR(h)
	}
}

// topView is the part of a topmost instance its parent caches.
type topView struct {
	parent core.ProcID
	height int
	mbr    geom.Rect
	under  bool
}

// reportTop sends the parent of the topmost instance the answer its next
// CHECK_CHILDREN probe would get, and remembers what it said.
func (n *Node) reportTop() {
	top := n.at(n.top)
	if top == nil || top.parent == n.id || top.parent == core.NoProc {
		return
	}
	n.send(top.parent, mChildReport{
		Height:      n.top + 1,
		MBR:         top.mbr,
		Underloaded: top.underloaded,
		ParentIs:    top.parent,
		Exists:      true,
	})
	n.told = topView{parent: top.parent, height: n.top, mbr: top.mbr, under: top.underloaded}
}

// pushUp ends every actor turn of the live runtime: whatever the turn
// changed below is folded into the topmost instance, and when that
// instance's (MBR, underloaded) is no longer what its parent was last
// told, the parent is told now. A grown or shrunk MBR thus reaches the
// root in one message per level instead of one check period per level,
// which is what lets the live CHECK_* timers back off without opening a
// false-negative window (see checkCap). The round-based Cluster does not
// call it: its message counts are exact-gated and its check period is a
// round count, not a delay.
func (n *Node) pushUp() {
	n.refreshOwnChain()
	top := n.at(n.top)
	if top == nil || n.rejoinPending {
		return
	}
	if t := n.told; t.parent == top.parent && t.height == n.top &&
		t.under == top.underloaded && t.mbr.Equal(top.mbr) {
		return
	}
	n.reportTop()
}

// fingerprint hashes everything the stabilization modules read and write:
// top, rejoinPending, the filter, and every instance's parent, MBR,
// underloaded flag, underRounds and cached children. Two equal
// fingerprints mean a turn left the protocol state as it was, whatever
// messages it handled; the live runtime paces its timers on that. (A
// 64-bit collision would only delay a back-off reset by one period.)
func (n *Node) fingerprint() uint64 {
	h := fpHash(1).word(uint64(len(n.inst))).word(uint64(n.top)).flag(n.rejoinPending).rect(n.filter)
	for i := range n.inst {
		in := &n.inst[i]
		h = h.flag(in.live).word(uint64(in.parent)).rect(in.mbr).
			flag(in.underloaded).word(uint64(in.underRounds)).word(uint64(len(in.childID)))
		for j, c := range in.childID {
			h = h.word(uint64(c)).rect(in.childMBR[j]).flag(in.childUnder[j])
		}
	}
	return uint64(h)
}

// fpHash is fingerprint's running hash: multiply-xorshift over 64-bit words.
type fpHash uint64

func (h fpHash) word(w uint64) fpHash {
	h = (h ^ fpHash(w)) * 0x9E3779B97F4A7C15
	return h ^ h>>32
}

func (h fpHash) flag(b bool) fpHash {
	if b {
		return h.word(1)
	}
	return h.word(0)
}

func (h fpHash) rect(r geom.Rect) fpHash {
	d := r.Dims()
	h = h.word(uint64(d))
	for i := 0; i < d; i++ {
		h = h.word(math.Float64bits(r.Lo(i))).word(math.Float64bits(r.Hi(i)))
	}
	return h
}

// onJoin routes a join request (Figure 8): climb to the root, then
// descend by least enlargement, then ADD_CHILD at AtHeight+1.
func (n *Node) onJoin(p mJoin) {
	if p.Joiner == n.id {
		// Our own join routed back to us: the climb terminated at this
		// node, so the contact's tree already names us root. Acting on
		// it would make the root its own child; for a root-audit probe
		// (auditRoot) the drop IS the confirmation. For a pending
		// rejoin the loop-back is the resolution itself: no one will
		// welcome a node into a tree it already tops, so waiting for
		// mWelcome would leave it pending forever — spamming rejoins,
		// invisible to the oracle, and dropping foreign joins (a
		// pending node is not a root to descend from). Accept the root
		// role instead.
		if n.rejoinPending {
			if in := n.at(n.top); in != nil && in.parent == n.id {
				n.rejoinPending = false
			}
		}
		return
	}
	h := p.Height
	if n.at(h) == nil {
		h = n.top
	}
	in := n.at(h)
	// Climb until this instance is the root, then descend.
	if !p.Descend && !n.isRootInstance(h) {
		parent := in.parent
		if parent == n.id || parent == core.NoProc || n.at(n.top) == nil {
			// Orphaned contact: best effort, insert here if possible.
			if n.top > p.AtHeight {
				n.descendJoin(p, n.top)
			}
			return
		}
		n.send(parent, mJoin{
			Joiner: p.Joiner, MBR: p.MBR, AtHeight: p.AtHeight,
			Height: n.top + 1,
		})
		return
	}
	n.descendJoin(p, h)
}

func (n *Node) descendJoin(p mJoin, h int) {
	in := n.at(h)
	if in == nil {
		return
	}
	if h <= p.AtHeight {
		// The joiner's subtree is as tall as (or taller than) this tree.
		if !n.isRootInstance(h) {
			return
		}
		if h == p.AtHeight {
			n.mergeRoot(p, h)
		} else {
			// Taller fragment: it must shed a level and retry.
			n.send(p.Joiner, mShrink{Height: p.AtHeight})
		}
		return
	}
	in.mbr = in.mbr.Union(p.MBR)
	if h == p.AtHeight+1 {
		n.onAdd(p.Joiner, p.MBR, h)
		return
	}
	best := n.chooseBestChild(in, p.MBR)
	if best == core.NoProc || best == n.id {
		if n.at(h-1) != nil {
			// Continue down our own chain locally.
			n.descendJoin(p, h-1)
			return
		}
		return
	}
	n.send(best, mJoin{
		Joiner: p.Joiner, MBR: p.MBR, AtHeight: p.AtHeight,
		Height: h - 1, Descend: true,
	})
}

// mergeRoot handles a join whose subtree is exactly as tall as the whole
// tree (including the second-subscriber case over a lone leaf root): a
// new common root is elected over the two by largest MBR (Figure 6).
func (n *Node) mergeRoot(p mJoin, h int) {
	in := n.at(h)
	if in.mbr.Area() >= p.MBR.Area() {
		// We host the new root.
		ownMBR := in.mbr
		nr := instance{parent: n.id, mbr: ownMBR.Union(p.MBR)}
		nr.putChild(n.id, ownMBR, false)
		nr.putChild(p.Joiner, p.MBR, false)
		n.setInst(h+1, nr) // invalidates in
		n.top = h + 1
		n.at(h).parent = n.id
		n.refreshUnderloaded(h + 1)
		n.send(p.Joiner, mWelcome{Height: p.AtHeight, Parent: n.id})
		return
	}
	// The joiner hosts the new root.
	in.parent = p.Joiner
	n.send(p.Joiner, mPromote{
		Height:  h + 1,
		Members: []member{{ID: n.id, MBR: in.mbr}, {ID: p.Joiner, MBR: p.MBR}},
		Root:    true,
	})
}

// chooseBestChild scans the sorted children slices directly: ascending ID
// order gives the deterministic tie-break without per-call sorting.
func (n *Node) chooseBestChild(in *instance, f geom.Rect) core.ProcID {
	best := core.NoProc
	var bestEnl, bestArea float64
	for i, c := range in.childID {
		enl := in.childMBR[i].Enlargement(f)
		area := in.childMBR[i].Area()
		if best == core.NoProc || enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = c, enl, area
		}
	}
	return best
}

// onAdd is ADD_CHILD at instance Height (Figure 8): adopt the child,
// split on overflow.
func (n *Node) onAdd(child core.ProcID, mbr geom.Rect, h int) {
	in := n.at(h)
	if in == nil {
		// The target instance vanished; redirect the child to rejoin via
		// our topmost instance.
		n.send(child, mDissolved{Height: h - 1})
		return
	}
	in.putChild(child, mbr, false)
	in.mbr = in.mbr.Union(mbr)
	n.send(child, mWelcome{Height: h - 1, Parent: n.id})
	n.refreshUnderloaded(h)
	if in.numChildren() <= n.cfg.MaxFanout {
		return
	}
	n.splitInstance(h)
}

// splitInstance splits the overflowing instance at h, keeps the group
// containing the own child, and promotes an elected leader (largest MBR,
// Figure 6) for the other group.
func (n *Node) splitInstance(h int) {
	in := n.at(h)
	ids := append([]core.ProcID(nil), in.childID...) // already ascending
	rects := make([]geom.Rect, len(ids))
	for i, c := range ids {
		if c == n.id && n.at(h-1) != nil {
			rects[i] = n.at(h - 1).mbr
		} else {
			rects[i] = in.childMBR[i]
		}
	}
	leftIdx, rightIdx, err := n.cfg.Split.Split(rects, n.cfg.MinFanout)
	if err != nil {
		return // keep the overflow; a later check retries
	}
	own := -1
	for i, c := range ids {
		if c == n.id {
			own = i
		}
	}
	if own >= 0 && containsInt(rightIdx, own) {
		leftIdx, rightIdx = rightIdx, leftIdx
	}

	// Keep the left group.
	slices.Sort(leftIdx)
	leftIDs := make([]core.ProcID, 0, len(leftIdx))
	leftMBRs := make(map[core.ProcID]geom.Rect, len(leftIdx))
	leftUnder := make(map[core.ProcID]bool, len(leftIdx))
	var leftMBR geom.Rect
	for _, i := range leftIdx {
		leftIDs = append(leftIDs, ids[i])
		leftMBRs[ids[i]] = in.childMBR[i]
		leftUnder[ids[i]] = in.childUnder[i]
		leftMBR = leftMBR.Union(rects[i])
	}
	// Elect the right leader: largest MBR, ties by lowest ID.
	bestAt := rightIdx[0]
	for _, i := range rightIdx {
		if rects[i].Area() > rects[bestAt].Area() ||
			(rects[i].Area() == rects[bestAt].Area() && ids[i] < ids[bestAt]) {
			bestAt = i
		}
	}
	leader := ids[bestAt]
	members := make([]member, 0, len(rightIdx))
	var rightMBR geom.Rect
	for _, i := range rightIdx {
		members = append(members, member{ID: ids[i], MBR: rects[i]})
		rightMBR = rightMBR.Union(rects[i])
	}

	wasRoot := n.isRootInstance(h)
	in.setChildren(leftIDs, leftMBRs)
	for i, c := range in.childID {
		in.childUnder[i] = leftUnder[c]
	}
	in.mbr = leftMBR
	n.refreshUnderloaded(h)

	if wasRoot {
		// Create_Root: elect the new root among the two leaders.
		if leftMBR.Area() >= rightMBR.Area() {
			// We stay root: host a new root instance at h+1.
			nr := instance{parent: n.id, mbr: leftMBR.Union(rightMBR)}
			nr.putChild(n.id, leftMBR, false)
			nr.putChild(leader, rightMBR, false)
			n.setInst(h+1, nr) // invalidates in
			n.top = h + 1
			n.at(h).parent = n.id
			n.send(leader, mPromote{Height: h, Members: members, Parent: n.id})
		} else {
			in.parent = leader
			n.send(leader, mPromote{
				Height: h, Members: members, Root: true,
				Sibling: &member{ID: n.id, MBR: leftMBR},
			})
		}
		return
	}
	n.send(leader, mPromote{Height: h, Members: members, Parent: in.parent})
	// The leader will announce itself to the parent via mAdd.
}

// onPromote creates the instance a split elected this node to lead.
func (n *Node) onPromote(p mPromote) {
	in := instance{}
	for _, m := range p.Members {
		in.putChild(m.ID, m.MBR, false)
		in.mbr = in.mbr.Union(m.MBR)
		if m.ID != n.id {
			n.send(m.ID, mNewParent{Height: p.Height - 1, Parent: n.id})
		}
	}
	ownChild := in.hasChild(n.id)
	inMBR := in.mbr
	n.setInst(p.Height, in)
	if p.Height > n.top {
		n.top = p.Height
	}
	if own := n.at(p.Height - 1); own != nil && ownChild {
		own.parent = n.id
	}
	n.refreshUnderloaded(p.Height)
	switch {
	case p.Root && p.Sibling != nil:
		// Become the tree root over {sibling, self}.
		root := instance{parent: n.id, mbr: inMBR.Union(p.Sibling.MBR)}
		root.putChild(p.Sibling.ID, p.Sibling.MBR, false)
		root.putChild(n.id, inMBR, false)
		n.setInst(p.Height+1, root)
		n.top = p.Height + 1
		n.at(p.Height).parent = n.id
		n.rejoinPending = false
		n.send(p.Sibling.ID, mNewParent{Height: p.Height, Parent: n.id})
	case p.Root:
		n.at(p.Height).parent = n.id
		n.rejoinPending = false
	default:
		n.at(p.Height).parent = p.Parent
		n.send(p.Parent, mAdd{Child: n.id, MBR: inMBR, Height: p.Height + 1})
	}
}

// onNewParent records a parent change for the instance at Height.
func (n *Node) onNewParent(h int, parent core.ProcID) {
	in := n.at(h)
	if in == nil {
		return
	}
	in.parent = parent
	if h == n.top {
		n.rejoinPending = false
	}
}

// onBecomeRoot promotes this node's instance at Height to tree root after
// a root collapse.
func (n *Node) onBecomeRoot(h int) {
	in := n.at(h)
	if in == nil || h != n.top {
		return
	}
	in.parent = n.id
	n.rejoinPending = false
}

// removeChild drops a child from the instance at Height.
func (n *Node) removeChild(h int, child core.ProcID) {
	in := n.at(h)
	if in == nil {
		return
	}
	in.delChild(child)
	n.recomputeMBR(h)
	n.refreshUnderloaded(h)
}

// markOrphan flags the instance at Height as detached; the periodic check
// re-joins it through the oracle.
func (n *Node) markOrphan(h int) {
	in := n.at(h)
	if in == nil {
		return
	}
	in.parent = n.id
	if h == n.top {
		n.rejoinPending = true
	}
}

// onParentQuery answers CHECK_PARENT.
func (n *Node) onParentQuery(from core.ProcID, p mParentQuery) {
	in := n.at(p.Height + 1)
	is := in != nil && in.hasChild(p.Child)
	n.send(from, mParentAck{Height: p.Height, IsChild: is})
}

// onParentAck reacts to a CHECK_PARENT answer: a negative answer orphans
// the instance (Figure 11: set yourself as parent and re-join).
func (n *Node) onParentAck(p mParentAck) {
	if !p.IsChild {
		n.markOrphan(p.Height)
	}
}

// onChildQuery reports this node's instance at Height-1 to the parent.
func (n *Node) onChildQuery(from core.ProcID, p mChildQuery) {
	in := n.at(p.Height - 1)
	rep := mChildReport{Height: p.Height}
	if in != nil {
		rep.Exists = true
		rep.MBR = in.mbr
		rep.Underloaded = in.underloaded
		rep.ParentIs = in.parent
	}
	n.send(from, rep)
}

// onChildReport integrates a CHECK_CHILDREN answer: discard children with
// another parent (Figure 12), refresh the MBR cache (Figure 10).
func (n *Node) onChildReport(from core.ProcID, p mChildReport) {
	in := n.at(p.Height)
	if in == nil {
		return
	}
	i := in.childIndex(from)
	if i < 0 {
		return
	}
	if !p.Exists || p.ParentIs != n.id {
		in.delChild(from)
	} else {
		in.childMBR[i] = p.MBR
		in.childUnder[i] = p.Underloaded
	}
	n.recomputeMBR(p.Height)
	n.refreshUnderloaded(p.Height)
}

// onBounce reacts to an undeliverable message: the peer is dead.
func (n *Node) onBounce(dead core.ProcID, original any) {
	switch orig := original.(type) {
	case mChildQuery:
		n.removeChild(orig.Height, dead)
	case mParentQuery:
		n.markOrphan(orig.Height)
	case mJoin:
		// Routing hop died; retry through our own top next check.
		if orig.Joiner == n.id {
			n.rejoinPending = true
		}
	case mAdd:
		// Our new parent died before adopting us.
		n.markOrphan(orig.Height - 1)
	case mEvent, mChildReport, mParentAck, mWelcome, mNewParent:
		// Stale traffic to a dead peer; the periodic checks handle it.
	default:
		// Conservative: if we were talking to our parent, re-check soon.
	}
}

// recomputeMBR refreshes the instance MBR from the children cache
// (CHECK_MBR, Figure 10).
func (n *Node) recomputeMBR(h int) {
	in := n.at(h)
	if in == nil {
		return
	}
	if h == 0 {
		in.mbr = n.filter
		return
	}
	var mbr geom.Rect
	for i, c := range in.childID {
		cm := in.childMBR[i]
		if c == n.id {
			if low := n.at(h - 1); low != nil {
				cm = low.mbr
			}
		}
		if !mbr.Contains(cm) {
			mbr = mbr.Union(cm)
		}
	}
	in.mbr = mbr
}

func (n *Node) refreshUnderloaded(h int) {
	in := n.at(h)
	if in == nil || h == 0 {
		return
	}
	in.underloaded = in.numChildren() < n.cfg.MinFanout
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
