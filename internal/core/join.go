package core

import (
	"fmt"

	"drtree/internal/geom"
)

// JoinStats reports the cost of a join for experiment E3 (Lemma 3.2).
type JoinStats struct {
	// UpHops is the number of hops from the contact node to the root
	// (zero when joining at the root).
	UpHops int
	// DownHops is the number of routing steps from the root down to the
	// insertion node.
	DownHops int
	// Splits is the number of node splits the insertion triggered.
	Splits int
	// Messages approximates inter-process messages: hops plus split
	// traffic (each split costs one ADD_CHILD to the parent).
	Messages int
}

// Join inserts a new subscriber with the given filter, routing from the
// root (the best starting point per §3.2 "Joins"). The process ID must be
// positive and unused.
func (t *Tree) Join(id ProcID, f geom.Rect) error {
	_, err := t.join(id, f, 0)
	return err
}

// JoinWithStats is Join reporting the insertion cost (experiment E3,
// Lemma 3.2).
func (t *Tree) JoinWithStats(id ProcID, f geom.Rect) (JoinStats, error) {
	return t.join(id, f, 0)
}

// JoinFrom inserts a new subscriber starting from an arbitrary contact
// node (the paper's connection oracle): the request is first redirected
// upward until it reaches the root, then routed down.
func (t *Tree) JoinFrom(contact, id ProcID, f geom.Rect) error {
	_, err := t.JoinFromWithStats(contact, id, f)
	return err
}

// JoinFromWithStats is JoinFrom reporting the insertion cost.
func (t *Tree) JoinFromWithStats(contact, id ProcID, f geom.Rect) (JoinStats, error) {
	up, err := t.hopsToRoot(contact)
	if err != nil {
		return JoinStats{}, err
	}
	return t.join(id, f, up)
}

// AddSubscriber is Join with an auto-assigned process ID.
func (t *Tree) AddSubscriber(f geom.Rect) (ProcID, JoinStats, error) {
	for t.procs[t.nextID] != nil {
		t.nextID++
	}
	id := t.nextID
	t.nextID++
	st, err := t.JoinWithStats(id, f)
	if err != nil {
		return NoProc, JoinStats{}, err
	}
	return id, st, nil
}

func (t *Tree) join(id ProcID, f geom.Rect, upHops int) (JoinStats, error) {
	if id <= NoProc {
		return JoinStats{}, fmt.Errorf("core: process IDs must be positive, got %d", id)
	}
	if t.procs[id] != nil {
		return JoinStats{}, fmt.Errorf("core: process %d already joined", id)
	}
	if f.IsEmpty() {
		return JoinStats{}, fmt.Errorf("core: filter must be a non-empty rectangle")
	}
	if d := t.dims(); d != 0 && f.Dims() != d {
		return JoinStats{}, fmt.Errorf("core: filter has %d dims, tree uses %d", f.Dims(), d)
	}

	// A crash can leave the root reference dangling until the periodic
	// checks fire. A join routes from the root and the paper's connection
	// oracle always names a live one, so repair the reference eagerly
	// before routing.
	if len(t.procs) > 0 {
		if rp := t.procs[t.rootID]; rp == nil || rp.at(t.rootH) == nilH {
			var rst StabReport
			t.ensureRoot(&rst)
		}
	}

	p := &Process{ID: id, Filter: f, inst: make([]Handle, 0, 4), slot: t.allocSlot()}
	t.procs[id] = p
	leaf := t.newInstance(p, 0)
	t.ar.mbr[leaf] = f
	t.ar.parent[leaf] = id // provisional; set below

	st := JoinStats{UpHops: upHops}

	switch {
	case len(t.procs) == 1:
		// First subscriber: it is the root, a lone leaf.
		t.rootID, t.rootH = id, 0
	case t.rootH == 0:
		// Second subscriber: elect a root over the two leaves.
		other := t.rootID
		ids := []ProcID{other, id}
		mbrs := []geom.Rect{t.procs[other].Filter, f}
		w := ids[t.params.Election.ChooseLeader(ids, mbrs)]
		root := t.newInstance(t.procs[w], 1)
		t.ar.setKids(root, ids, t.params.MaxFanout)
		t.ar.parent[root] = w
		t.ar.parent[t.at(other, 0)] = w
		t.ar.parent[leaf] = w
		t.computeMBR(w, 1)
		t.refreshUnderloaded(w, 1)
		t.rootID, t.rootH = w, 1
		st.Messages = upHops + 1
	default:
		// Route down from the root to the last non-leaf level, adjusting
		// MBRs on the way (Figure 8), then ADD_CHILD.
		cur, h := t.rootID, t.rootH
		for h > 1 {
			x := t.at(cur, h)
			if !t.ar.mbr[x].Contains(f) { // Union is a no-op (and an alloc) when covered
				t.ar.mbr[x] = t.ar.mbr[x].Union(f)
			}
			next := t.chooseBestChild(x, h, f)
			if next == NoProc {
				// Every child reference at this level is stale (crashes the
				// checks have not repaired yet): park the new leaf as a
				// fragment for the next stabilization pass, like ADD_CHILD
				// does when its target vanishes mid-repair.
				t.pendingFragments = append(t.pendingFragments, fragment{id: id, h: 0})
				return st, nil
			}
			cur = next
			h--
			st.DownHops++
		}
		splits := t.addChild(cur, 1, id)
		st.Splits = splits
		st.Messages = upHops + st.DownHops + 1 + splits
		// Restore the cover invariant along the insertion path so a join
		// leaves the configuration legitimate (Lemma 3.2). The paper
		// defers this to the periodic CHECK_COVER; doing it inline is the
		// eager equivalent.
		t.fixCoverUp(id, 0)
	}
	return st, nil
}

// fixCoverLocal applies the CHECK_COVER rule at instance (pid, h): while
// some child's MBR covers better than pid's own child node, the two
// processes exchange roles. It returns the process finally occupying
// height h.
func (t *Tree) fixCoverLocal(pid ProcID, h int) ProcID {
	if t.params.DisableCoverRule {
		return pid
	}
	for {
		x := t.at(pid, h)
		if x == nilH {
			return pid
		}
		own := t.childMBR(pid, h-1)
		best := NoProc
		bestArea := own.Area()
		for _, c := range t.ar.kids[x] {
			if c == pid {
				continue
			}
			if a := t.childMBR(c, h-1).Area(); a > bestArea {
				best, bestArea = c, a
			}
		}
		if best == NoProc {
			return pid
		}
		t.exchangeRoles(pid, best, h)
		pid = best
	}
}

// fixCoverUp climbs from instance (id, h) to the root and applies the
// CHECK_COVER rule at every ancestor: if some child's MBR covers better
// than the parent's own child node, the two processes exchange roles.
func (t *Tree) fixCoverUp(id ProcID, h int) {
	if t.params.DisableCoverRule {
		return
	}
	for {
		x := t.at(id, h)
		if x == nilH {
			return
		}
		if h >= 1 {
			own := t.childMBR(id, h-1)
			best := NoProc
			bestArea := own.Area()
			for _, c := range t.ar.kids[x] {
				if c == id {
					continue
				}
				if a := t.childMBR(c, h-1).Area(); a > bestArea {
					best, bestArea = c, a
				}
			}
			if best != NoProc {
				t.exchangeRoles(id, best, h)
				id = best
				x = t.at(id, h)
				if x == nilH {
					return
				}
			}
		}
		if id == t.rootID && h == t.rootH {
			return
		}
		next := t.ar.parent[x]
		if next == NoProc || t.procs[next] == nil || (next == id && h >= t.procs[id].Top) {
			return
		}
		id, h = next, h+1
		if h > t.rootH {
			return
		}
	}
}

// hopsToRoot counts the parent-chain hops from contact's topmost instance
// to the root (the upward redirection of join requests).
func (t *Tree) hopsToRoot(contact ProcID) (int, error) {
	p := t.procs[contact]
	if p == nil {
		return 0, NotMemberf("core: contact process %d not found", contact)
	}
	hops := 0
	cur, h := contact, p.Top
	for !(cur == t.rootID && h == t.rootH) {
		x := t.at(cur, h)
		if x == nilH {
			return 0, fmt.Errorf("core: broken parent chain at process %d height %d", cur, h)
		}
		next := t.ar.parent[x]
		if next != cur {
			hops++
		}
		cur = next
		h++
		if h > t.rootH+1 {
			return 0, fmt.Errorf("core: parent chain of %d does not reach the root", contact)
		}
		// Continue from the next process's instance at height h; its
		// topmost may be higher, which the loop handles one level at a
		// time.
	}
	return hops, nil
}

// chooseBestChild implements Choose_Best_Child: the child whose MBR needs
// the least enlargement to encompass the joining filter, ties broken by
// smaller area, then by lower ID. x is the instance routing at height h.
func (t *Tree) chooseBestChild(x Handle, h int, f geom.Rect) ProcID {
	best := NoProc
	var bestEnl, bestArea float64
	for i, c := range t.ar.kids[x] {
		ch := t.kidHandle(x, i, c, h-1)
		if ch == nilH {
			continue // stale reference mid-repair; skip
		}
		mbr := t.ar.mbr[ch]
		enl := mbr.Enlargement(f)
		area := mbr.Area()
		if best == NoProc ||
			enl < bestEnl ||
			(enl == bestEnl && area < bestArea) ||
			(enl == bestEnl && area == bestArea && c < best) {
			best, bestEnl, bestArea = c, enl, area
		}
	}
	return best
}

// addChild attaches subtree root q (whose topmost instance is at height
// h-1) as a child of p's instance at height h, splitting overflowing
// nodes recursively (Figure 8's ADD_CHILD). It returns the number of
// splits performed.
func (t *Tree) addChild(pid ProcID, h int, qid ProcID) int {
	x := t.at(pid, h)
	if x == nilH {
		// The target vanished mid-repair; requeue the subtree so a later
		// pass re-attaches it.
		t.pendingFragments = append(t.pendingFragments, fragment{id: qid, h: h - 1})
		return 0
	}
	t.ar.addKid(x, qid, t.params.MaxFanout)
	t.ar.parent[t.at(qid, h-1)] = pid
	if qm := t.childMBR(qid, h-1); !t.ar.mbr[x].Contains(qm) {
		t.ar.mbr[x] = t.ar.mbr[x].Union(qm)
	}
	t.refreshUnderloaded(pid, h)

	if len(t.ar.kids[x]) <= t.params.MaxFanout {
		// Is_Better_MBR_Cover: if a child covers better than the current
		// parent, they exchange roles (Adjust_Parent / CHECK_COVER).
		t.fixCoverLocal(pid, h)
		return 0
	}
	return t.splitInstance(pid, h)
}

// splitInstance splits the overflowing children set of (pid, h) into two
// groups (Split_Node), keeps the group containing pid's own child, elects
// a leader for the other group, and pushes the new node to the parent —
// creating a new root if pid's instance was the root (Create_Root).
func (t *Tree) splitInstance(pid ProcID, h int) int {
	x := t.at(pid, h)
	members := append([]ProcID(nil), t.ar.kids[x]...)
	rects := make([]geom.Rect, len(members))
	for i, c := range members {
		rects[i] = t.childMBR(c, h-1)
	}
	leftIdx, rightIdx, err := t.params.Split.Split(rects, t.params.MinFanout)
	if err != nil {
		// Cannot happen for a legal overflow (M+1 >= 2m+1 members); keep
		// the overflowing node rather than corrupting the structure.
		return 0
	}
	// pid's own child instance must stay in pid's group. If the own child
	// is missing entirely, the instance is corrupt: leave it for
	// CHECK_CHILDREN to dissolve rather than splitting garbage.
	own := indexOf(members, pid)
	if own == -1 {
		return 0
	}
	if containsIdx(rightIdx, own) {
		leftIdx, rightIdx = rightIdx, leftIdx
	}

	// pid keeps the left group.
	left := make([]ProcID, 0, len(leftIdx))
	for _, i := range leftIdx {
		left = append(left, members[i])
	}
	t.ar.setKids(x, left, t.params.MaxFanout)
	t.computeMBR(pid, h)
	t.refreshUnderloaded(pid, h)

	// Elect a leader for the right group (Figure 6) and promote it.
	rightIDs := make([]ProcID, len(rightIdx))
	rightMBRs := make([]geom.Rect, len(rightIdx))
	for i, idx := range rightIdx {
		rightIDs[i] = members[idx]
		rightMBRs[i] = rects[idx]
	}
	rid := rightIDs[t.params.Election.ChooseLeader(rightIDs, rightMBRs)]
	r := t.procs[rid]
	rx := t.newInstance(r, h)
	t.ar.setKids(rx, rightIDs, t.params.MaxFanout)
	for _, c := range rightIDs {
		t.ar.parent[t.at(c, h-1)] = rid
	}
	t.computeMBR(rid, h)
	t.refreshUnderloaded(rid, h)

	// Splitting shrank pid's MBR at h; its own child node may no longer
	// be the best cover of the kept group. Re-establish the cover
	// invariant locally before wiring the new sibling upward.
	leftID := t.fixCoverLocal(pid, h)
	lx := t.at(leftID, h)
	if lx == nilH {
		// Corrupt surroundings (possible only mid-stabilization): requeue
		// the new sibling so a later pass re-attaches it.
		t.pendingFragments = append(t.pendingFragments, fragment{id: rid, h: h})
		return 1
	}

	if leftID == t.rootID && h == t.rootH {
		// Root split: elect the new root among the two group leaders.
		ids := []ProcID{leftID, rid}
		mbrs := []geom.Rect{t.ar.mbr[lx], t.ar.mbr[rx]}
		w := ids[t.params.Election.ChooseLeader(ids, mbrs)]
		nr := t.newInstance(t.procs[w], h+1)
		t.ar.setKids(nr, ids, t.params.MaxFanout)
		t.ar.parent[nr] = w
		t.ar.parent[lx] = w
		t.ar.parent[rx] = w
		t.computeMBR(w, h+1)
		t.refreshUnderloaded(w, h+1)
		t.rootID, t.rootH = w, h+1
		return 1
	}
	g := t.ar.parent[lx]
	return 1 + t.addChild(g, h+1, rid)
}

// exchangeRoles makes q take over p's interior role from height h up to
// p's topmost instance (the paper's Adjust_Parent, extended to cascade so
// the "process is its own child" invariant is preserved at every level).
// q must currently be a child of p at height h-1. The instances
// themselves stay in place in the arena: only their owner (and the
// processes' handle tables) change.
func (t *Tree) exchangeRoles(pid, qid ProcID, h int) {
	p := t.procs[pid]
	q := t.procs[qid]
	top := p.Top
	wasRoot := t.rootID == pid

	for hh := h; hh <= top; hh++ {
		x := p.at(hh)
		p.clearInst(hh)
		if hh > h {
			// p's own child at hh-1 has become q's.
			t.ar.replaceKid(x, pid, qid)
		}
		t.ar.owner[x] = qid
		t.ar.slot[x] = q.slot
		if old := q.at(hh); old != nilH {
			t.ar.release(old) // mid-repair leftovers are discarded, as before
		}
		q.setInst(hh, x)
		for _, c := range t.ar.kids[x] {
			if ci := t.at(c, hh-1); ci != nilH {
				t.ar.parent[ci] = qid
				t.ar.parentH[ci] = x
			}
		}
	}
	p.Top = h - 1
	q.Top = top

	if wasRoot {
		t.rootID = qid
		t.ar.parent[q.at(top)] = qid
		return
	}
	// Fix the grandparent's children list: p@top was replaced by q@top.
	g := t.ar.parent[q.at(top)]
	if gx := t.at(g, top+1); gx != nilH {
		t.ar.replaceKid(gx, pid, qid)
	}
}

// insertSubtreeAt re-attaches a detached subtree whose root instance is
// (id, h): the tree is descended from the root to height h+1 by least
// enlargement and the subtree is added there. Subtrees at or above the
// current root height are merged by electing a common root. It returns
// the number of splits triggered.
func (t *Tree) insertSubtreeAt(id ProcID, h int) int {
	x := t.at(id, h)
	if x == nilH {
		return 0
	}
	if h >= t.rootH {
		// The fragment is as tall as the tree: elect a new common root
		// over the current root and the fragment.
		for h > t.rootH {
			// Dissolve the fragment's top level so heights align.
			h = t.dissolveTop(id, h)
			x = t.at(id, h)
			if x == nilH {
				return 0
			}
		}
		if id == t.rootID {
			return 0
		}
		rootX := t.at(t.rootID, t.rootH)
		if rootX == nilH {
			// The root reference is dangling mid-repair (a corruption or
			// crash dissolved it after this pass's ensureRoot ran); park
			// the fragment until the next pass re-elects a root.
			t.pendingFragments = append(t.pendingFragments, fragment{id: id, h: h})
			return 0
		}
		ids := []ProcID{t.rootID, id}
		mbrs := []geom.Rect{t.ar.mbr[rootX], t.ar.mbr[x]}
		w := ids[t.params.Election.ChooseLeader(ids, mbrs)]
		oldRoot, oldH := t.rootID, t.rootH
		nr := t.newInstance(t.procs[w], oldH+1)
		t.ar.setKids(nr, []ProcID{oldRoot, id}, t.params.MaxFanout)
		t.ar.parent[nr] = w
		t.ar.parent[rootX] = w
		t.ar.parent[x] = w
		t.computeMBR(w, oldH+1)
		t.refreshUnderloaded(w, oldH+1)
		t.rootID, t.rootH = w, oldH+1
		return 0
	}
	cur, hh := t.rootID, t.rootH
	for hh > h+1 {
		cx := t.at(cur, hh)
		if cx == nilH {
			t.pendingFragments = append(t.pendingFragments, fragment{id: id, h: h})
			return 0
		}
		if !t.ar.mbr[cx].Contains(t.ar.mbr[x]) {
			t.ar.mbr[cx] = t.ar.mbr[cx].Union(t.ar.mbr[x])
		}
		next := t.chooseBestChild(cx, hh, t.ar.mbr[x])
		if next == NoProc {
			t.pendingFragments = append(t.pendingFragments, fragment{id: id, h: h})
			return 0
		}
		cur = next
		hh--
	}
	return t.addChild(cur, h+1, id)
}

// dissolveTop removes the instance (id, h), orphaning its children, and
// immediately re-attaches each child subtree one level lower via
// insertSubtreeAt once the caller realigns. It returns id's new top.
func (t *Tree) dissolveTop(id ProcID, h int) int {
	p := t.procs[id]
	x := p.at(h)
	p.clearInst(h)
	p.Top = h - 1
	for _, c := range t.ar.kids[x] {
		if c == id {
			continue
		}
		if ci := t.at(c, h-1); ci != nilH {
			t.ar.parent[ci] = c // mark as fragment root
			t.pendingFragments = append(t.pendingFragments, fragment{id: c, h: h - 1})
		}
	}
	if own := t.at(id, h-1); own != nilH {
		t.ar.parent[own] = id
	}
	t.ar.release(x)
	return h - 1
}

func indexOf(ids []ProcID, id ProcID) int {
	for i, c := range ids {
		if c == id {
			return i
		}
	}
	return -1
}

func containsIdx(idx []int, v int) bool {
	for _, i := range idx {
		if i == v {
			return true
		}
	}
	return false
}
