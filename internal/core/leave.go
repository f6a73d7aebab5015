package core

import (
	"cmp"
	"slices"
)

// LeaveStats reports the cost of a departure repair for experiment E4
// (Lemmas 3.4 and 3.5).
type LeaveStats struct {
	// Orphans is the number of subtrees detached by the departure.
	Orphans int
	// Reinsertions is the number of subtree re-attachments performed.
	Reinsertions int
	// StabilizeSteps is the number of stabilization passes needed to
	// return to a legitimate configuration.
	StabilizeSteps int
}

// Leave removes a subscriber via a controlled departure (Figure 9): the
// parent of the topmost instance drops the leaver, orphaned subtrees are
// re-attached, and the stabilization checks run to a fixpoint.
func (t *Tree) Leave(id ProcID) error {
	_, err := t.LeaveWithStats(id)
	return err
}

// LeaveWithStats is Leave reporting the departure-repair cost
// (experiment E4, Lemmas 3.4 and 3.5).
func (t *Tree) LeaveWithStats(id ProcID) (LeaveStats, error) {
	p := t.procs[id]
	if p == nil {
		return LeaveStats{}, NotMemberf("core: process %d not in the tree", id)
	}
	var st LeaveStats

	if len(t.procs) == 1 {
		t.dropProc(p)
		t.rootID, t.rootH = NoProc, 0
		return st, nil
	}

	// Notify the parent of the topmost instance (LEAVE message).
	if t.rootID != id {
		if top := p.at(p.Top); top != nilH {
			par := t.ar.parent[top]
			if g := t.at(par, p.Top+1); g != nilH {
				t.ar.removeKid(g, id)
				t.refreshUnderloaded(par, p.Top+1)
			}
		}
	}

	// Every child of every instance of the leaver (other than the leaver
	// itself) roots an orphaned subtree.
	t.enqueueOrphansOf(p)
	t.dropProc(p)
	st.Orphans = len(t.pendingFragments)

	if t.rootID == id {
		t.electRootFromFragments()
	}
	st.Reinsertions = t.drainFragments()
	st.StabilizeSteps = t.Stabilize().Passes
	return st, nil
}

// Crash removes a subscriber without any notification (an uncontrolled
// departure / permanent failure). The structure is left dangling; call
// Stabilize (or RepairCrash) to restore a legitimate configuration, as
// the paper's periodic checks would.
func (t *Tree) Crash(id ProcID) error {
	p := t.procs[id]
	if p == nil {
		return NotMemberf("core: process %d not in the tree", id)
	}
	t.dropProc(p)
	if len(t.procs) == 0 {
		t.rootID, t.rootH = NoProc, 0
	}
	return nil
}

// RepairCrash runs the stabilization checks after one or more crashes and
// returns the repair cost (Lemma 3.5). It is equivalent to waiting for
// the periodic CHECK_* timers to fire until the structure is legal.
func (t *Tree) RepairCrash() LeaveStats {
	var st LeaveStats
	stab := t.Stabilize()
	st.StabilizeSteps = stab.Passes
	st.Reinsertions = stab.Rejoins
	return st
}

// enqueueOrphansOf queues every non-self child of every instance of p as
// a detached fragment, highest first.
func (t *Tree) enqueueOrphansOf(p *Process) {
	for hh := p.Top; hh >= 1; hh-- {
		x := p.at(hh)
		if x == nilH {
			continue
		}
		for _, c := range t.ar.kids[x] {
			if c == p.ID {
				continue
			}
			if ci := t.at(c, hh-1); ci != nilH {
				t.ar.parent[ci] = c
				t.pendingFragments = append(t.pendingFragments, fragment{id: c, h: hh - 1})
			}
		}
	}
}

// electRootFromFragments promotes the tallest pending fragment (ties:
// largest MBR, then lowest ID) as the new tree root after the previous
// root vanished.
func (t *Tree) electRootFromFragments() {
	if len(t.pendingFragments) == 0 {
		// Degenerate: no fragments (the root had only itself); pick any
		// live process as a fresh single-node tree root. Top can be stale
		// mid-repair (a corruption the checks have not reached yet), so
		// promote the top of the contiguous chain, never Top itself.
		for _, id := range t.ProcIDs() {
			p := t.procs[id]
			top := t.contiguousTop(p)
			x := p.at(top)
			if x == nilH {
				continue
			}
			t.rootID, t.rootH = id, top
			t.ar.parent[x] = id
			return
		}
		t.rootID, t.rootH = NoProc, 0
		return
	}
	slices.SortFunc(t.pendingFragments, func(fi, fj fragment) int {
		if fi.h != fj.h {
			return cmp.Compare(fj.h, fi.h) // tallest first
		}
		ai := t.childMBR(fi.id, fi.h).Area()
		aj := t.childMBR(fj.id, fj.h).Area()
		if ai != aj {
			return cmp.Compare(aj, ai) // largest MBR first
		}
		return cmp.Compare(fi.id, fj.id)
	})
	head := t.pendingFragments[0]
	t.pendingFragments = t.pendingFragments[1:]
	t.rootID, t.rootH = head.id, head.h
	if x := t.at(head.id, head.h); x != nilH {
		t.ar.parent[x] = head.id
	}
}

// drainFragments re-attaches every queued fragment (tallest first) and
// returns the number of re-insertions performed. Re-attachment can itself
// enqueue more fragments (height realignment), which are processed too.
func (t *Tree) drainFragments() int {
	n := 0
	// Bound the drain so a fragment that keeps getting requeued (mid-way
	// through a multi-pass repair) is retried on the next stabilization
	// pass instead of spinning here.
	budget := 4*len(t.pendingFragments) + 8
	for len(t.pendingFragments) > 0 && budget > 0 {
		budget--
		slices.SortStableFunc(t.pendingFragments, func(a, b fragment) int {
			return cmp.Compare(b.h, a.h) // tallest first
		})
		f := t.pendingFragments[0]
		t.pendingFragments = t.pendingFragments[1:]
		if t.procs[f.id] == nil || t.at(f.id, f.h) == nilH {
			continue
		}
		// Skip fragments that were re-attached transitively.
		if !t.isFragmentRoot(f.id, f.h) {
			continue
		}
		t.insertSubtreeAt(f.id, f.h)
		n++
	}
	return n
}

// isFragmentRoot reports whether (id, h) is still detached: its recorded
// parent either is itself (while not being the tree root) or does not
// list it as a child.
func (t *Tree) isFragmentRoot(id ProcID, h int) bool {
	if id == t.rootID && h == t.rootH {
		return false
	}
	x := t.at(id, h)
	if x == nilH {
		return false
	}
	par := t.ar.parent[x]
	if par == id && h == t.procs[id].Top {
		return true
	}
	g := t.at(par, h+1)
	return g == nilH || !hasID(t.ar.kids[g], id)
}
