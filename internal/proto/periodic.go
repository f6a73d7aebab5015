package proto

import (
	"drtree/internal/core"
	"drtree/internal/geom"
)

// periodic fires the node's CHECK_* timers (paper §3.3): probe children
// and parent, fix the local chain, re-join orphaned fragments through the
// oracle-provided contact, dissolve persistently underloaded nodes, and
// collapse degenerate roots.
func (n *Node) periodic(contact core.ProcID) {
	n.fixChain()

	for h := n.top; h >= 0; h-- {
		in := n.at(h)
		if in == nil {
			continue
		}
		if h > 0 {
			// CHECK_CHILDREN + CHECK_MBR: probe every remote child. The
			// children slices are kept in ascending ID order, so the scan
			// is the deterministic probe order with no per-round sort.
			for _, c := range in.childID {
				if c == n.id {
					continue
				}
				n.send(c, mChildQuery{Height: h})
			}
			// Own child is read locally.
			if low := n.at(h - 1); low != nil {
				if i := in.childIndex(n.id); i >= 0 {
					in.childMBR[i] = low.mbr
					in.childUnder[i] = low.underloaded
				}
			}
			n.recomputeMBR(h)
			n.refreshUnderloaded(h)
			// The own-child invariant: without it this node cannot stand.
			if !in.hasChild(n.id) || n.at(h-1) == nil {
				n.dissolve(h)
				continue
			}
		} else {
			n.recomputeMBR(0)
		}

		// CHECK_PARENT for the topmost instance.
		if h == n.top {
			if n.isRootInstance(h) {
				// A node that believes it is the root verifies the claim
				// against the connection oracle: a corruption or healed
				// partition can leave two self-proclaimed roots, and the
				// one the oracle does not name must re-join under the
				// other (the distributed twin of the sequential engine's
				// ensureRoot election).
				if contact != n.id && contact != core.NoProc {
					n.rejoin(contact, h)
				} else {
					n.maybeCollapseRoot(h)
				}
				continue
			}
			if n.rejoinPending || in.parent == n.id || in.parent == core.NoProc {
				n.rejoin(contact, h)
				continue
			}
			n.send(in.parent, mParentQuery{Height: h, Child: n.id})
		} else if in.parent != n.id {
			// Interior of the own chain must be self-parented.
			in.parent = n.id
		}
	}

	// CHECK_STRUCTURE: persistently underloaded non-root nodes dissolve
	// and their children re-execute the join process (Figure 14's
	// INITIATE_NEW_CONNECTION fallback).
	for h := n.top; h >= 1; h-- {
		in := n.at(h)
		if in == nil {
			continue
		}
		if in.underloaded && !n.isRootInstance(h) {
			in.underRounds++
			if in.underRounds > underloadPatience {
				n.dissolve(h)
			}
		} else {
			in.underRounds = 0
		}
	}
}

// fixChain dissolves instances above a gap in the 0..top chain.
func (n *Node) fixChain() {
	top := 0
	for n.at(top+1) != nil {
		top++
	}
	for h := len(n.inst) - 1; h > top; h-- {
		if n.at(h) != nil {
			n.dissolve(h)
		}
	}
	n.top = top
}

// dissolve removes the instance at h: remote children are told to re-join
// (mDissolved), the parent is told to drop us, and our own chain below
// becomes the new topmost fragment.
func (n *Node) dissolve(h int) {
	ptr := n.at(h)
	if ptr == nil {
		return
	}
	in := *ptr // value copy: clearInst zeroes the table slot
	n.clearInst(h)
	for _, c := range in.childID {
		if c != n.id {
			n.send(c, mDissolved{Height: h - 1})
		}
	}
	if in.parent != n.id && in.parent != core.NoProc {
		n.send(in.parent, mRemoveChild{Height: h + 1, Child: n.id})
	}
	if n.top >= h {
		n.top = h - 1
		if low := n.at(n.top); low != nil {
			low.parent = n.id
			n.rejoinPending = true
		}
	}
}

// rejoin re-executes the join process for the subtree topped at h,
// starting from the oracle-provided contact (Figure 11).
func (n *Node) rejoin(contact core.ProcID, h int) {
	if contact == core.NoProc || contact == n.id {
		// We are the contact (likely the new root); stay put.
		n.rejoinPending = false
		if in := n.at(h); in != nil {
			in.parent = n.id
		}
		return
	}
	in := n.at(h)
	if in == nil {
		return
	}
	n.rejoinPending = true
	n.send(contact, mJoin{Joiner: n.id, MBR: in.mbr, AtHeight: h, Height: -1})
}

// auditRoot probes this node's root claim through a globally-designated
// contact (a networked cluster's bootstrap anchor). The local connection
// oracle cannot see actors hosted by other daemons, so two daemons can
// each stabilise a self-proclaimed root whose periodic CHECK_PARENT
// never fires (each root IS its own local oracle). The probe is an
// ordinary join of the whole subtree: it either routes back to this
// node — which really is the root of the contact's tree, and onJoin's
// self-join guard drops it — or reaches the root of a disjoint tree,
// which adopts this subtree through the standard merge machinery.
// Unlike rejoin, the node keeps operating as root while the probe is in
// flight (rejoinPending stays false), so a legitimate root's
// steady-state audits cause no churn.
func (n *Node) auditRoot(contact core.ProcID) {
	if contact == core.NoProc || contact == n.id || !n.isRootInstance(n.top) {
		return
	}
	in := n.at(n.top)
	if in == nil {
		return
	}
	n.send(contact, mJoin{Joiner: n.id, MBR: in.mbr, AtHeight: n.top, Height: -1})
}

// maybeCollapseRoot removes a degenerate root (single child).
func (n *Node) maybeCollapseRoot(h int) {
	in := n.at(h)
	if in == nil || h == 0 || in.numChildren() != 1 {
		return
	}
	only := in.childID[0]
	n.clearInst(h)
	n.top = h - 1
	if only == n.id {
		if low := n.at(h - 1); low != nil {
			low.parent = n.id
		}
		return
	}
	n.send(only, mBecomeRoot{Height: h - 1})
}

// onEvent routes a published event (paper §2.3): deliver locally, descend
// into children whose cached MBR contains it, and keep climbing when
// traveling upward.
func (n *Node) onEvent(p mEvent) {
	n.deliver(p.ID, p.Ev)
	h := p.Height
	in := n.at(h)
	if in == nil {
		return
	}
	if h > 0 {
		// Hot path: one cache-linear sweep over the sorted parallel
		// slices, no allocation per visit.
		for i, c := range in.childID {
			if c == p.From {
				continue
			}
			if !in.childMBR[i].ContainsPoint(p.Ev) {
				continue
			}
			if c == n.id {
				// Descend the own chain locally. From must not name this
				// node: the next level down would skip its own child and
				// strand the whole own-chain subtree (a false negative).
				n.onEvent(mEvent{ID: p.ID, Ev: p.Ev, Height: h - 1, From: core.NoProc})
				continue
			}
			n.send(c, mEvent{ID: p.ID, Ev: p.Ev, Height: h - 1, From: n.id})
		}
	}
	if p.Up && !n.isRootInstance(h) && in.parent != n.id && in.parent != core.NoProc {
		n.send(in.parent, mEvent{ID: p.ID, Ev: p.Ev, Height: h + 1, Up: true, From: n.id})
	} else if p.Up && h < n.top {
		// Climb our own chain locally.
		n.onEvent(mEvent{ID: p.ID, Ev: p.Ev, Height: h + 1, Up: true, From: n.id})
	}
}

// EventSpaceShift is the width of one publisher's event-ID range: a
// cluster whose SetEventSpace base is k<<EventSpaceShift draws its IDs
// from range k (a purely local cluster stays in range 0). IDs are
// monotone within a range and say nothing across ranges, so the receipt
// set is windowed per range.
const EventSpaceShift = 40

// seenCap / seenWindow bound the per-node receipt set for long-running
// processes, per publisher range: once a range holds seenCap receipts,
// those more than seenWindow event IDs behind the arrival are pruned. A
// prune leaves about seenWindow of a range's dense IDs, so the scan
// is paid once per seenCap-seenWindow arrivals of that range and never
// for another range's backlog. Pruning only forgets long-settled
// events; a duplicate arriving later than that is re-delivered
// (at-most-once becomes best-effort beyond the window), which a daemon
// tolerates and the bounded-batch test workloads never reach.
const (
	seenCap    = 8192
	seenWindow = 4096
)

// receiptSet records which events a node has physically received.
type receiptSet struct {
	ranges map[int64]map[int64]bool // id>>EventSpaceShift -> IDs seen
	scans  int                      // prune passes, for the amortisation test
}

func (s *receiptSet) has(id int64) bool { return s.ranges[id>>EventSpaceShift][id] }

func (s *receiptSet) forget(id int64) { delete(s.ranges[id>>EventSpaceShift], id) }

func (s *receiptSet) add(id int64) {
	k := id >> EventSpaceShift
	r := s.ranges[k]
	if r == nil {
		if s.ranges == nil {
			s.ranges = make(map[int64]map[int64]bool)
		}
		r = make(map[int64]bool)
		s.ranges[k] = r
	}
	if len(r) >= seenCap {
		s.scans++
		for old := range r {
			if old <= id-seenWindow {
				delete(r, old)
			}
		}
	}
	r[id] = true
}

// deliver records the physical receipt of an event (idempotent within
// the retention window).
func (n *Node) deliver(id int64, ev geom.Point) {
	if n.seen.has(id) {
		return
	}
	n.seen.add(id)
	n.Delivered++
	matched := n.filter.ContainsPoint(ev)
	if !matched {
		n.FalsePos++
	}
	if n.deliverCB != nil {
		n.deliverCB(id, ev, matched)
	}
}
