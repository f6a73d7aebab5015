package proto

// The omniscient observer of the actor table: legality and the
// transient-fault injectors read or write the nodes' local states
// directly.

import (
	"fmt"

	"drtree/internal/core"
	"drtree/internal/geom"
)

// CheckLegal verifies Definition 3.1 on the distributed configuration,
// reading only the nodes' local states (as an omniscient observer): no
// re-join pending, unique root, mutual parent/children coherence, degree
// bounds, own-child chains, contiguous instance chains, MBR coherence
// against the actual child MBRs, and reachability of every live process.
// The cover condition is repaired by the sequential engine's CHECK_COVER
// and is not part of the wire protocol's legality (see DESIGN.md).
func (t *actorTable) CheckLegal() error {
	t.lock.Lock()
	defer t.lock.Unlock()
	nodes := t.nodes
	for _, n := range t.order {
		if n.rejoinPending {
			return fmt.Errorf("proto: process %d awaiting re-join", n.id)
		}
	}
	if len(nodes) == 0 {
		return nil
	}
	// Exactly one root: a topmost, self-parented instance.
	rootID := core.NoProc
	rootH := -1
	for _, n := range t.order {
		id := n.id
		in := n.at(n.top)
		if in == nil {
			return fmt.Errorf("proto: node %d missing its topmost instance", id)
		}
		if in.parent == id {
			if rootID != core.NoProc {
				return fmt.Errorf("proto: two roots: %d@%d and %d@%d", rootID, rootH, id, n.top)
			}
			rootID, rootH = id, n.top
		}
	}
	if rootID == core.NoProc {
		return fmt.Errorf("proto: no root instance")
	}

	m, M := t.cfg.MinFanout, t.cfg.MaxFanout
	reached := make(map[core.ProcID]bool)
	var walk func(id core.ProcID, h int) (geom.Rect, error)
	walk = func(id core.ProcID, h int) (geom.Rect, error) {
		n := nodes[id]
		if n == nil {
			return geom.Rect{}, fmt.Errorf("proto: dead process %d referenced at height %d", id, h)
		}
		in := n.at(h)
		if in == nil {
			return geom.Rect{}, fmt.Errorf("proto: process %d missing instance at %d", id, h)
		}
		if h == 0 {
			reached[id] = true
			if !in.mbr.Equal(n.filter) {
				return geom.Rect{}, fmt.Errorf("proto: leaf MBR of %d is %v, want filter", id, in.mbr)
			}
			return in.mbr, nil
		}
		isRoot := id == rootID && h == rootH
		if !isRoot && in.numChildren() < m {
			return geom.Rect{}, fmt.Errorf("proto: node (%d,%d) underflows: %d < m=%d", id, h, in.numChildren(), m)
		}
		if isRoot && len(nodes) > 1 && in.numChildren() < 2 {
			return geom.Rect{}, fmt.Errorf("proto: root (%d,%d) has %d children, want >= 2", id, h, in.numChildren())
		}
		if in.numChildren() > M {
			return geom.Rect{}, fmt.Errorf("proto: node (%d,%d) overflows: %d > M=%d", id, h, in.numChildren(), M)
		}
		if !in.hasChild(id) {
			return geom.Rect{}, fmt.Errorf("proto: node (%d,%d) violates the own-child invariant", id, h)
		}
		var union geom.Rect
		for _, ch := range in.childID {
			cn := nodes[ch]
			if cn == nil {
				return geom.Rect{}, fmt.Errorf("proto: node (%d,%d) lists dead child %d", id, h, ch)
			}
			ci := cn.at(h - 1)
			if ci == nil {
				return geom.Rect{}, fmt.Errorf("proto: child %d of (%d,%d) missing instance", ch, id, h)
			}
			if ci.parent != id {
				return geom.Rect{}, fmt.Errorf("proto: child %d of (%d,%d) names parent %d", ch, id, h, ci.parent)
			}
			// The parent's cached view of the child MBR routes both joins
			// and events; a configuration is only legitimate once the
			// cache agrees with the child's actual state (a stale, too
			// small cache causes dissemination false negatives even when
			// every node-local MBR is coherent).
			if cached := in.childMBR[in.childIndex(ch)]; !cached.Equal(ci.mbr) {
				return geom.Rect{}, fmt.Errorf("proto: node (%d,%d) caches child %d MBR %v, child has %v",
					id, h, ch, cached, ci.mbr)
			}
			sub, err := walk(ch, h-1)
			if err != nil {
				return geom.Rect{}, err
			}
			union = union.Union(sub)
		}
		if !in.mbr.Equal(union) {
			return geom.Rect{}, fmt.Errorf("proto: MBR of (%d,%d) is %v, want %v", id, h, in.mbr, union)
		}
		if want := in.numChildren() < m; in.underloaded != want {
			return geom.Rect{}, fmt.Errorf("proto: underloaded flag of (%d,%d) wrong", id, h)
		}
		return union, nil
	}
	if _, err := walk(rootID, rootH); err != nil {
		return err
	}
	if len(reached) != len(nodes) {
		return fmt.Errorf("proto: only %d of %d processes reachable from the root", len(reached), len(nodes))
	}
	for _, n := range t.order {
		for h := 0; h <= n.top; h++ {
			if n.at(h) == nil {
				return fmt.Errorf("proto: node %d chain gap at %d", n.id, h)
			}
		}
		if c := n.instCount(); c != n.top+1 {
			return fmt.Errorf("proto: node %d owns %d instances, top=%d", n.id, c, n.top)
		}
	}
	return nil
}

// Describe renders the distributed configuration level by level.
func (c *Cluster) Describe() string {
	maxTop := 0
	for _, n := range c.order {
		if n.top > maxTop {
			maxTop = n.top
		}
	}
	out := ""
	for h := maxTop; h >= 0; h-- {
		out += fmt.Sprintf("height %d:", h)
		for _, n := range c.order {
			in := n.at(h)
			if in == nil {
				continue
			}
			if h == 0 {
				out += fmt.Sprintf(" P%d", n.id)
				continue
			}
			out += fmt.Sprintf(" P%d%v", n.id, in.childID)
		}
		out += "\n"
	}
	return out
}

// The four fault injectors are the transient-fault surface of
// experiment E5 (the paper's fault model: parent, children, MBR,
// underloaded are all corruptible).

// CorruptParent overwrites the local parent variable of (id, h).
func (t *actorTable) CorruptParent(id core.ProcID, h int, parent core.ProcID) error {
	return t.corrupt(id, h, func(in *instance) { in.parent = parent })
}

// CorruptChildren replaces the local children set of (id, h).
func (t *actorTable) CorruptChildren(id core.ProcID, h int, children []core.ProcID) error {
	return t.corrupt(id, h, func(in *instance) { in.setChildren(children, nil) })
}

// CorruptMBR overwrites the local MBR of (id, h).
func (t *actorTable) CorruptMBR(id core.ProcID, h int, mbr geom.Rect) error {
	return t.corrupt(id, h, func(in *instance) { in.mbr = mbr })
}

// CorruptUnderloaded flips the local underloaded flag of (id, h).
func (t *actorTable) CorruptUnderloaded(id core.ProcID, h int) error {
	return t.corrupt(id, h, func(in *instance) { in.underloaded = !in.underloaded })
}

func (t *actorTable) corrupt(id core.ProcID, h int, fn func(*instance)) error {
	t.lock.Lock()
	defer t.lock.Unlock()
	n := t.nodes[id]
	if n == nil || n.at(h) == nil {
		return fmt.Errorf("proto: no instance (%d,%d)", id, h)
	}
	fn(n.at(h))
	return nil
}
