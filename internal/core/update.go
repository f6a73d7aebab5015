package core

import (
	"fmt"

	"drtree/internal/geom"
)

// UpdateFilter replaces the filter of live process id with f, in place:
// the leaf MBR becomes f and the change is repropagated along the parent
// chain to the root (the eager equivalent of the periodic CHECK_MBR,
// Figure 10), after which the cover invariant is restored along the same
// path (the CHECK_COVER rule, exactly as a join does). Starting from a
// legitimate configuration the result is again legitimate; starting
// mid-repair the update is applied best-effort and the next Stabilize
// finishes the job.
//
// This is the engine-level primitive behind the pub/sub gateway layer: a
// gateway's overlay filter is the union of many subscriptions and moves
// on every subscribe/unsubscribe without the process leaving the tree.
func (t *Tree) UpdateFilter(id ProcID, f geom.Rect) error {
	p := t.procs[id]
	if p == nil {
		return NotMemberf("core: process %d not in the tree", id)
	}
	if f.IsEmpty() {
		return fmt.Errorf("core: filter must be a non-empty rectangle")
	}
	if f.Dims() != p.Filter.Dims() {
		return fmt.Errorf("core: filter has %d dims, tree uses %d", f.Dims(), p.Filter.Dims())
	}
	if f.Equal(p.Filter) {
		return nil
	}
	p.Filter = f
	t.computeMBR(id, 0)

	// Repropagate the new leaf MBR bottom-up along the parent chain. The
	// walk recomputes from the actual children sets (not an incremental
	// union), so shrinking filters propagate exactly like growing ones.
	cur, h := id, 0
	for !(cur == t.rootID && h == t.rootH) {
		x := t.at(cur, h)
		if x == nilH {
			break
		}
		parent := t.ar.parent[x]
		if parent == NoProc || t.procs[parent] == nil {
			break // dangling mid-repair; stabilization reconciles
		}
		if parent == cur && h >= t.procs[cur].Top {
			break
		}
		if t.at(parent, h+1) == nilH {
			break
		}
		t.computeMBR(parent, h+1)
		cur, h = parent, h+1
		if h > t.rootH {
			break
		}
	}
	t.fixCoverUp(id, 0)
	return nil
}
