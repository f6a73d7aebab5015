package proto

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"drtree/internal/core"
	"drtree/internal/geom"
)

// actorTable is the membership both runtimes embed: the actors by ID
// and the same actors in ascending ID order. It decides everything about
// the population that does not depend on how messages are scheduled —
// who may join, leave or update a filter, who the root is, whether the
// configuration is legal, who received a batch, where a fault lands — so
// Cluster and LiveCluster differ only in their schedulers. Its exported
// methods take lock; the unexported ones expect the caller to hold it.
type actorTable struct {
	cfg   Config
	lock  sync.Locker // LiveCluster's mutex; noLock for Cluster
	nodes map[core.ProcID]*Node
	// order is nodes ascending by ID: the order in which a scheduler
	// visits actors and the census lists receivers, so that two runs of
	// one scenario send the same messages in the same order.
	order []*Node
	nextE int64
}

// noLock is the round scheduler's lock: it runs on its caller's goroutine.
type noLock struct{}

func (noLock) Lock()   {}
func (noLock) Unlock() {}

func newActorTable(cfg Config, lock sync.Locker) (actorTable, error) {
	cfg = cfg.withDefaults()
	if cfg.MinFanout < 1 {
		return actorTable{}, fmt.Errorf("proto: MinFanout must be >= 1, got %d", cfg.MinFanout)
	}
	if cfg.MaxFanout < 2*cfg.MinFanout {
		return actorTable{}, fmt.Errorf("proto: MaxFanout must be >= 2*MinFanout")
	}
	return actorTable{cfg: cfg, lock: lock, nodes: make(map[core.ProcID]*Node)}, nil
}

// member returns the node of process id, or an ErrNotMember refusal
// naming id in its role.
func (t *actorTable) member(role string, id core.ProcID) (*Node, error) {
	if n := t.nodes[id]; n != nil {
		return n, nil
	}
	return nil, core.NotMemberf("proto: %s %d not in the cluster", role, id)
}

// admit creates and adds the node of a joining process, checking in
// core.Tree's order: a named contact (NoProc leaves it to the caller's
// oracle) must be a member, the ID positive and new, the filter
// non-empty and of the members' dimension count.
func (t *actorTable) admit(id core.ProcID, filter geom.Rect, contact core.ProcID) (*Node, error) {
	if contact != core.NoProc {
		if _, err := t.member("contact", contact); err != nil {
			return nil, err
		}
	}
	if id <= core.NoProc {
		return nil, fmt.Errorf("proto: process IDs must be positive, got %d", id)
	}
	if t.nodes[id] != nil {
		return nil, fmt.Errorf("proto: process %d already joined", id)
	}
	if filter.IsEmpty() {
		return nil, fmt.Errorf("proto: filter must be non-empty")
	}
	if len(t.order) > 0 && filter.Dims() != t.order[0].filter.Dims() {
		return nil, fmt.Errorf("proto: filter has %d dims, cluster uses %d", filter.Dims(), t.order[0].filter.Dims())
	}
	n := newNode(id, filter, t.cfg)
	t.nodes[id] = n
	t.order = slices.Insert(t.order, t.index(id), n)
	return n, nil
}

// index is where id stands, or would stand, in order.
func (t *actorTable) index(id core.ProcID) int {
	i, _ := slices.BinarySearchFunc(t.order, id, func(n *Node, id core.ProcID) int { return cmp.Compare(n.id, id) })
	return i
}

// remove takes process id out of the table without notice (a crash).
func (t *actorTable) remove(id core.ProcID) (*Node, error) {
	n, err := t.member("process", id)
	if err != nil {
		return nil, err
	}
	delete(t.nodes, id)
	i := t.index(id)
	t.order = slices.Delete(t.order, i, i+1)
	return n, nil
}

// leave is a controlled departure (Figure 9): remove, with the notice to
// the parent of the leaver's topmost instance left in its outbox for the
// caller to send.
func (t *actorTable) leave(id core.ProcID) (*Node, error) {
	n, err := t.remove(id)
	if err != nil {
		return nil, err
	}
	if in := n.at(n.top); in != nil && in.parent != id {
		n.send(in.parent, mLeave{Height: n.top + 1, Child: id})
	}
	return n, nil
}

// updateFilter applies a FILTER_UPDATE at the owning node. It is
// application-to-local-process traffic, so no network fault can lose it;
// the report to the parent is left in the node's outbox.
func (t *actorTable) updateFilter(id core.ProcID, f geom.Rect) (*Node, error) {
	n, err := t.member("process", id)
	if err != nil {
		return nil, err
	}
	if f.IsEmpty() {
		return nil, fmt.Errorf("proto: filter must be non-empty")
	}
	if f.Dims() != n.filter.Dims() {
		return nil, fmt.Errorf("proto: filter has %d dims, cluster uses %d", f.Dims(), n.filter.Dims())
	}
	n.onFilterUpdate(mFilterUpdate{Filter: f})
	return n, nil
}

// root is the tallest self-parented topmost instance of a node not
// awaiting a re-join, the lowest ID among equals; nil when there is none.
func (t *actorTable) root() *Node {
	var best *Node
	for _, n := range t.order {
		if in := n.at(n.top); in != nil && in.parent == n.id && !n.rejoinPending && (best == nil || n.top > best.top) {
			best = n
		}
	}
	return best
}

// Root returns the root process and root height from the omniscient
// view, or (NoProc, -1) for an empty or root-less configuration.
func (t *actorTable) Root() (core.ProcID, int) {
	t.lock.Lock()
	defer t.lock.Unlock()
	if n := t.root(); n != nil {
		return n.id, n.top
	}
	return core.NoProc, -1
}

// RootMBR returns the MBR of the root instance, or the empty rectangle
// for an empty or root-less configuration. In a legal state this equals
// the union of every live filter.
func (t *actorTable) RootMBR() geom.Rect {
	t.lock.Lock()
	defer t.lock.Unlock()
	if n := t.root(); n != nil {
		return n.at(n.top).mbr
	}
	return geom.Rect{}
}

// Filter returns the subscription rectangle of process id.
func (t *actorTable) Filter(id core.ProcID) (geom.Rect, bool) {
	t.lock.Lock()
	defer t.lock.Unlock()
	if n := t.nodes[id]; n != nil {
		return n.filter, true
	}
	return geom.Rect{}, false
}

// ProcIDs returns live process IDs, ascending.
func (t *actorTable) ProcIDs() []core.ProcID {
	t.lock.Lock()
	defer t.lock.Unlock()
	out := make([]core.ProcID, len(t.order))
	for i, n := range t.order {
		out[i] = n.id
	}
	return out
}

// Len returns the live population.
func (t *actorTable) Len() int {
	t.lock.Lock()
	defer t.lock.Unlock()
	return len(t.order)
}

// budget resolves a configured round budget, falling back to an adaptive
// default that scales with the population.
func (t *actorTable) budget(configured int) int {
	if configured > 0 {
		return configured
	}
	return 800 + 200*len(t.order)
}

// openBatch refuses a batch with a producer that is not a member, else
// gives each entry a new event ID, cleared from every receipt set.
func (t *actorTable) openBatch(batch []core.Publication) ([]int64, error) {
	for i := range batch {
		if _, err := t.member("producer", batch[i].Producer); err != nil {
			return nil, err
		}
	}
	ids := make([]int64, len(batch))
	for i := range ids {
		t.nextE++
		ids[i] = t.nextE
		for _, n := range t.order {
			n.seen.forget(ids[i])
		}
	}
	return ids, nil
}

// census fills in who received each event of a drained batch: every
// node, in ascending ID order, whose receipt set holds the event's ID,
// classified by its filter.
func (t *actorTable) census(out []core.Delivery, batch []core.Publication, ids []int64) {
	for i := range batch {
		d := &out[i]
		for _, n := range t.order {
			if !n.seen.has(ids[i]) {
				continue
			}
			d.Received = append(d.Received, n.id)
			if n.filter.ContainsPoint(batch[i].Event) {
				d.TruePositives = append(d.TruePositives, n.id)
			} else {
				d.FalsePositives = append(d.FalsePositives, n.id)
			}
		}
	}
}
