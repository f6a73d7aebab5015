package proto

import (
	"drtree/internal/core"
	"drtree/internal/geom"
	"drtree/internal/simnet"
)

// Cluster is the deterministic round scheduler driving the protocol
// actors over a simnet.Network. Each round: deliver all in-flight
// messages, let every node process its inbox, fire the periodic CHECK_*
// timers when the caller asks (Step's fireChecks; RunUntilStable fires
// one check per period once the network drains), and collect outboxes.
type Cluster struct {
	actorTable
	net   *simnet.Network
	round int
}

// NewCluster creates an empty cluster.
func NewCluster(cfg Config) (*Cluster, error) {
	t, err := newActorTable(cfg, noLock{})
	if err != nil {
		return nil, err
	}
	return &Cluster{actorTable: t, net: simnet.New()}, nil
}

// Close releases engine resources. The round-based cluster holds none
// (no goroutines); the method exists for the unified Engine lifecycle.
func (c *Cluster) Close() error { return nil }

// Round returns the current round number.
func (c *Cluster) Round() int { return c.round }

// NetStats returns the network traffic counters.
func (c *Cluster) NetStats() simnet.Stats { return c.net.Stats() }

// Net exposes the underlying simulated network so drivers can inject
// message-level faults (drops, partitions, per-link delays).
func (c *Cluster) Net() *simnet.Network { return c.net }

// Node returns the actor with the given ID, or nil.
func (c *Cluster) Node(id core.ProcID) *Node { return c.nodes[id] }

// Join introduces a new subscriber: the node is created locally and its
// JOIN request is sent to the oracle-provided contact (the paper's
// connection oracle). Run the cluster to let the request route.
func (c *Cluster) Join(id core.ProcID, filter geom.Rect) error {
	return c.JoinFrom(core.NoProc, id, filter)
}

// JoinFrom introduces a new subscriber whose JOIN request routes through
// an explicit contact node rather than the connection oracle (NoProc:
// the oracle, as Join).
func (c *Cluster) JoinFrom(contact, id core.ProcID, filter geom.Rect) error {
	n, err := c.admit(id, filter, contact)
	if err != nil {
		return err
	}
	c.net.Revive(simnet.NodeID(id))
	if len(c.order) == 1 {
		return nil // first node is the root
	}
	if contact == core.NoProc {
		contact = c.Oracle()
	}
	n.rejoinPending = true
	n.rejoin(contact, 0)
	c.net.Send(n.drainOut()...)
	return nil
}

// UpdateFilter replaces the subscription filter of live process id (the
// FilterUpdater capability). The FILTER_UPDATE is applied at the owning
// node directly, and the resulting MBR change propagates through the
// node's eager child report plus the periodic CHECK_MBR probes;
// Stabilize drives the configuration back to a legal state whose root
// MBR is the union of the updated filters.
func (c *Cluster) UpdateFilter(id core.ProcID, f geom.Rect) error {
	n, err := c.updateFilter(id, f)
	if err != nil {
		return err
	}
	c.net.Send(n.drainOut()...)
	return nil
}

// Leave performs a controlled departure (Figure 9): the leaver notifies
// the parent of its topmost instance and disappears; stabilization
// repairs the rest.
func (c *Cluster) Leave(id core.ProcID) error {
	n, err := c.leave(id)
	if err != nil {
		return err
	}
	c.net.Send(n.drainOut()...)
	c.net.Kill(simnet.NodeID(id))
	return nil
}

// Crash removes a node without notification; bounces and periodic checks
// reveal the failure.
func (c *Cluster) Crash(id core.ProcID) error {
	if _, err := c.remove(id); err != nil {
		return err
	}
	c.net.Kill(simnet.NodeID(id))
	return nil
}

// Oracle returns the current best contact: the root from a global view
// (the tallest self-parented topmost instance; ties by largest MBR, then
// lowest ID). The paper assumes an accurate connection-time oracle (§3.2
// Joins). When every candidate is itself awaiting a re-join (no stable
// root anywhere — e.g. after the root crashed or two corrupted roots
// orphaned each other), the oracle names the tallest fragment instead:
// rejoin() lets the named node elect itself root, exactly like the
// sequential engine promotes the tallest fragment in ensureRoot.
//
// It is not the table's root rule (Root, LiveCluster's contact): the
// area tie-break and the fragment fallback pick the contacts the
// experiments' joins and repairs take, and BENCH_proto.json's gated
// message counts were measured with them.
func (c *Cluster) Oracle() core.ProcID {
	best := core.NoProc
	bestH := -1
	bestArea := -1.0
	fallback := core.NoProc
	fbH := -1
	fbArea := -1.0
	for _, n := range c.order {
		id := n.id
		in := n.at(n.top)
		if in == nil {
			continue
		}
		area := in.mbr.Area()
		if n.top > fbH || (n.top == fbH && area > fbArea) {
			fallback, fbH, fbArea = id, n.top, area
		}
		if in.parent != id || n.rejoinPending {
			continue
		}
		if n.top > bestH || (n.top == bestH && area > bestArea) {
			best, bestH, bestArea = id, n.top, area
		}
	}
	if best == core.NoProc {
		return fallback
	}
	return best
}

// Step runs one round: deliver in-flight messages, let nodes process
// them, and fire the CHECK_* timers when fireChecks is set. It reports
// whether any message was delivered.
func (c *Cluster) Step(fireChecks bool) bool {
	c.round++
	inboxes := c.net.DeliverRound()
	busy := len(inboxes) > 0
	for _, n := range c.order {
		for _, m := range inboxes[simnet.NodeID(n.id)] {
			n.process(m)
		}
		if fireChecks {
			n.periodic(c.Oracle())
		}
		c.net.Send(n.drainOut()...)
	}
	return busy || fireChecks
}

// settle runs rounds without firing timers until the network drains.
func (c *Cluster) settle(maxRounds int) bool {
	for r := 0; r < maxRounds; r++ {
		if c.net.Quiescent() {
			return true
		}
		c.Step(false)
	}
	return c.net.Quiescent()
}

// RunUntilStable alternates check periods (one CHECK_* timer firing per
// period, then draining the resulting traffic) until the configuration is
// legal, no node awaits a re-join, and one extra period confirms the
// fixpoint — or maxRounds elapse. It returns rounds consumed and whether
// the stable point was reached. The number of check periods consumed is
// the protocol-level stabilization-time metric of experiments E3-E5.
func (c *Cluster) RunUntilStable(maxRounds int) (int, bool) {
	start := c.round
	confirmed := 0
	for c.round-start < maxRounds {
		if !c.settle(maxRounds - (c.round - start)) {
			return c.round - start, false
		}
		if c.CheckLegal() == nil {
			confirmed++
			if confirmed >= 2 {
				return c.round - start, true
			}
		} else {
			confirmed = 0
		}
		c.Step(true) // fire one check period
	}
	return c.round - start, false
}

// Publish injects an event at the producer, runs the cluster until the
// network drains (bounded by Config.PublishBudget rounds), and collects
// the unified delivery accounting. Received/TruePositives/FalsePositives
// are ascending; Rounds is the dissemination latency in network rounds.
// It is PublishBatch with a batch of one.
func (c *Cluster) Publish(producer core.ProcID, ev geom.Point) (core.Delivery, error) {
	ds, err := c.PublishBatch([]core.Publication{{Producer: producer, Event: ev}})
	if err != nil {
		return core.Delivery{}, err
	}
	return ds[0], nil
}

// PublishBatch injects every event of the batch at its producer in the
// same round — multiple publications in flight at once — then runs the
// cluster until the network drains under one shared round budget
// (Config.PublishBudget covers the whole batch, not each event), and
// collects one Delivery per entry. Because disseminations overlap, the
// per-event Rounds all report the rounds the batch took to drain; a
// batch therefore costs roughly one tree traversal's worth of rounds
// rather than len(batch) of them. Messages are attributed per event by
// the event ID its messages carry.
func (c *Cluster) PublishBatch(batch []core.Publication) ([]core.Delivery, error) {
	out := make([]core.Delivery, len(batch))
	if len(batch) == 0 {
		return out, nil
	}
	ids, err := c.openBatch(batch)
	if err != nil {
		return nil, err
	}
	maxRounds := c.budget(c.cfg.PublishBudget)
	idx := make(map[int64]int, len(batch))
	msgs := make([]int, len(batch))
	for i := range batch {
		idx[ids[i]] = i
		// From must be NoProc at the injection point: a producer owning
		// interior instances (for example the root) must still descend
		// into its own subtree, and onEvent skips the From child.
		n := c.nodes[batch[i].Producer]
		n.onEvent(mEvent{ID: ids[i], Ev: batch[i].Event, Height: n.top, Up: true, From: core.NoProc})
		c.net.Send(n.drainOut()...)
	}

	start := c.round
	for !c.net.Quiescent() && c.round-start < maxRounds {
		// Run without periodic timers so message counts isolate the
		// dissemination itself.
		c.round++
		inboxes := c.net.DeliverRound()
		for _, nid := range simnet.SortedIDs(inboxes) {
			node := c.nodes[core.ProcID(nid)]
			for _, m := range inboxes[nid] {
				if k, ok := idx[eventIDOf(m.Payload)]; ok {
					msgs[k]++
				}
				if node != nil {
					node.process(m)
				}
			}
			if node != nil {
				c.net.Send(node.drainOut()...)
			}
		}
	}
	for i := range out {
		out[i].Rounds, out[i].Messages = c.round-start, msgs[i]
	}
	c.census(out, batch, ids)
	return out, nil
}

// eventIDOf extracts the event ID a delivered message is accounted to:
// the ID of an event message, or of the event inside a dead-endpoint
// bounce. Non-event traffic returns 0, which is never a live event ID.
func eventIDOf(payload any) int64 {
	switch m := payload.(type) {
	case mEvent:
		return m.ID
	case simnet.Bounce:
		if e, ok := m.Original.(mEvent); ok {
			return e.ID
		}
	}
	return 0
}

// Stabilize runs the periodic checks until the configuration is legal
// and confirmed stable (RunUntilStable) under the configured or adaptive
// round budget, reporting the unified stabilization result.
func (c *Cluster) Stabilize() core.StabReport {
	rounds, ok := c.RunUntilStable(c.budget(c.cfg.StabilizeBudget))
	return core.StabReport{Rounds: rounds, Converged: ok}
}
