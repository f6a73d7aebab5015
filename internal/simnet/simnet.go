// Package simnet is the simulated network substrate for the protocol
// actors: a deterministic, round-based message bus. Messages sent during
// round r are delivered at the start of round r+1 (FIFO per sender);
// messages to crashed endpoints optionally bounce back to the sender as
// failure notices (the simulation stand-in for a timeout-based failure
// detector).
//
// The substrate replaces the paper's physical peer-to-peer network (see
// DESIGN.md §4): the protocol's step and message counts are measured in
// rounds and deliveries, both independent of wall-clock hardware.
package simnet

import (
	"fmt"
	"math/rand/v2"
	"slices"
)

// NodeID identifies a network endpoint.
type NodeID int

// Message is one payload in flight.
type Message struct {
	From, To NodeID
	Payload  any
}

// Bounce notifies a sender that its message could not be delivered
// because the destination is dead (failure-detector surrogate).
type Bounce struct {
	// To is the dead destination.
	To NodeID
	// Original is the undeliverable payload.
	Original any
}

// Stats aggregates traffic counters.
type Stats struct {
	Sent        int
	Delivered   int
	Dropped     int
	Bounced     int
	Partitioned int // dropped because sender and receiver were in different partition groups
	Delayed     int // messages that were held for at least one extra round
}

// scheduled is a message with its earliest delivery round.
type scheduled struct {
	msg Message
	due int
}

// Network is the round-based bus. Not safe for concurrent use; the
// live runtime (proto.LiveCluster) provides a concurrent driver.
type Network struct {
	pending []scheduled
	round   int
	dead    map[NodeID]bool
	groups  map[NodeID]int
	stats   Stats

	// DropRate randomly drops this fraction of messages (transient loss).
	DropRate float64
	// Rand drives random drops and random link delays; required when
	// DropRate > 0 or DelayMax > 0.
	Rand *rand.Rand
	// BounceDead controls whether sends to dead endpoints generate
	// Bounce notices (true = failure detector available).
	BounceDead bool
	// DelayMax, when positive, holds each message for an extra uniform
	// 0..DelayMax rounds beyond the usual one-round latency (adversarial
	// per-link jitter; FIFO per sender no longer holds across different
	// delays).
	DelayMax int
	// Delay, when non-nil, overrides DelayMax with a deterministic
	// per-link extra delay in rounds.
	Delay func(from, to NodeID) int
}

// New creates an empty network with dead-endpoint bounces enabled.
func New() *Network {
	return &Network{dead: make(map[NodeID]bool), BounceDead: true}
}

// Send enqueues messages for delivery at the next round (plus any
// configured per-link delay).
func (n *Network) Send(msgs ...Message) {
	for _, m := range msgs {
		n.stats.Sent++
		extra := 0
		switch {
		case n.Delay != nil:
			extra = n.Delay(m.From, m.To)
		case n.DelayMax > 0 && n.Rand != nil:
			extra = n.Rand.IntN(n.DelayMax + 1)
		}
		if extra < 0 {
			extra = 0
		}
		if extra > 0 {
			n.stats.Delayed++
		}
		n.pending = append(n.pending, scheduled{msg: m, due: n.round + 1 + extra})
	}
}

// Partition installs a partition: every listed node belongs to one group,
// and messages between nodes of *different* groups are dropped at
// delivery time. Nodes not listed in any group communicate freely with
// everyone. A nil or single-group call is equivalent to Heal.
func (n *Network) Partition(groups ...[]NodeID) {
	if len(groups) < 2 {
		n.groups = nil
		return
	}
	n.groups = make(map[NodeID]int)
	for g, ids := range groups {
		for _, id := range ids {
			n.groups[id] = g
		}
	}
}

// Heal removes any installed partition.
func (n *Network) Heal() { n.groups = nil }

// Partitioned reports whether the link from → to is currently severed by
// a partition.
func (n *Network) Partitioned(from, to NodeID) bool {
	if n.groups == nil {
		return false
	}
	gf, okf := n.groups[from]
	gt, okt := n.groups[to]
	return okf && okt && gf != gt
}

// Kill marks an endpoint as dead: future (and already pending) messages
// to it are undeliverable.
func (n *Network) Kill(id NodeID) { n.dead[id] = true }

// Revive clears the dead mark (a fresh process reusing the address).
func (n *Network) Revive(id NodeID) { delete(n.dead, id) }

// Dead reports whether the endpoint is marked dead.
func (n *Network) Dead(id NodeID) bool { return n.dead[id] }

// Quiescent reports whether no messages are in flight.
func (n *Network) Quiescent() bool { return len(n.pending) == 0 }

// Stats returns the traffic counters.
func (n *Network) Stats() Stats { return n.stats }

// InFlight returns the number of pending messages.
func (n *Network) InFlight() int { return len(n.pending) }

// DeliverRound advances one round and delivers every due message,
// returning the per-node inboxes (keys sorted for deterministic iteration
// by callers). Sends to dead endpoints are dropped or bounced back to the
// (live) sender; messages across an active partition are dropped; delayed
// messages stay pending until their round comes.
func (n *Network) DeliverRound() map[NodeID][]Message {
	n.round++
	batch := n.pending
	n.pending = n.pending[:0:0]
	inboxes := make(map[NodeID][]Message)
	for _, sm := range batch {
		m := sm.msg
		if sm.due > n.round {
			n.pending = append(n.pending, sm)
			continue
		}
		if n.DropRate > 0 && n.Rand != nil && n.Rand.Float64() < n.DropRate {
			n.stats.Dropped++
			continue
		}
		if n.Partitioned(m.From, m.To) {
			n.stats.Partitioned++
			continue
		}
		if n.dead[m.To] {
			if n.BounceDead && !n.dead[m.From] {
				n.stats.Bounced++
				n.pending = append(n.pending, scheduled{
					due: n.round + 1,
					msg: Message{
						From:    m.To,
						To:      m.From,
						Payload: Bounce{To: m.To, Original: m.Payload},
					},
				})
			} else {
				n.stats.Dropped++
			}
			continue
		}
		n.stats.Delivered++
		inboxes[m.To] = append(inboxes[m.To], m)
	}
	return inboxes
}

// SortedIDs returns the inbox keys in ascending order (deterministic
// scheduling helper).
func SortedIDs(inboxes map[NodeID][]Message) []NodeID {
	out := make([]NodeID, 0, len(inboxes))
	for id := range inboxes {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// String renders traffic counters.
func (s Stats) String() string {
	return fmt.Sprintf("sent=%d delivered=%d dropped=%d bounced=%d partitioned=%d delayed=%d",
		s.Sent, s.Delivered, s.Dropped, s.Bounced, s.Partitioned, s.Delayed)
}
