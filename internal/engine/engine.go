// Package engine defines the unified DR-tree engine interface: the
// operations the paper specifies once and implements twice — as a
// sequential specification (internal/core) and as a self-stabilizing
// message-passing protocol (internal/proto). Everything above the
// engines (the pub/sub broker, the adversarial harness, the CLI tools)
// programs against Engine, so a new backend (sharded, remote, ...) plugs
// in by implementing this interface and registering with the layers
// above — no engine-specific branches.
//
// The public facade re-exports Engine as drtree.Engine; this package
// exists so internal consumers (which the facade itself imports) can
// share the type without an import cycle.
package engine

import (
	"drtree/internal/core"
	"drtree/internal/geom"
	"drtree/internal/proto"
	"drtree/internal/simnet"
)

// Engine is one DR-tree overlay backend. All engines speak the same
// result vocabulary (core.Delivery, core.StabReport) and the same
// process/geometry types; they differ only in how the paper's rules
// execute (direct state transitions, deterministic message rounds, or
// one real-time run loop).
//
// Engines are not required to be safe for concurrent use by multiple
// callers; the live runtime synchronizes internally.
type Engine interface {
	// Join inserts subscriber id with the given filter, routing from the
	// root / connection oracle. Message-passing engines may complete the
	// insertion asynchronously; Stabilize drives it to quiescence.
	Join(id core.ProcID, f geom.Rect) error
	// JoinFrom is Join routing through an explicit contact process.
	JoinFrom(contact, id core.ProcID, f geom.Rect) error
	// Leave removes a subscriber via a controlled departure (Figure 9).
	Leave(id core.ProcID) error
	// UpdateFilter replaces the filter of live process id with f in
	// place, without a leave/re-join cycle (the Broker's gateways move
	// their MBR-union this way on every subscription change). The
	// sequential engine adjusts the leaf MBR and repropagates it along
	// the parent chain eagerly; the message-passing engines apply the
	// filter at the owning node and let the periodic CHECK_MBR probes
	// carry it upward — Stabilize restores legality, after which the
	// root MBR equals the union of all live filters and dissemination has
	// zero false negatives (certified by internal/enginetest).
	UpdateFilter(id core.ProcID, f geom.Rect) error
	// Crash removes a subscriber without notification; the stabilization
	// checks repair the structure afterwards.
	Crash(id core.ProcID) error
	// Publish disseminates an event from producer and reports the
	// unified delivery accounting.
	Publish(producer core.ProcID, ev geom.Point) (core.Delivery, error)
	// PublishBatch disseminates a batch of events with multiple
	// publications in flight at once, returning one Delivery per entry,
	// index-aligned with the batch. On a quiescent overlay it is
	// delivery-equivalent to len(batch) sequential Publish calls
	// (certified by internal/enginetest); engines exploit the batch for
	// amortization — shared dissemination scratch and result arenas
	// (core), multiple in-flight events per round under one shared round
	// budget (proto), one queue-empty wait for the whole batch (live).
	// Message counts are attributed per event.
	PublishBatch(batch []core.Publication) ([]core.Delivery, error)
	// Stabilize runs the paper's periodic CHECK_* verifications until
	// the configuration stops changing (or an engine budget runs out,
	// reported via Converged=false).
	Stabilize() core.StabReport

	// Len returns the live population.
	Len() int
	// Root returns the root process and root height, or (NoProc, -1)
	// when the overlay is empty or root-less.
	Root() (core.ProcID, int)
	// RootMBR returns the MBR of the root instance (the empty rectangle
	// when there is none). In a legal state it equals the union of every
	// live filter.
	RootMBR() geom.Rect
	// ProcIDs returns all live process IDs, ascending.
	ProcIDs() []core.ProcID
	// Filter returns the subscription rectangle of process id.
	Filter(id core.ProcID) (geom.Rect, bool)
	// CheckLegal verifies Definition 3.1 on the current configuration.
	CheckLegal() error

	// The four transient-fault injectors of the paper's fault model
	// (§3.2): every per-instance variable is corruptible.
	CorruptParent(id core.ProcID, h int, parent core.ProcID) error
	CorruptChildren(id core.ProcID, h int, children []core.ProcID) error
	CorruptMBR(id core.ProcID, h int, mbr geom.Rect) error
	CorruptUnderloaded(id core.ProcID, h int) error

	// Close releases engine resources (the run loop, network state).
	// Engines without background resources return nil immediately.
	Close() error
}

// NetworkedEngine is the optional capability of engines backed by an
// inspectable simulated network: message-level fault injection (drops,
// per-link delays, partitions) and traffic counters.
type NetworkedEngine interface {
	Engine
	// Net exposes the simulated network for fault injection.
	Net() *simnet.Network
	// NetStats returns the network traffic counters.
	NetStats() simnet.Stats
}

// SteppedEngine is the optional capability of deterministic round-based
// engines: advancing the overlay one message round at a time.
type SteppedEngine interface {
	Engine
	// Step runs one round — deliver in-flight messages, process inboxes,
	// optionally fire the CHECK_* timers — and reports whether any
	// message was delivered.
	Step(fireChecks bool) bool
}

// AsyncPublisher is the capability of engines that can start a
// dissemination without waiting for it to quiesce. Publish and
// PublishBatch return a receipt census, which forces the caller to
// block until every copy of the event has settled; a network daemon
// cannot afford that (and on a multi-daemon overlay no single engine
// can even observe the full census), so it fire-and-forgets through
// InjectEvent and observes local deliveries through the live runtime's
// event hook instead. Satisfied by the live cluster.
type AsyncPublisher interface {
	Engine
	// InjectEvent starts disseminating ev from producer and returns as
	// soon as the event is in flight. Unlike the rest of Engine it is
	// safe for concurrent use, and it may wait for room in the engine's
	// queue — a wait that ends through the engine's event hook, so the
	// caller must hold no lock that hook takes. The hook never runs on
	// the caller's stack.
	InjectEvent(producer core.ProcID, ev geom.Point) error
}

// Compile-time conformance: the sequential specification, the
// deterministic round cluster, and the run-loop live cluster
// all satisfy the unified interface.
var (
	_ Engine          = (*core.Tree)(nil)
	_ Engine          = (*proto.Cluster)(nil)
	_ Engine          = (*proto.LiveCluster)(nil)
	_ NetworkedEngine = (*proto.Cluster)(nil)
	_ SteppedEngine   = (*proto.Cluster)(nil)
	_ AsyncPublisher  = (*proto.LiveCluster)(nil)
)

// FalseNegatives lists live subscribers whose filter matches ev but that
// are absent from d.Received. The unified Delivery deliberately leaves
// the ground-truth comparison to the caller (the sequential engine's hot
// path cannot afford an O(N) scan per publish); this helper is that
// comparison, shared by the tools, examples and tests.
func FalseNegatives(e Engine, d core.Delivery, ev geom.Point) []core.ProcID {
	got := make(map[core.ProcID]bool, len(d.Received))
	for _, id := range d.Received {
		got[id] = true
	}
	var out []core.ProcID
	for _, id := range e.ProcIDs() {
		if f, ok := e.Filter(id); ok && f.ContainsPoint(ev) && !got[id] {
			out = append(out, id)
		}
	}
	return out
}
