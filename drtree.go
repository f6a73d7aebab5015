// Package drtree is the public API of the DR-tree library: a
// decentralized, self-stabilizing R-tree overlay for peer-to-peer
// content-based publish/subscribe, reproducing Bianchi, Datta, Felber,
// Gradinariu, "Stabilizing Peer-to-Peer Spatial Filters" (ICDCS 2007).
//
// The central abstraction is Engine: the paper's DR-tree rules behind
// one interface, implemented three times —
//
//   - EngineCore — the sequential specification (internal/core): every
//     protocol rule as a directly callable state transition.
//   - EngineProto — the wire protocol (internal/proto) on a simulated
//     network with deterministic message rounds, drops, delays and
//     partitions.
//   - EngineLive — the same protocol actors on one real-time run loop
//     per cluster: one message queue, one timer.
//
// Open builds an engine from functional options; Broker (the
// content-based publish/subscribe front end) and the drtree-sim /
// drtree-bench tools run over any of them.
//
// Quick start:
//
//	eng, _ := drtree.Open(drtree.WithFanout(2, 4))
//	eng.Join(1, drtree.R2(0, 0, 10, 10))
//	eng.Join(2, drtree.R2(5, 5, 20, 20))
//	delivery, _ := eng.Publish(1, drtree.Point{7, 7})
//	batch, _ := eng.PublishBatch([]drtree.Publication{
//		{Producer: 1, Event: drtree.Point{7, 7}},
//		{Producer: 2, Event: drtree.Point{12, 12}},
//	})
//
// See examples/ for runnable programs and DESIGN.md for the paper
// reproduction map.
package drtree

import (
	"fmt"
	"math/rand/v2"

	"drtree/internal/core"
	"drtree/internal/engine"
	"drtree/internal/filter"
	"drtree/internal/geom"
	"drtree/internal/proto"
	"drtree/internal/pubsub"
	"drtree/internal/split"
	"drtree/internal/state"
)

// Geometry re-exports.
type (
	// Rect is an axis-aligned poly-space rectangle (a compiled filter).
	Rect = geom.Rect
	// Point is an event location.
	Point = geom.Point
)

// R2 builds a two-dimensional rectangle from two corners.
func R2(x1, y1, x2, y2 float64) Rect { return geom.R2(x1, y1, x2, y2) }

// NewRect builds an n-dimensional rectangle from per-dimension bounds.
func NewRect(lo, hi []float64) (Rect, error) { return geom.NewRect(lo, hi) }

// Engine re-exports: the unified overlay interface and its optional
// capabilities.
type (
	// Engine is a DR-tree overlay backend; see Open.
	Engine = engine.Engine
	// NetworkedEngine is the capability of engines backed by an
	// inspectable simulated network (message drops, delays, partitions,
	// traffic counters). Satisfied by EngineProto.
	NetworkedEngine = engine.NetworkedEngine
	// SteppedEngine is the capability of deterministic round-based
	// engines (advance one message round at a time). Satisfied by
	// EngineProto.
	SteppedEngine = engine.SteppedEngine
	// AsyncPublisher is the capability of engines that can start a
	// dissemination without waiting for it to finish (InjectEvent).
	// Satisfied by EngineLive; Broker.PublishAsync requires it, and
	// networked daemons use it so a publish RPC returns as soon as the
	// event enters the overlay.
	AsyncPublisher = engine.AsyncPublisher
)

// Overlay re-exports.
type (
	// Tree is the sequential DR-tree engine (the EngineCore backend),
	// exposed for callers that need its full surface beyond Engine.
	Tree = core.Tree
	// Params configures a Tree.
	Params = core.Params
	// ProcID identifies a subscriber process.
	ProcID = core.ProcID
	// JoinStats reports join costs (Tree.JoinWithStats).
	JoinStats = core.JoinStats
	// LeaveStats reports departure repair costs (Tree.LeaveWithStats).
	LeaveStats = core.LeaveStats
	// StabReport is the unified stabilization result of Engine.Stabilize.
	StabReport = core.StabReport
	// Delivery is the unified dissemination result of Engine.Publish.
	Delivery = core.Delivery
	// Publication is one entry of an Engine.PublishBatch batch: an event
	// and the process that produces it. Batches keep multiple events in
	// flight at once (shared scratch in the sequential engine, shared
	// round budget on the wire, pipelined injection in the live runtime)
	// while delivering exactly like sequential publishes.
	Publication = core.Publication
	// Election is a parent/root election policy.
	Election = core.Election
	// LargestMBR is the paper's election rule (Figure 6).
	LargestMBR = core.LargestMBR
)

// NoProc is the zero ProcID, used as "no process".
const NoProc = core.NoProc

// EngineKind names an Engine backend for Open and the -engine CLI flags.
type EngineKind string

const (
	// EngineCore is the sequential specification engine.
	EngineCore EngineKind = "core"
	// EngineProto is the wire protocol on a deterministic simulated
	// network (rounds, drops, delays, partitions).
	EngineProto EngineKind = "proto"
	// EngineLive is the wire protocol's actors on one real-time run loop
	// (one message queue, one timer): the runtime the daemons ship.
	EngineLive EngineKind = "live"
)

// ParseEngineKind parses a -engine flag value.
func ParseEngineKind(s string) (EngineKind, error) {
	switch EngineKind(s) {
	case EngineCore, EngineProto, EngineLive:
		return EngineKind(s), nil
	}
	return "", fmt.Errorf("drtree: unknown engine %q (want core, proto or live)", s)
}

// openConfig collects the Open options.
type openConfig struct {
	kind      EngineKind
	minFanout int
	maxFanout int
	split     split.Policy
	election  Election
	seed      uint64
	seedSet   bool
}

// Option configures Open.
type Option func(*openConfig) error

// WithEngine selects the backend (default EngineCore).
func WithEngine(kind EngineKind) Option {
	return func(c *openConfig) error {
		if _, err := ParseEngineKind(string(kind)); err != nil {
			return err
		}
		c.kind = kind
		return nil
	}
}

// WithFanout sets the paper's m and M bounds (default 2, 4; M >= 2m).
func WithFanout(m, M int) Option {
	return func(c *openConfig) error {
		c.minFanout, c.maxFanout = m, M
		return nil
	}
}

// WithSplit selects the node-splitting policy by name
// (linear, quadratic or rstar; default quadratic).
func WithSplit(name string) Option {
	return func(c *openConfig) error {
		pol, err := split.ByName(name)
		if err != nil {
			return err
		}
		c.split = pol
		return nil
	}
}

// WithElection sets the parent/root election policy (EngineCore only;
// default LargestMBR, the paper's Figure 6 rule).
func WithElection(e Election) Option {
	return func(c *openConfig) error {
		c.election = e
		return nil
	}
}

// WithSeed seeds the simulated network's randomness (message drops,
// delay jitter) for EngineProto. Other engines ignore it.
func WithSeed(seed uint64) Option {
	return func(c *openConfig) error {
		c.seed, c.seedSet = seed, true
		return nil
	}
}

// Open builds a DR-tree overlay engine from functional options:
//
//	eng, err := drtree.Open(drtree.WithEngine(drtree.EngineProto),
//		drtree.WithFanout(2, 4), drtree.WithSeed(42))
//
// With no options it opens the sequential engine with fanout (2, 4).
// Close the returned engine when done; only EngineLive holds background
// resources, but the call is uniform.
func Open(opts ...Option) (Engine, error) {
	cfg := openConfig{kind: EngineCore, minFanout: 2, maxFanout: 4}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	switch cfg.kind {
	case EngineCore:
		return core.New(core.Params{
			MinFanout: cfg.minFanout,
			MaxFanout: cfg.maxFanout,
			Split:     cfg.split,
			Election:  cfg.election,
		})
	case EngineProto:
		cl, err := proto.NewCluster(proto.Config{
			MinFanout: cfg.minFanout,
			MaxFanout: cfg.maxFanout,
			Split:     cfg.split,
		})
		if err != nil {
			return nil, err
		}
		if cfg.seedSet {
			cl.Net().Rand = rand.New(rand.NewPCG(cfg.seed, 0x5EED))
		}
		return cl, nil
	case EngineLive:
		return proto.NewLiveCluster(proto.Config{
			MinFanout: cfg.minFanout,
			MaxFanout: cfg.maxFanout,
			Split:     cfg.split,
		})
	}
	return nil, fmt.Errorf("drtree: unknown engine %q", cfg.kind)
}

// NewTree creates an empty sequential DR-tree overlay with the full
// Tree surface (Open(WithEngine(EngineCore)) narrowed to Engine is the
// interface-first equivalent).
func NewTree(p Params) (*Tree, error) { return core.New(p) }

// FalseNegatives lists live subscribers whose filter matches ev but that
// are absent from d.Received — the ground-truth delivery check shared by
// the tools and examples. On a stabilized overlay it must return nil.
func FalseNegatives(eng Engine, d Delivery, ev Point) []ProcID {
	return engine.FalseNegatives(eng, d, ev)
}

// Publish/subscribe re-exports.
type (
	// Broker is the content-based publish/subscribe front end. It runs
	// over any Engine; subscribers attach to a bounded pool of gateway
	// processes rather than joining the overlay individually, so the
	// overlay size is decoupled from the subscriber count.
	Broker = pubsub.Broker
	// BrokerOption configures NewBroker (see WithGateways).
	BrokerOption = pubsub.Option
	// GatewayStat describes one broker gateway (Broker.GatewayStats).
	GatewayStat = pubsub.GatewayStat
	// Filter is a conjunction of attribute predicates.
	Filter = filter.Filter
	// Event is an attribute/value message.
	Event = filter.Event
	// Space is an ordered attribute schema.
	Space = filter.Space
	// Notification reports one publication.
	Notification = pubsub.Notification
)

// Delivery-layer re-exports: queue-backed subscribers whose consumer
// code can be arbitrarily slow — or dead — without ever blocking
// Publish/PublishBatch or other subscribers: a full queue sheds its
// oldest event, and each event reaches its handler at most once.
type (
	// Envelope is one event delivered to a queue-backed subscriber
	// (Broker.SubscribeFunc / Broker.SubscribeChan), as a point of the
	// broker's space: e.Point[i] is the value of space.Attrs()[i]. The
	// point is shared by every envelope of the event, so it is read-only.
	Envelope = pubsub.Envelope
	// Handler consumes envelopes on the subscriber's own goroutine.
	Handler = pubsub.Handler
	// DeliveryOption configures a queue-backed subscription (see
	// WithQueueDepth).
	DeliveryOption = pubsub.DeliveryOption
	// DeliveryStats snapshots one subscriber's delivery-queue counters
	// (Broker.DeliveryStats / Broker.DeliveryStatsOf).
	DeliveryStats = pubsub.DeliveryStats
)

// DefaultQueueDepth is the delivery-queue capacity used when
// WithQueueDepth is not given.
const DefaultQueueDepth = pubsub.DefaultQueueDepth

// ErrProducerNotRegistered reports a publish whose producer is not a
// current subscriber — including the race where the producer is
// unsubscribed concurrently with the publish.
var ErrProducerNotRegistered = pubsub.ErrProducerNotRegistered

// WithQueueDepth sets a subscriber's delivery-queue capacity (default
// DefaultQueueDepth).
func WithQueueDepth(n int) DeliveryOption { return pubsub.WithQueueDepth(n) }

// NewSpace builds an attribute space over the given names.
func NewSpace(attrs ...string) (*Space, error) { return filter.NewSpace(attrs...) }

// WithGateways makes the Broker's gateway pool a hash pool of n
// overlay processes (default 16): subscriber id lives on gateway
// base + id mod n, and the pool never grows or shrinks. More gateways
// mean tighter aggregate filters and smaller per-gateway match indexes;
// fewer mean a smaller overlay.
func WithGateways(n int) BrokerOption { return pubsub.WithGateways(n) }

// WithGatewayPolicy gives the Broker's gateway pool the fit placer
// instead of the hash: the pool starts at min gateways, a gateway
// reaching target subscriptions splits onto a new overlay member (up to
// max), and an underfull gateway drains into its peers and retires.
// Subscriptions are placed spatially (least union enlargement), so the
// broker's top-level routing tree prunes classification work — see
// Notification.GatewayVisited. Mutually exclusive with WithGateways.
func WithGatewayPolicy(target, min, max int) BrokerOption {
	return pubsub.WithGatewayPolicy(target, min, max)
}

// WithGatewayBase sets the overlay process ID of the Broker's first
// gateway (default 1); gateway i gets base+i. Brokers sharing one
// overlay from different daemons — each daemon owning a disjoint slice
// of the process-ID space — give each broker a disjoint base.
func WithGatewayBase(base ProcID) BrokerOption { return pubsub.WithGatewayBase(base) }

// Durable-state re-exports: the broker's control plane can outlive the
// process through a narrow Store seam (see internal/state).
type (
	// Store is the durability seam: an append-only journal with a
	// snapshot baseline behind Write/Sync/Snapshot/Replay/Compact. Adding
	// a record is Write (ordered) then Sync (durable); the built-in stores
	// offer the pair as Append.
	Store = state.Store
	// StoreStats describes a store's shape (records, snapshot presence,
	// torn bytes repaired on open).
	StoreStats = state.Stats
	// RecoverStats summarizes one Broker.Recover pass.
	RecoverStats = pubsub.RecoverStats
)

// OpenWAL opens (or creates) the file-backed store in dir: an
// append-only write-ahead log with CRC-protected records, group-commit
// fsync batching and torn-tail repair, plus an atomically installed
// snapshot file.
func OpenWAL(dir string) (*state.WAL, error) { return state.OpenWAL(dir) }

// NewMemStore returns the pure in-memory Store — the durability
// contract without the filesystem, for tests and ephemeral brokers.
func NewMemStore() *state.Mem { return state.NewMem() }

// WithStore makes a Broker durable: every Subscribe, Unsubscribe and
// UpdateFilter journals to s before returning, and a broker constructed
// later over the same store rebuilds the subscription set with
// Broker.Recover (subscribers then re-attach by ID with
// Broker.AttachFunc / Broker.AttachChan).
func WithStore(s Store) BrokerOption { return pubsub.WithStore(s) }

// WithSnapshotEvery sets a durable Broker's checkpoint cadence: a
// background snapshot+compact after every n journaled operations (0
// disables automatic checkpoints; Broker.Checkpoint stays available).
func WithSnapshotEvery(n int) BrokerOption { return pubsub.WithSnapshotEvery(n) }

// NewBroker creates a publish/subscribe broker over space on the given
// overlay engine:
//
//	eng, _ := drtree.Open(drtree.WithEngine(drtree.EngineProto))
//	broker, _ := drtree.NewBroker(space, eng, drtree.WithGateways(8))
func NewBroker(space *Space, eng Engine, opts ...BrokerOption) (*Broker, error) {
	return pubsub.New(space, eng, opts...)
}

// ParseFilter parses the textual predicate language, e.g.
// "price in [10, 20] && qty >= 3".
func ParseFilter(src string) (Filter, error) { return filter.Parse(src) }

// Range is a convenience filter constructor: the closed interval
// lo <= attr <= hi. Conjoin ranges with Filter.And.
func Range(attr string, lo, hi float64) Filter { return filter.Range(attr, lo, hi) }
