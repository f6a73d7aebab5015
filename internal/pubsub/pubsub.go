// Package pubsub embeds a content-based publish/subscribe system in the
// DR-tree overlay (the paper's overall goal): subscribers register
// predicate filters (package filter), the broker compiles them to
// poly-space rectangles over a fixed attribute Space, and routes events
// with no false negatives and few false positives.
//
// The broker decouples subscribers from overlay processes through a
// gateway layer: subscribers attach to a bounded pool of gateway
// processes (the only members of the DR-tree), and each gateway's
// overlay filter is the MBR-union of its local subscriptions — the
// paper's §2.2 containment relation applied at runtime. The overlay
// size, join traffic and per-event routing cost therefore scale with
// the gateway count, not the subscriber count; per-gateway matching
// uses a local R-tree index over the unique subscription rectangles
// (equivalent filters share one entry), so per-event classification is
// sublinear in subscribers too.
//
// The broker is engine-agnostic: it consumes only the unified
// engine.Engine interface, so the same pub/sub front end runs over the
// sequential tree, the deterministic message-passing cluster (including
// lossy simulated networks), or the run-loop live cluster.
// Gateways move their overlay filter in place through
// Engine.UpdateFilter.
package pubsub

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"drtree/internal/core"
	"drtree/internal/engine"
	"drtree/internal/filter"
	"drtree/internal/geom"
	"drtree/internal/rtree"
	"drtree/internal/split"
	"drtree/internal/state"
)

// ErrProducerNotRegistered reports a Publish/PublishBatch whose producer
// is not a current subscriber — including the race where the producer is
// unsubscribed concurrently with the publish (which the engine reports
// as core.ErrNotMember).
var ErrProducerNotRegistered = errors.New("pubsub: producer not registered")

// DefaultGateways is the default size of the gateway pool. Sixteen keeps
// a gateway's lock essentially uncontended for any realistic publisher
// count while the overlay stays small and the per-gateway match indexes
// stay cache-friendly.
const DefaultGateways = 16

// subscription is the broker-side record of one subscriber.
type subscription struct {
	f    filter.Filter
	key  string    // rectKey of the compiled rectangle, into gateway.entries
	cons *consumer // delivery queue; nil for record-only subscribers
}

// matchEntry is one unique subscription rectangle inside a gateway's
// match index, shared by every subscriber whose filter compiles to the
// same rectangle (equivalent-filter dedup: the containment order's
// equivalence classes collapse to one R-tree entry).
type matchEntry struct {
	rect geom.Rect
	subs map[core.ProcID]entrySub
}

// entrySub is one subscriber sharing a match entry: its exact predicate
// filter, compiled once against the space so an event is matched on its
// point, and its delivery queue (nil for record-only subscribers). The
// source filter is the subscription's.
type entrySub struct {
	pf   filter.PointFilter
	cons *consumer
}

// matchIndex is the spatial-index surface a gateway needs from its
// match index. An interface (satisfied by *rtree.Tree) so tests can
// inject index faults when certifying the broker's failure paths.
type matchIndex interface {
	Insert(r geom.Rect, data any) error
	Delete(r geom.Rect, data any) (bool, error)
	VisitAppend(p geom.Point, dst []any) (matches []any, visited int)
}

// gateway is one overlay process aggregating many local subscriptions.
// Its overlay filter is the running MBR-union of the local rectangles:
// it grows when a subscription escapes the current union (a contained
// filter rides for free — §2.2 at runtime) and shrinks opportunistically
// when the unique rectangle set loses a maximal element.
type gateway struct {
	procID core.ProcID // overlay process ID (gateway base + off)
	off    int         // stable pool offset; survives pool compaction

	mu      sync.RWMutex
	subs    map[core.ProcID]subscription
	entries map[string]*matchEntry
	index   matchIndex // unique rectangles -> *matchEntry
	union   geom.Rect  // exact MBR-union fold of entries (see union.go)
	// loAt/hiAt count, per dimension, how many entries numerically
	// attain the union's lo/hi boundary — the incremental re-union
	// bookkeeping (union.go).
	loAt, hiAt []int
	// fullReunions counts O(entries) union recomputations on the
	// unsubscribe/UpdateFilter shrink path (boundary departures); the
	// drift workloads pin it to zero for contained moves.
	fullReunions uint64
	routeRect    geom.Rect // rectangle registered in the routing tree (empty = absent)
	joined       bool
}

// Broker is the pub/sub front end over one DR-tree engine. It is safe
// for concurrent use: subscriber state is sharded per gateway under
// per-gateway read/write locks, and overlay-engine calls (which the
// Engine contract does not require to be concurrency-safe) are
// serialized behind a single engine mutex. The expensive per-event work
// — compiling filters and events, and the match-index scans that
// classify interest — runs outside the engine mutex, so concurrent
// publishers only serialize on the overlay traversal itself. The lock
// order, and which call holds which lock how, is written once, in
// pool.go.
type Broker struct {
	space *filter.Space
	engMu sync.Mutex // serializes all calls into eng
	eng   engine.Engine

	// poolMu guards the pool itself: gws, byProc, assign, idle, nextOff
	// (pool.go has the lock order).
	poolMu  sync.RWMutex
	gws     []*gateway
	byProc  map[core.ProcID]*gateway
	assign  map[core.ProcID]*gateway // subscriber -> gateway: the owner lookup
	idle    []*gateway               // zero-load gateways, reused before growing
	nextOff int                      // next never-used pool offset
	policy  gatewayPolicy

	// route is the top level of the two-level classification tree: one
	// entry per gateway with at least one subscription, keyed by the
	// gateway's MBR-union. An event consults it once to learn which
	// per-gateway match indexes to visit at all.
	routeMu sync.RWMutex
	route   *rtree.Tree

	gwBase core.ProcID // procID of pool offset 0

	// Durability (nil store = memory-only broker, the previous behaviour).
	store     state.Store
	snapEvery int
	sinceSnap atomic.Uint64 // journal records since the last checkpoint
	snapBusy  atomic.Bool   // one background checkpoint at a time

	// defaultDelivery holds the broker-wide delivery defaults that
	// per-subscription DeliveryOptions override.
	defaultDelivery deliveryConfig
}

// New creates a broker over the given attribute space and overlay
// engine. The broker owns the engine from then on: overlay membership
// must be managed through the broker only. The option list is flat:
// construction options (WithGateways, WithStore, ...) and delivery
// options (WithQueueDepth, ...; applied as broker-wide defaults) mix
// freely.
func New(space *filter.Space, eng engine.Engine, opts ...Option) (*Broker, error) {
	if space == nil {
		return nil, fmt.Errorf("pubsub: nil space")
	}
	if eng == nil {
		return nil, fmt.Errorf("pubsub: nil engine")
	}
	cfg := brokerConfig{
		gwBase:        1,
		snapshotEvery: DefaultSnapshotEvery,
		delivery:      deliveryConfig{depth: DefaultQueueDepth},
	}
	for _, opt := range opts {
		if err := opt.applyBroker(&cfg); err != nil {
			return nil, err
		}
	}
	if cfg.policy.max == 0 {
		cfg.policy = gatewayPolicy{hash: true, min: DefaultGateways, max: DefaultGateways}
	}
	b := &Broker{
		space:           space,
		eng:             eng,
		gwBase:          cfg.gwBase,
		policy:          cfg.policy,
		store:           cfg.store,
		snapEvery:       cfg.snapshotEvery,
		defaultDelivery: cfg.delivery,
	}
	// Same wide fan-out as the per-gateway match indexes: a fit pool can
	// reach thousands of gateways, and fan-out 32 keeps the routing tree
	// two levels deep (so route-node visits stay a small constant) all
	// the way to the policy ceiling.
	b.route = rtree.MustNew(8, 32, split.RStar{})
	n := b.policy.min
	b.assign = make(map[core.ProcID]*gateway)
	b.byProc = make(map[core.ProcID]*gateway, n)
	b.gws = make([]*gateway, 0, n)
	for i := 0; i < n; i++ {
		gw := b.newGateway(i)
		b.gws = append(b.gws, gw)
		b.byProc[gw.procID] = gw
	}
	b.idle = slices.Clone(b.gws)
	b.nextOff = n
	return b, nil
}

// rectKey is an exact, collision-free encoding of a rectangle's bounds
// (bit-level, not printf-rounded) used to detect equivalent filters.
// Negative zero is normalized to positive zero before encoding so the
// key respects Rect.Equal: -0.0 == +0.0 but their bit patterns differ,
// and without the normalization two Equal rectangles would land in
// different equivalence classes and duplicate match-index entries.
func rectKey(r geom.Rect) string {
	buf := make([]byte, 0, 16*r.Dims())
	for i := 0; i < r.Dims(); i++ {
		buf = strconv.AppendUint(buf, math.Float64bits(r.Lo(i)+0), 16)
		buf = append(buf, ':')
		buf = strconv.AppendUint(buf, math.Float64bits(r.Hi(i)+0), 16)
		buf = append(buf, ';')
	}
	return string(buf)
}

// owner returns the gateway subscriber id is assigned to, nil when id
// is not registered. An assignment is made and dropped under poolMu
// held exclusively, together with the gateway's own record of id.
func (b *Broker) owner(id core.ProcID) *gateway {
	b.poolMu.RLock()
	gw := b.assign[id]
	b.poolMu.RUnlock()
	return gw
}

// poolSnapshot clones the pool slice for lock-free iteration.
func (b *Broker) poolSnapshot() []*gateway {
	b.poolMu.RLock()
	gws := slices.Clone(b.gws)
	b.poolMu.RUnlock()
	return gws
}

// Engine exposes the underlying overlay engine (for inspection and
// experiments). Callers must not mutate the engine concurrently with
// broker operations.
func (b *Broker) Engine() engine.Engine { return b.eng }

// Space returns the broker's attribute space.
func (b *Broker) Space() *filter.Space { return b.space }

// Gateways returns the current gateway pool size (fixed under
// WithGateways; load-driven under WithGatewayPolicy).
func (b *Broker) Gateways() int {
	b.poolMu.RLock()
	n := len(b.gws)
	b.poolMu.RUnlock()
	return n
}

// Len returns the number of active subscribers.
func (b *Broker) Len() int {
	b.poolMu.RLock()
	n := len(b.assign)
	b.poolMu.RUnlock()
	return n
}

// GatewayStat describes one gateway of the pool.
type GatewayStat struct {
	// ProcID is the gateway's overlay process ID.
	ProcID core.ProcID
	// Subscribers is the number of local subscriptions.
	Subscribers int
	// UniqueFilters is the number of distinct subscription rectangles
	// (the match-index size; equivalent filters share an entry).
	UniqueFilters int
	// Filter is the gateway's overlay filter: the MBR-union of the local
	// subscription rectangles (empty when the gateway is not joined).
	Filter geom.Rect
	// Joined reports whether the gateway is currently an overlay member.
	Joined bool
	// QueueDepth is the total backlog across the delivery queues of the
	// gateway's queue-backed subscribers (zero when none).
	QueueDepth int
	// Dropped totals the messages shed by those queues (overflow,
	// close).
	Dropped uint64
	// FullReunions counts the O(entries) union recomputations this
	// gateway performed on the unsubscribe/UpdateFilter shrink path.
	// Contained filter moves keep it flat (the incremental re-union);
	// only boundary departures pay the fold.
	FullReunions uint64
}

// GatewayStats returns a snapshot of every gateway in pool order.
func (b *Broker) GatewayStats() []GatewayStat {
	gws := b.poolSnapshot()
	out := make([]GatewayStat, len(gws))
	for i, gw := range gws {
		gw.mu.RLock()
		st := GatewayStat{
			ProcID:        gw.procID,
			Subscribers:   len(gw.subs),
			UniqueFilters: len(gw.entries),
			Joined:        gw.joined,
			FullReunions:  gw.fullReunions,
		}
		if gw.joined {
			st.Filter = gw.union
		}
		for _, sub := range gw.subs {
			if sub.cons == nil {
				continue
			}
			qs := sub.cons.q.Stats()
			st.QueueDepth += qs.Depth
			st.Dropped += qs.Dropped
		}
		out[i] = st
		gw.mu.RUnlock()
	}
	return out
}

// engJoin joins a gateway to the overlay under the engine mutex.
func (b *Broker) engJoin(id core.ProcID, f geom.Rect) error {
	b.engMu.Lock()
	defer b.engMu.Unlock()
	return b.eng.Join(id, f)
}

// engUpdateFilter moves gw's overlay filter under the engine mutex. A
// refusal changes nothing: the gateway keeps its membership and its
// previous filter.
func (b *Broker) engUpdateFilter(gw *gateway, f geom.Rect) error {
	b.engMu.Lock()
	defer b.engMu.Unlock()
	return b.eng.UpdateFilter(gw.procID, f)
}

// Subscribe registers subscriber id with the given filter: the filter is
// compiled to its rectangle, indexed at the owning gateway, and the
// gateway's overlay filter grows to cover it if it does not already
// (message-passing engines may still be routing the join or the filter
// update when Subscribe returns; Repair drives the overlay to
// quiescence). Subscriber IDs must be positive and unused. On a durable
// broker the registration is durable when Subscribe returns nil; it
// takes part in matching from one fsync earlier (journal.go).
func (b *Broker) Subscribe(id core.ProcID, f filter.Filter) error {
	return b.subscribe(id, f, nil, nil, nil)
}

// subscribe is Subscribe, SubscribeFunc and SubscribeChan: a Batch of
// one Subscribe. Subscribe passes a nil consumer (record-only), the
// others the subscriber's delivery queue and what drains it. A
// registration that cannot be made durable is taken back (Batch.Sync)
// and the sync error returned.
func (b *Broker) subscribe(id core.ProcID, f filter.Filter, cons *consumer, ob *Outbox, h Handler) error {
	bt := Batch{b: b}
	if err := bt.subscribe(id, f, cons, ob, h); err != nil {
		return err
	}
	return bt.Sync()
}

// subscribeAt is the one registration path, up to, not including, the
// sync: placement (pool.go), then the engine, then the journal write,
// then the local maps, the incremental union and the assignment. It
// returns the sequence number of the last journal record it wrote for
// the caller to sync on once the locks are gone (0 with journal false —
// the Recover path, which re-applies records that are already durable).
// off >= 0 is the pool offset Recover found journaled for id; off < 0
// places afresh. The Subscribe record is the last one it writes — a
// split's pool and assign records come before it — so syncing on its
// number covers them.
func (b *Broker) subscribeAt(id core.ProcID, f filter.Filter, cons *consumer, journal bool, off int) (uint64, error) {
	if id <= core.NoProc {
		return 0, fmt.Errorf("pubsub: subscriber IDs must be positive, got %d", id)
	}
	rect, err := b.space.Rect(f)
	if err != nil {
		return 0, fmt.Errorf("pubsub: compiling filter: %w", err)
	}
	pf, _ := b.space.PointFilter(f) // Rect has checked f's attributes against the space
	b.poolMu.Lock()
	defer b.poolMu.Unlock()
	if b.assign[id] != nil {
		return 0, fmt.Errorf("pubsub: subscriber %d already registered", id)
	}
	gw, derived, err := b.placeLocked(id, rect, off)
	if err != nil {
		return 0, err
	}
	gw.mu.Lock()
	defer gw.mu.Unlock()
	key := rectKey(rect)
	newEntry := gw.entries[key] == nil
	// Overlay side first: if the engine refuses, no local state was
	// touched. A rectangle inside the current union costs no engine
	// traffic at all (the containment relation rides for free).
	switch {
	case !gw.joined:
		if err := b.engJoin(gw.procID, gw.unionPeekAdd(rect)); err != nil {
			return 0, err
		}
		gw.joined = true
	case newEntry && !gw.union.Contains(rect):
		if err := b.engUpdateFilter(gw, gw.unionPeekAdd(rect)); err != nil {
			return 0, err
		}
	}
	// Write before the local commit: if the write fails nothing local
	// changed (the grown union is harmless — false positives at worst),
	// and if a later step fails the journal holds a subscription the
	// memory lacks — a recovered ghost, also false-positive-safe.
	var seq uint64
	if journal {
		if seq, err = b.journalWrite(journalSubscribe, id, f, gw.off); err != nil {
			return 0, err
		}
	}
	if newEntry {
		e := &matchEntry{rect: rect, subs: make(map[core.ProcID]entrySub)}
		if err := gw.index.Insert(rect, e); err != nil {
			return 0, fmt.Errorf("pubsub: indexing filter: %w", err)
		}
		gw.entries[key] = e
		gw.unionCommitAdd(rect)
		b.routeReplace(gw, gw.union)
	}
	gw.entries[key].subs[id] = entrySub{pf: pf, cons: cons}
	gw.subs[id] = subscription{f: f, key: key, cons: cons}
	b.assign[id] = gw
	b.unmarkIdleLocked(gw)
	if derived && !journal {
		// Recovery placed a subscription whose journaled gateway is gone
		// (a torn pool record): journal the assignment so the *next*
		// recovery replays this placement instead of re-deriving it
		// against a different pool shape. Best-effort; Recover syncs.
		_ = b.journalAssign(id, gw.off)
	}
	return seq, nil
}

// SubscribeExpr is Subscribe with a textual filter (filter.Parse syntax).
func (b *Broker) SubscribeExpr(id core.ProcID, src string) error {
	f, err := filter.Parse(src)
	if err != nil {
		return err
	}
	return b.Subscribe(id, f)
}

// remove is the shared tail of Unsubscribe and Fail: detach the whole
// gateway from the overlay when this was its last subscription (a
// gateway never lingers with a stale filter) or shrink the gateway's
// overlay filter opportunistically when a maximal rectangle disappears,
// then drop the local subscription. The engine is consulted *before*
// any local mutation, mirroring subscribe: a refusal leaves the local
// state untouched, so there is no rollback path — in particular no
// fallible match-index re-insert whose own failure used to leave the
// rectangle missing from the index while the subscription stayed
// registered (a permanent false negative). The departure is a Batch of
// one: synced once the locks are released; if that fails it stands —
// the engine has let go — and the error says durability is behind.
func (b *Broker) remove(id core.ProcID, leave func(core.ProcID) error) error {
	bt := Batch{b: b}
	if err := bt.remove(id, leave); err != nil {
		return err
	}
	return bt.Sync()
}

// removeUnsynced is the one removal path, remove up to, not including,
// the sync: it removes under the pool lock, then runs the shrink policy
// (an emptied gateway retires while the pool is above its floor, an
// underfull one drains into its peers; neither happens when min == max),
// and returns the highest journal sequence number the departure wrote.
// With only non-nil, id is removed only while only is its queue (a
// Batch taking back its own registration).
func (b *Broker) removeUnsynced(id core.ProcID, leave func(core.ProcID) error, only *consumer) (uint64, error) {
	b.poolMu.Lock()
	defer b.poolMu.Unlock()
	gw := b.assign[id]
	if gw == nil {
		return 0, fmt.Errorf("pubsub: subscriber %d not registered", id)
	}
	gw.mu.Lock()
	if only != nil && gw.subs[id].cons != only {
		gw.mu.Unlock()
		return 0, fmt.Errorf("pubsub: subscriber %d not registered by this batch", id)
	}
	removed, err := b.removeLocked(gw, id, leave)
	gw.mu.Unlock()
	if removed {
		delete(b.assign, id)
	}
	if err != nil {
		// Either nothing changed (engine refusal) or only durability is
		// behind (journal write). Skip the shrink either way: pool
		// reorganizations would pile more writes onto a failing store.
		return 0, err
	}
	b.shrinkPoolLocked(gw)
	// The shrink journals its retire and assign records after the
	// departure's: the frontier, not the Unsubscribe record, is this
	// call's highest.
	return b.journalFrontier(), nil
}

// removeLocked commits one departure on gw, engine first, then writes
// its journal record. Reports whether the local removal happened: a
// journal-write failure still removes (the engine already committed)
// and returns the error only to signal durability lag. poolMu held
// exclusively, gw.mu held.
func (b *Broker) removeLocked(gw *gateway, id core.ProcID, leave func(core.ProcID) error) (bool, error) {
	sub := gw.subs[id]
	e := gw.entries[sub.key]
	entryGone := len(e.subs) == 1
	lastSub := len(gw.subs) == 1
	var newU geom.Rect
	var full bool
	switch {
	case lastSub:
		b.engMu.Lock()
		err := leave(gw.procID)
		b.engMu.Unlock()
		if err != nil {
			return false, err
		}
		gw.joined = false
	case entryGone:
		newU, full = gw.unionPeekRemove(e)
		if !newU.Equal(gw.union) {
			if err := b.engUpdateFilter(gw, newU); err != nil {
				return false, err
			}
		}
	}
	delete(gw.subs, id)
	delete(e.subs, id)
	if entryGone {
		delete(gw.entries, sub.key)
		// The engine already committed: a failed index delete merely
		// leaves an inert entry behind (its subscriber map is empty) —
		// scan garbage at worst, never a false negative.
		gw.index.Delete(e.rect, e)
		if lastSub {
			gw.unionReset()
		} else {
			gw.unionCommitRemove(e, newU, full)
		}
		b.routeReplace(gw, gw.union)
	}
	if sub.cons != nil {
		sub.cons.q.Close()
	}
	// Journal last: the engine already committed the departure, so the
	// removal must stand either way. A failed write leaves a ghost
	// subscription in the journal — a false positive after recovery,
	// never a false negative — and the error tells the caller durability
	// is behind.
	_, err := b.journalWrite(journalUnsubscribe, id, filter.Filter{}, gw.off)
	return true, err
}

// recomputeUnion derives the gateway's tightest overlay filter after a
// unique rectangle disappeared. By the §2.2 containment order this
// equals the union of the order's maximal elements (every non-maximal
// rectangle is inside a maximal one, and equivalents already collapsed
// into one entry) — which is exactly the direct union of all entries,
// computed in one O(entries) pass rather than via an O(entries²)
// containment-graph build on the churn path.
func (gw *gateway) recomputeUnion() geom.Rect {
	var u geom.Rect
	for _, e := range gw.entries {
		u = u.Union(e.rect)
	}
	return u
}

// unionWithout is recomputeUnion with one entry excluded — the union the
// gateway will need once that entry's last subscriber is removed,
// computed before any local state changes so the engine can be consulted
// first.
func (gw *gateway) unionWithout(skip *matchEntry) geom.Rect {
	var u geom.Rect
	for _, e := range gw.entries {
		if e == skip {
			continue
		}
		u = u.Union(e.rect)
	}
	return u
}

// Unsubscribe removes a subscriber; a gateway losing its last
// subscription leaves the overlay via a controlled departure.
func (b *Broker) Unsubscribe(id core.ProcID) error {
	return b.remove(id, b.eng.Leave)
}

// UpdateFilter atomically replaces subscriber id's filter, preserving
// its delivery queue and sequence numbering. The gateway's overlay
// filter grows (engine-first) when the new rectangle escapes the
// current union and shrinks opportunistically when the old rectangle
// was a maximal element. On a durable broker the change is written to
// the journal before any local state moves, and durable when
// UpdateFilter returns nil; if only the sync fails the new filter stays
// in force in memory and the error says durability is behind.
func (b *Broker) UpdateFilter(id core.ProcID, f filter.Filter) error {
	bt := Batch{b: b}
	if err := bt.updateFilter(id, f); err != nil {
		return err
	}
	return bt.Sync()
}

// updateFilterUnsynced is UpdateFilter up to, not including, the sync:
// it returns the sequence number of the journal record it wrote.
func (b *Broker) updateFilterUnsynced(id core.ProcID, f filter.Filter, rect geom.Rect) (uint64, error) {
	pf, _ := b.space.PointFilter(f) // rect was compiled from f, which checked its attributes
	// A shared pool lock keeps the owning gateway stable against
	// concurrent removals, drains and splits while letting filter moves
	// (the continuous-motion hot path) proceed in parallel.
	b.poolMu.RLock()
	defer b.poolMu.RUnlock()
	gw := b.assign[id]
	if gw == nil {
		return 0, fmt.Errorf("pubsub: subscriber %d not registered", id)
	}
	gw.mu.Lock()
	defer gw.mu.Unlock()
	sub := gw.subs[id]
	newKey := rectKey(rect)
	if newKey == sub.key {
		// Same rectangle, possibly different predicates (e.g. x >= 1
		// vs 1 <= x <= inf): only the exact-match filter changes.
		seq, err := b.journalWrite(journalUpdate, id, f, gw.off)
		if err != nil {
			return 0, err
		}
		e := gw.entries[sub.key]
		e.subs[id] = entrySub{pf: pf, cons: sub.cons}
		gw.subs[id] = subscription{f: f, key: sub.key, cons: sub.cons}
		return seq, nil
	}
	oldE := gw.entries[sub.key]
	oldGone := len(oldE.subs) == 1
	// Target union after the move: the surviving fold plus the new
	// rectangle. The incremental bookkeeping makes this O(d) for a move
	// that neither leaves a union boundary nor escapes the union — the
	// common case under continuous motion — instead of the old
	// O(entries) refold on every move. Engine first, as everywhere: a
	// refusal changes nothing.
	base, full := gw.union, false
	if oldGone {
		base, full = gw.unionPeekRemove(oldE)
	}
	target := base.Union(rect)
	if !target.Equal(gw.union) {
		if err := b.engUpdateFilter(gw, target); err != nil {
			return 0, err
		}
	}
	seq, err := b.journalWrite(journalUpdate, id, f, gw.off)
	if err != nil {
		return 0, err
	}
	newE := gw.entries[newKey]
	created := newE == nil
	if created {
		// Index insert is the last fallible step; the entry enters the
		// entries map only after the old entry's removal is committed,
		// so a full-fold recount never sees both.
		newE = &matchEntry{rect: rect, subs: make(map[core.ProcID]entrySub)}
		if err := gw.index.Insert(rect, newE); err != nil {
			return 0, fmt.Errorf("pubsub: indexing filter: %w", err)
		}
	}
	delete(oldE.subs, id)
	if oldGone {
		delete(gw.entries, sub.key)
		// As in remove: a failed index delete leaves an inert entry,
		// never a false negative.
		gw.index.Delete(oldE.rect, oldE)
		gw.unionCommitRemove(oldE, base, full)
	}
	if created {
		gw.entries[newKey] = newE
		gw.unionCommitAdd(rect)
	}
	newE.subs[id] = entrySub{pf: pf, cons: sub.cons}
	gw.subs[id] = subscription{f: f, key: newKey, cons: sub.cons}
	b.routeReplace(gw, gw.union)
	return seq, nil
}

// Fail simulates an abrupt subscriber failure; a gateway losing its last
// subscription crashes out of the overlay (call Repair, or rely on the
// next Repair, to restore the structure).
func (b *Broker) Fail(id core.ProcID) error {
	return b.remove(id, b.eng.Crash)
}

// Repair runs the overlay stabilization to quiescence.
func (b *Broker) Repair() core.StabReport {
	b.engMu.Lock()
	defer b.engMu.Unlock()
	return b.eng.Stabilize()
}

// Close stops every subscriber delivery queue (shedding their backlogs;
// Close never waits on a consumer callback) and releases the underlying
// engine's resources.
func (b *Broker) Close() error {
	for _, gw := range b.poolSnapshot() {
		gw.mu.Lock()
		for _, sub := range gw.subs {
			if sub.cons != nil {
				sub.cons.q.Close()
			}
		}
		gw.mu.Unlock()
	}
	b.engMu.Lock()
	defer b.engMu.Unlock()
	return b.eng.Close()
}

// Notification is the outcome of publishing one event.
type Notification struct {
	// Interested lists subscribers whose filter exactly matches the
	// event (strict predicate semantics), ascending.
	Interested []core.ProcID
	// Received lists subscribers that physically received the event:
	// their subscription rectangle contains it and their gateway's
	// overlay dissemination reached the gateway.
	Received []core.ProcID
	// FalsePositives = received but not interested (rectangle vs strict
	// predicate boundary cases).
	FalsePositives []core.ProcID
	// FalseNegatives = interested but not received (must always be
	// empty on a stabilized overlay; kept for verification). Under
	// concurrent subscriber churn the classification is best-effort: a
	// subscriber joining between overlay routing and the match scan can
	// appear here transiently.
	FalseNegatives []core.ProcID
	// Messages is the inter-process message count of the overlay
	// dissemination (gateway-to-gateway traffic).
	Messages int
	// Rounds is the dissemination latency in network rounds
	// (message-passing engines; 0 for the sequential engine).
	Rounds int
	// ScanVisited counts the R-tree nodes visited to classify this
	// event: the top-level routing tree over gateway unions plus every
	// match index the event was probed against — the total spatial
	// matching cost that replaced the global linear subscriber scan. It
	// is deterministic for a fixed subscription set and event, and grows
	// sublinearly in subscribers.
	ScanVisited int
	// GatewayVisited counts how many per-gateway match indexes this
	// event was probed against: the top-level routing tree over gateway
	// MBR-unions prunes the rest of the pool outright. With a spatially
	// coherent (policy-placed) pool this stays near-constant while the
	// pool grows with load; a fixed hash-assigned pool has overlapping
	// unions, so most events still visit most gateways.
	GatewayVisited int
}

// Publish routes an event from the given producer through the overlay.
// The producer must be a subscriber (the paper's model: publishers and
// consumers share the overlay — the producer's gateway injects the
// event). It is PublishBatch with a batch of one.
func (b *Broker) Publish(producer core.ProcID, ev filter.Event) (Notification, error) {
	notes, err := b.PublishBatch(producer, []filter.Event{ev})
	if err != nil {
		return Notification{}, err
	}
	return notes[0], nil
}

// PublishBatch routes a batch of events from the given producer's
// gateway through the overlay's batched pipeline
// (engine.Engine.PublishBatch) and returns one Notification per event,
// index-aligned. The overlay is traversed with the whole batch in flight
// under one engine-mutex acquisition, and each gateway's match index is
// queried once per event for the whole batch, so the per-event cost
// falls with the batch size.
func (b *Broker) PublishBatch(producer core.ProcID, evs []filter.Event) ([]Notification, error) {
	if len(evs) == 0 {
		return nil, nil
	}
	pgw := b.owner(producer)
	if pgw == nil {
		return nil, fmt.Errorf("%w: %d", ErrProducerNotRegistered, producer)
	}
	gwID := pgw.procID
	batch := make([]core.Publication, len(evs))
	points := make([]geom.Point, len(evs))
	for i, ev := range evs {
		p, err := b.space.Point(ev)
		if err != nil {
			return nil, err
		}
		points[i] = p
		batch[i] = core.Publication{Producer: gwID, Event: p}
	}
	b.engMu.Lock()
	ds, err := b.eng.PublishBatch(batch)
	b.engMu.Unlock()
	if err != nil {
		return nil, producerErr(producer, err)
	}
	notes := make([]Notification, len(evs))
	reached := make([]map[core.ProcID]bool, len(evs))
	for i := range ds {
		notes[i].Messages = ds[i].Messages
		notes[i].Rounds = ds[i].Rounds
		reached[i] = make(map[core.ProcID]bool, len(ds[i].Received))
		for _, id := range ds[i].Received {
			reached[i][id] = true
		}
	}
	pend := b.classifyBatch(notes, points, reached)
	// Delivery happens strictly after every gateway lock is released,
	// and enqueueing never waits: a full queue sheds, so a frozen
	// consumer costs the publisher nothing.
	b.dispatch(pend)
	return notes, nil
}

// PublishAsync starts disseminating an event from the given producer's
// gateway and returns as soon as the event is in flight, without the
// receipt census Publish blocks for. It requires an engine with the
// engine.AsyncPublisher capability (the live cluster). Deliveries reach
// queue-backed subscribers through NotifyPoint, which the hosting
// daemon bridges to the runtime's event hook — PublishAsync itself
// performs no matching, so there is no double delivery.
func (b *Broker) PublishAsync(producer core.ProcID, ev filter.Event) error {
	ap, ok := b.eng.(engine.AsyncPublisher)
	if !ok {
		return fmt.Errorf("pubsub: engine %T cannot publish asynchronously", b.eng)
	}
	pgw := b.owner(producer)
	if pgw == nil {
		return fmt.Errorf("%w: %d", ErrProducerNotRegistered, producer)
	}
	p, err := b.space.Point(ev)
	if err != nil {
		return err
	}
	// Not under engMu: InjectEvent is safe for concurrent use and may
	// wait for room in the engine's queue, which drains through event
	// hooks that take gateway locks (NotifyPoint).
	if err := ap.InjectEvent(pgw.procID, p); err != nil {
		return producerErr(producer, err)
	}
	return nil
}

// producerErr maps an engine's refusal of a publish. A concurrent
// Unsubscribe/Fail can detach the producer's gateway between the
// registered check and the engine call; the engine then says the gateway
// is not a member, and the caller gets the sentinel the early check
// uses — one error for one condition regardless of interleaving. What
// the engine said decides, not a second look at the subscription table:
// the producer may have subscribed again by then.
func producerErr(producer core.ProcID, err error) error {
	if errors.Is(err, core.ErrNotMember) {
		return fmt.Errorf("%w: %d (unsubscribed concurrently with publish: %v)", ErrProducerNotRegistered, producer, err)
	}
	return err
}

// NotifyPoint delivers an event that arrived at gateway process gwProc
// from outside the synchronous publish path — the hosting daemon's
// overlay runtime observed the gateway receiving it (event hook) and
// hands its point over here. The gateway's match index classifies the
// point and every local queue-backed subscriber whose predicate matches
// gets it enqueued; record-only subscribers are counted as matched but
// have no queue to fill. The envelopes share p, which must not change
// afterwards. Returns the number of matching subscribers, or 0 when
// gwProc is not one of this broker's gateways or p, which may come from
// a peer, is not a point of the space: a wrong dimension count, or a
// NaN or infinite coordinate. Safe to call concurrently with every
// other broker operation; like the publish path it enqueues only after
// the gateway lock is released. Once its pooled scratch has grown to
// the gateway's fan-out, a call allocates nothing, however many
// subscribers match.
func (b *Broker) NotifyPoint(gwProc core.ProcID, p geom.Point) int {
	b.poolMu.RLock()
	gw := b.byProc[gwProc]
	b.poolMu.RUnlock()
	if gw == nil || len(p) != b.space.Dims() {
		return 0
	}
	for _, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
	}
	sc := notifyScratchPool.Get().(*notifyScratch)
	defer notifyScratchPool.Put(sc)
	matched := 0
	gw.mu.RLock()
	sc.matches, _ = gw.index.VisitAppend(p, sc.matches[:0])
	for _, m := range sc.matches {
		e := m.(*matchEntry)
		for _, se := range e.subs {
			if !se.pf.Match(p) {
				continue
			}
			matched++
			if se.cons != nil {
				sc.pend = append(sc.pend, pending{cons: se.cons, point: p})
			}
		}
	}
	gw.mu.RUnlock()
	b.dispatch(sc.pend)
	// The pooled scratch must not pin entries, consumers or points.
	clear(sc.matches)
	clear(sc.pend)
	sc.pend = sc.pend[:0]
	return matched
}

// NotifyGateway is NotifyPoint for an attribute map, compiled into a
// fresh point (the envelopes keep it); it is kept only for the
// benchmark's in-process probe.
func (b *Broker) NotifyGateway(gwProc core.ProcID, ev filter.Event) int {
	p, err := b.space.Point(ev)
	if err != nil {
		return 0
	}
	return b.NotifyPoint(gwProc, p)
}

// notifyScratch is one NotifyPoint call's working storage. Calls run
// concurrently (one notifier per gateway, and any caller besides), so
// it is pooled rather than kept on the gateway.
type notifyScratch struct {
	matches []any
	pend    []pending
}

var notifyScratchPool = sync.Pool{New: func() any { return new(notifyScratch) }}

// GatewayOf returns the overlay process ID of the gateway owning
// subscriber id, or core.NoProc when id is not registered (in a hash
// pool too: an ID is assigned when it subscribes, not before).
func (b *Broker) GatewayOf(id core.ProcID) core.ProcID {
	gw := b.owner(id)
	if gw == nil {
		return core.NoProc
	}
	return gw.procID
}

// classifyBatch fills the per-subscriber sets of each notification in
// two levels: the top-level routing tree (one point query per event over
// the gateway MBR-unions) selects which gateways can match at all, then
// only those gateways' match indexes are probed — every other gateway is
// never visited, which is what decouples the per-event classify cost
// from the pool size. reached[k] is the set of overlay processes the
// engine delivered event k to. It returns the deliveries owed to
// queue-backed subscribers (received and interested); the caller
// enqueues them after all gateway locks are released.
func (b *Broker) classifyBatch(notes []Notification, points []geom.Point, reached []map[core.ProcID]bool) []pending {
	var pend []pending
	// Level one: route. Gateways are collected from the route hits
	// themselves (not a pool snapshot), so a gateway split off while
	// this batch was in flight is still classified.
	perGw := make(map[*gateway][]int)
	var cur, hit int
	collect := func(d any) {
		g := d.(*gateway)
		perGw[g] = append(perGw[g], cur)
		hit++
	}
	b.routeMu.RLock()
	for k := range notes {
		cur, hit = k, 0
		notes[k].ScanVisited += b.route.VisitFunc(points[k], collect)
		notes[k].GatewayVisited = hit
	}
	b.routeMu.RUnlock()
	order := make([]*gateway, 0, len(perGw))
	for g := range perGw {
		order = append(order, g)
	}
	slices.SortFunc(order, func(a, b *gateway) int { return cmp.Compare(a.off, b.off) })
	// Level two: per-gateway match indexes, only for the events whose
	// point fell inside that gateway's union.
	for _, gw := range order {
		gw.mu.RLock()
		if len(gw.subs) == 0 {
			gw.mu.RUnlock()
			continue
		}
		for _, k := range perGw[gw] {
			matches, visited := gw.index.VisitAppend(points[k], nil)
			notes[k].ScanVisited += visited
			if len(matches) == 0 {
				continue
			}
			got := reached[k][gw.procID]
			for _, m := range matches {
				e := m.(*matchEntry)
				for id, se := range e.subs {
					interested := se.pf.Match(points[k])
					if interested {
						notes[k].Interested = append(notes[k].Interested, id)
					}
					switch {
					case got:
						notes[k].Received = append(notes[k].Received, id)
						if !interested {
							notes[k].FalsePositives = append(notes[k].FalsePositives, id)
						} else if se.cons != nil {
							pend = append(pend, pending{cons: se.cons, point: points[k]})
						}
					case interested:
						notes[k].FalseNegatives = append(notes[k].FalseNegatives, id)
					}
				}
			}
		}
		gw.mu.RUnlock()
	}
	for k := range notes {
		// Sorted and deduplicated: a concurrent pool reorganization can
		// transiently show one subscriber on two gateways.
		notes[k].Interested = sortDedup(notes[k].Interested)
		notes[k].Received = sortDedup(notes[k].Received)
		notes[k].FalsePositives = sortDedup(notes[k].FalsePositives)
		notes[k].FalseNegatives = sortDedup(notes[k].FalseNegatives)
	}
	return pend
}

func sortDedup(ids []core.ProcID) []core.ProcID {
	slices.Sort(ids)
	return slices.Compact(ids)
}
