package pubsub

// The gateway pool. There is one pool with two placers, and placement
// (placeLocked) is the only thing they decide:
//
//   - hash (WithGateways(n)): subscriber id lives on gws[id mod n], and
//     min = max = n, so the pool never splits, drains or retires. Its
//     shape and assignment are configuration, not state.
//   - fit (WithGatewayPolicy): a subscription is placed on the gateway
//     whose MBR-union it enlarges least (the R-tree ChooseLeaf heuristic
//     lifted one level, so gateways stay spatially coherent and the
//     top-level routing tree actually prunes), a gateway past its target
//     load splits like an R-tree node (half its entries move to a fresh
//     or idle gateway that joins the overlay with the moved group's
//     union), and a gateway that falls far below target drains its
//     entries into the rest of the pool and retires from the overlay.
//
// Registration, removal, the assignment table, the routing tree, the
// journal records and the lock order below exist once for both.
//
// Lock order, broker-wide: poolMu -> gateway.mu -> (engMu | routeMu). A
// gateway lock may be held while taking the engine mutex, never the
// reverse. PublishAsync holds neither around the engine:
// AsyncPublisher.InjectEvent is safe for concurrent use, and the
// engine's event hook (NotifyPoint, a pool and a gateway read lock)
// runs on the engine's own goroutine, never on the stack of a call made
// under the engine mutex — so nothing under it ever waits for a pool or
// gateway lock. None of these locks is held across the store's Sync,
// Snapshot or Compact: records are written under them and synced by the
// entry point after it let go (journal.go).
//
// Subscribe, Unsubscribe and Fail hold poolMu exclusively, and so does
// every pool mutation (split, drain, retire); UpdateFilter holds it
// shared, and the read paths take it shared only to look a gateway up.
// That is what makes reading another gateway's union/load without its
// lock safe here: every other writer holds poolMu shared, and shared
// and exclusive cannot coexist. Entry moves take both affected
// gateways' write locks; only poolMu writers ever hold two gateway
// locks, so the two-lock acquisition cannot deadlock against any other
// path.

import (
	"cmp"
	"errors"
	"slices"

	"drtree/internal/core"
	"drtree/internal/geom"
	"drtree/internal/rtree"
	"drtree/internal/split"
)

// errPoolEmpty guards the impossible case of placement over a pool the
// policy floor (min >= 1) should make non-empty.
var errPoolEmpty = errors.New("pubsub: gateway pool is empty")

// gatewayPolicy is the pool configuration: {hash, min = max = n} for
// WithGateways(n), {fit, target, min, max} for WithGatewayPolicy.
type gatewayPolicy struct {
	hash   bool // placer: id mod n (true) or least enlargement (false)
	target int  // subscriptions per gateway before it splits
	min    int  // pool floor (never drains below)
	max    int  // pool ceiling (never grows past)
}

// fixedShape reports whether the pool's membership is configuration: a
// pool with min == max never grows or retires a gateway, so Checkpoint
// journals no offsets for it and Recover keeps the configured pool.
func (p *gatewayPolicy) fixedShape() bool { return p.min == p.max }

// lowWater is the drain threshold: a gateway at or below it (and above
// zero) hands its entries to the rest of the pool and retires.
func (p *gatewayPolicy) lowWater() int {
	return max(1, p.target/4)
}

// newGateway builds an empty gateway for pool offset off.
func (b *Broker) newGateway(off int) *gateway {
	return &gateway{
		procID:  b.gwBase + core.ProcID(off),
		off:     off,
		subs:    make(map[core.ProcID]subscription),
		entries: make(map[string]*matchEntry),
		// Wide nodes + the R*-style split keep sibling overlap (and so
		// point-query node visits) low as the index grows: measured
		// ~1.7x visit growth for a 100x subscriber growth, the best of
		// the swept (m, M, policy) combinations.
		index: rtree.MustNew(8, 32, split.RStar{}),
	}
}

// growPoolLocked appends a fresh gateway at the next offset, journaling
// the pool change. poolMu held exclusively.
func (b *Broker) growPoolLocked() (*gateway, error) {
	off := b.nextOff
	if err := b.journalPoolOp(poolGrow, off); err != nil {
		return nil, err
	}
	b.nextOff++
	gw := b.newGateway(off)
	b.gws = append(b.gws, gw)
	b.byProc[gw.procID] = gw
	return gw, nil
}

// retireLocked removes an empty gateway from a pool above its floor.
// The gateway must hold no subscriptions; at the floor, or if it is
// still an overlay member whose Leave fails (a drain's), it stays in the
// pool as idle instead. poolMu held exclusively, gw.mu not held.
func (b *Broker) retireLocked(gw *gateway) {
	if len(b.gws) <= b.policy.min {
		b.markIdleLocked(gw)
		return
	}
	gw.mu.Lock()
	if len(gw.subs) > 0 {
		gw.mu.Unlock()
		return
	}
	if gw.joined {
		b.engMu.Lock()
		err := b.eng.Leave(gw.procID)
		b.engMu.Unlock()
		if err != nil {
			gw.mu.Unlock()
			b.markIdleLocked(gw)
			return
		}
		gw.joined = false
	}
	gw.mu.Unlock()
	// The retirement stands in memory either way; on a journal error the
	// journal is behind (an extra idle gateway after recovery, nothing
	// worse).
	_ = b.journalPoolOp(poolRetire, gw.off)
	if i := slices.Index(b.gws, gw); i >= 0 {
		b.gws = slices.Delete(b.gws, i, i+1)
	}
	delete(b.byProc, gw.procID)
	b.unmarkIdleLocked(gw)
}

// markIdleLocked records gw as load-free and placeable.
func (b *Broker) markIdleLocked(gw *gateway) {
	if !slices.Contains(b.idle, gw) {
		b.idle = append(b.idle, gw)
	}
}

func (b *Broker) unmarkIdleLocked(gw *gateway) {
	if i := slices.Index(b.idle, gw); i >= 0 {
		b.idle = slices.Delete(b.idle, i, i+1)
	}
}

// fitScore orders placement candidates: least union enlargement, then
// smallest union, then lightest load, then lowest offset. The first two
// are the R-tree ChooseLeaf tie-break, the third spreads equal-cost
// load, the last makes placement deterministic.
type fitScore struct {
	enl, area float64
	load, off int
}

func (gw *gateway) score(r geom.Rect) fitScore {
	return fitScore{enl: gw.union.Enlargement(r), area: gw.union.Area(), load: len(gw.subs), off: gw.off}
}

func (a fitScore) better(b fitScore) bool {
	if a.enl != b.enl {
		return a.enl < b.enl
	}
	if a.area != b.area {
		return a.area < b.area
	}
	if a.load != b.load {
		return a.load < b.load
	}
	return a.off < b.off
}

// bestFitLocked picks the best gateway for rect among the routing
// tree's ChooseLeaf candidates plus every idle gateway, excluding
// skip. Falls back to a full pool scan when that set is empty (route
// empty, all candidates excluded). poolMu held exclusively.
func (b *Broker) bestFitLocked(rect geom.Rect, skip *gateway) *gateway {
	b.routeMu.RLock()
	leaf := b.route.ChooseEntries(rect)
	b.routeMu.RUnlock()
	cands := make([]*gateway, 0, len(leaf)+len(b.idle))
	for _, d := range leaf {
		cands = append(cands, d.(*gateway))
	}
	cands = append(cands, b.idle...) // idle unions are empty: disjoint from the route
	best := pickBest(cands, rect, skip)
	if best == nil {
		best = pickBest(b.gws, rect, skip)
	}
	return best
}

func pickBest(cands []*gateway, rect geom.Rect, skip *gateway) *gateway {
	var best *gateway
	var bestScore fitScore
	for _, g := range cands {
		if g == skip || g == nil {
			continue
		}
		if s := g.score(rect); best == nil || s.better(bestScore) {
			best, bestScore = g, s
		}
	}
	return best
}

// placeLocked is the pool's one placement decision: the gateway a new
// subscription of id with rectangle rect goes to. off >= 0 is the pool
// offset Recover found journaled for id.
//
// The hash placer answers gws[id mod n] and ignores off: its assignment
// is configuration, so a pool recovered under a new size re-hashes. The
// fit placer honours off while that gateway exists (a torn log can name
// one whose pool record was lost); otherwise it picks the best fit,
// splitting a full winner first while the pool may still grow, and
// reports derived so that Recover can journal a placement it had to
// re-derive. poolMu held exclusively.
func (b *Broker) placeLocked(id core.ProcID, rect geom.Rect, off int) (gw *gateway, derived bool, err error) {
	if b.policy.hash {
		return b.gws[uint64(id)%uint64(len(b.gws))], false, nil
	}
	if gw := b.byProc[b.gwBase+core.ProcID(off)]; off >= 0 && gw != nil {
		return gw, false, nil
	}
	best := b.bestFitLocked(rect, nil)
	if best == nil {
		return nil, false, errPoolEmpty
	}
	if len(best.subs) >= b.policy.target && len(b.gws) < b.policy.max {
		other, err := b.splitGatewayLocked(best)
		if err != nil {
			return nil, false, err
		}
		if other != nil && other.score(rect).better(best.score(rect)) {
			best = other
		}
	}
	return best, true, nil
}

// splitGatewayLocked splits src's entry set in two with a median cut
// along its union's longest dimension: the upper half's entries and
// subscribers move to an idle or fresh gateway, which joins the overlay
// with exactly the moved group's union. A median cut is O(k log k) in
// the entry count where the match indexes' R* splitter is quadratic —
// fine at node fan-out (~32 rectangles), ruinous at gateway scale
// (thousands per split) — and keeps both halves spatially coherent,
// which is all the top-level routing tree needs to prune. Returns the
// new gateway, or nil when src cannot usefully split (fewer than two
// unique rectangles, or the overlay refused the new member). poolMu
// held exclusively; takes both gateway locks.
func (b *Broker) splitGatewayLocked(src *gateway) (*gateway, error) {
	src.mu.Lock()
	defer src.mu.Unlock()
	if len(src.entries) < 2 {
		return nil, nil
	}
	keys := make([]string, 0, len(src.entries))
	for k := range src.entries {
		keys = append(keys, k)
	}
	slices.Sort(keys) // map order is random; the split must be deterministic
	rects := make([]geom.Rect, len(keys))
	for i, k := range keys {
		rects[i] = src.entries[k].rect
	}
	right := medianCutUpper(rects)
	var dst *gateway
	fresh := false
	if n := len(b.idle); n > 0 {
		dst = b.idle[n-1]
	} else {
		var err error
		if dst, err = b.growPoolLocked(); err != nil {
			return nil, err
		}
		fresh = true
	}
	dst.mu.Lock()
	defer dst.mu.Unlock()
	var moveU geom.Rect
	for _, i := range right {
		moveU = moveU.Union(rects[i])
	}
	// Engine first: the new member must be routable before any entry
	// moves. A refusal aborts the split; a fresh gateway stays as idle
	// capacity for the next attempt. An idle gateway can linger joined
	// (a drain whose Leave the engine refused) with a stale filter, so
	// it gets a filter move, not a join.
	if dst.joined {
		if err := b.engUpdateFilter(dst, moveU); err != nil {
			return nil, nil
		}
	} else {
		if err := b.engJoin(dst.procID, moveU); err != nil {
			if fresh {
				b.markIdleLocked(dst)
			}
			return nil, nil
		}
		dst.joined = true
	}
	oldU := src.union
	var jerr error
	for _, i := range right {
		k := keys[i]
		e := src.entries[k]
		if err := dst.index.Insert(e.rect, e); err != nil {
			continue // entry stays on src; dst's filter is merely loose
		}
		delete(src.entries, k)
		src.index.Delete(e.rect, e)
		dst.entries[k] = e
		for id := range e.subs {
			sub := src.subs[id]
			delete(src.subs, id)
			sub.key = k
			dst.subs[id] = sub
			b.assign[id] = dst
			if err := b.journalAssign(id, dst.off); err != nil && jerr == nil {
				jerr = err
			}
		}
	}
	src.unionRebuild()
	dst.unionRebuild()
	b.routeReplace(src, src.union)
	b.routeReplace(dst, dst.union)
	b.unmarkIdleLocked(dst)
	// Shrink src's overlay filter to its surviving union. Best-effort:
	// a refused move leaves a loose filter (false positives only).
	if src.joined && !src.union.Equal(oldU) {
		_ = b.engUpdateFilter(src, src.union)
	}
	return dst, jerr
}

// medianCutUpper returns the indexes of the upper half of rects when
// sorted by center along their union's longest dimension. Both halves
// are non-empty for len(rects) >= 2, and the result is deterministic:
// equal centers fall back to the caller's (sorted-key) order.
func medianCutUpper(rects []geom.Rect) []int {
	u := rects[0]
	for _, r := range rects[1:] {
		u = u.Union(r)
	}
	axis := 0
	for d := 1; d < u.Dims(); d++ {
		if u.Side(d) > u.Side(axis) {
			axis = d
		}
	}
	idx := make([]int, len(rects))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int {
		ca := rects[a].Lo(axis) + rects[a].Hi(axis)
		cb := rects[b].Lo(axis) + rects[b].Hi(axis)
		if c := cmp.Compare(ca, cb); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return idx[len(idx)/2:]
}

// shrinkPoolLocked runs the retire/drain policy after gw lost a
// subscription; in a pool with min == max it only marks an emptied gw
// idle. poolMu held exclusively, gw.mu not held.
func (b *Broker) shrinkPoolLocked(gw *gateway) {
	load := len(gw.subs)
	if load == 0 {
		b.retireLocked(gw)
		return
	}
	if load > b.policy.lowWater() || len(b.gws) <= b.policy.min {
		return
	}
	b.drainLocked(gw)
}

// drainLocked moves every entry of an underfull gateway to its best-fit
// peer, then retires the emptied gateway. Engine-first per entry: a
// refusal strands the remaining entries on gw (it simply stays in the
// pool). poolMu held exclusively; takes gw's and each target's lock.
func (b *Broker) drainLocked(gw *gateway) {
	gw.mu.Lock()
	keys := make([]string, 0, len(gw.entries))
	for k := range gw.entries {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		e := gw.entries[k]
		tgt := b.bestFitLocked(e.rect, gw)
		if tgt == nil {
			break
		}
		tgt.mu.Lock()
		if !b.moveEntryLocked(gw, tgt, k, e) {
			tgt.mu.Unlock()
			break
		}
		b.unmarkIdleLocked(tgt)
		tgt.mu.Unlock()
	}
	drained := len(gw.entries) == 0
	if drained {
		if gw.joined {
			b.engMu.Lock()
			err := b.eng.Leave(gw.procID)
			b.engMu.Unlock()
			if err == nil {
				gw.joined = false
			}
		}
		gw.unionReset()
		b.routeReplace(gw, geom.Rect{})
	} else {
		gw.unionRebuild()
		b.routeReplace(gw, gw.union)
		if gw.joined {
			_ = b.engUpdateFilter(gw, gw.union)
		}
	}
	gw.mu.Unlock()
	if drained {
		b.retireLocked(gw)
	}
}

// moveEntryLocked relocates one match entry (and its subscribers) from
// src to tgt, growing tgt's overlay filter first. Both gateway locks
// and poolMu held. Reports whether the move committed.
func (b *Broker) moveEntryLocked(src, tgt *gateway, key string, e *matchEntry) bool {
	existing := tgt.entries[key]
	if existing == nil {
		target := tgt.unionPeekAdd(e.rect)
		switch {
		case !tgt.joined:
			if err := b.engJoin(tgt.procID, target); err != nil {
				return false
			}
			tgt.joined = true
		case !tgt.union.Contains(e.rect):
			if err := b.engUpdateFilter(tgt, target); err != nil {
				return false
			}
		}
		if err := tgt.index.Insert(e.rect, e); err != nil {
			return false
		}
		tgt.entries[key] = e
		tgt.unionCommitAdd(e.rect)
		b.routeReplace(tgt, tgt.union)
	}
	delete(src.entries, key)
	src.index.Delete(e.rect, e)
	for id, se := range e.subs {
		sub := src.subs[id]
		delete(src.subs, id)
		sub.key = key
		tgt.subs[id] = sub
		b.assign[id] = tgt
		_ = b.journalAssign(id, tgt.off)
		if existing != nil {
			existing.subs[id] = se
		}
	}
	return true
}

// routeReplace re-registers gw in the top-level routing tree under
// newRect (empty = remove). The registered rectangle is remembered so
// the later delete matches exactly; a numerically equal union keeps its
// existing registration. Called with gw.mu held (or during Recover's
// single-threaded rebuild).
func (b *Broker) routeReplace(gw *gateway, newRect geom.Rect) {
	if gw.routeRect.IsEmpty() && newRect.IsEmpty() {
		return
	}
	if !gw.routeRect.IsEmpty() && !newRect.IsEmpty() && gw.routeRect.Equal(newRect) {
		return
	}
	b.routeMu.Lock()
	defer b.routeMu.Unlock()
	if !gw.routeRect.IsEmpty() {
		b.route.Delete(gw.routeRect, gw)
	}
	if !newRect.IsEmpty() {
		if err := b.route.Insert(newRect, gw); err != nil {
			// Cannot happen for a non-empty rect of the right dimension;
			// leave the gateway unrouted (classify would miss it, but the
			// linear fallback in bestFit still places onto it).
			gw.routeRect = geom.Rect{}
			return
		}
	}
	gw.routeRect = newRect
}

// poolOffsets returns the pool's stable offsets in ascending order.
// poolMu held (shared suffices).
func (b *Broker) poolOffsetsLocked() []int {
	offs := make([]int, len(b.gws))
	for i, gw := range b.gws {
		offs[i] = gw.off
	}
	slices.SortFunc(offs, func(a, b int) int { return cmp.Compare(a, b) })
	return offs
}
