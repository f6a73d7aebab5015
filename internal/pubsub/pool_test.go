package pubsub

// Tests for the gateway pool: the invariants both placers keep, the
// incremental MBR-union bookkeeping (bit-identical to the naive fold),
// the fit pool's growth and shrinkage under load, routing-tree pruning,
// crash recovery of the pool shape, and the drift acceptance bound
// (contained filter moves never pay a full re-union).

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"drtree/internal/core"
	"drtree/internal/filter"
	"drtree/internal/geom"
	"drtree/internal/workload"
)

// rectFilter builds the 2-d range filter covering r on axes x/y.
func rectFilter(r geom.Rect) filter.Filter {
	return filter.Range("x", r.Lo(0), r.Hi(0)).And(filter.Range("y", r.Lo(1), r.Hi(1)))
}

// bitsEqual compares two rectangles bit for bit (±0 are different).
func bitsEqual(a, b geom.Rect) bool {
	if a.IsEmpty() || b.IsEmpty() {
		return a.IsEmpty() == b.IsEmpty()
	}
	if a.Dims() != b.Dims() {
		return false
	}
	for i := 0; i < a.Dims(); i++ {
		if math.Float64bits(a.Lo(i)) != math.Float64bits(b.Lo(i)) ||
			math.Float64bits(a.Hi(i)) != math.Float64bits(b.Hi(i)) {
			return false
		}
	}
	return true
}

// assertUnionOracle re-derives every gateway's union and boundary
// counts from scratch and fails if the incrementally maintained state
// diverges — the invariant the whole of union.go exists to keep.
func assertUnionOracle(t *testing.T, b *Broker, step string) {
	t.Helper()
	for _, gw := range b.poolSnapshot() {
		gw.mu.RLock()
		fold := gw.recomputeUnion()
		if !bitsEqual(fold, gw.union) {
			gw.mu.RUnlock()
			t.Fatalf("%s: gateway %d union %v not bit-identical to fold %v", step, gw.procID, gw.union, fold)
		}
		if !fold.IsEmpty() {
			d := fold.Dims()
			lo, hi := make([]int, d), make([]int, d)
			for _, e := range gw.entries {
				for i := 0; i < d; i++ {
					if e.rect.Lo(i) == fold.Lo(i) {
						lo[i]++
					}
					if e.rect.Hi(i) == fold.Hi(i) {
						hi[i]++
					}
				}
			}
			for i := 0; i < d; i++ {
				if lo[i] != gw.loAt[i] || hi[i] != gw.hiAt[i] {
					gw.mu.RUnlock()
					t.Fatalf("%s: gateway %d dim %d attainment (%d,%d), oracle (%d,%d)",
						step, gw.procID, i, gw.loAt[i], gw.hiAt[i], lo[i], hi[i])
				}
			}
		}
		gw.mu.RUnlock()
	}
}

// TestUnionBitIdenticalToOracle drives a random subscribe/unsubscribe/
// UpdateFilter sequence — with equivalent-rectangle sharing and signed
// zeros in the coordinate pool — and asserts after every operation that
// the incremental union equals the naive full re-union fold bitwise on
// every gateway, under both placers ("fixed" is the hash pool, "policy"
// the fit pool).
func TestUnionBitIdenticalToOracle(t *testing.T) {
	negZero := math.Copysign(0, -1)
	// A small discrete coordinate pool maximizes shared boundaries,
	// equivalent rectangles, and zero-valued bounds.
	coords := []float64{-8, -3, negZero, 0, 1, 2.5, 7, 12}
	for _, mode := range []struct {
		name string
		opt  Option
	}{
		{"fixed", WithGateways(2)},
		{"policy", WithGatewayPolicy(6, 1, 8)},
	} {
		t.Run(mode.name, func(t *testing.T) {
			b, err := newCore(filter.MustSpace("x", "y"), core.Params{MinFanout: 2, MaxFanout: 4}, mode.opt)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			rng := rand.New(rand.NewPCG(0xBEEF, uint64(len(mode.name))))
			randRect := func() geom.Rect {
				pick := func() (float64, float64) {
					a, b := coords[rng.IntN(len(coords))], coords[rng.IntN(len(coords))]
					if b < a {
						a, b = b, a
					}
					return a, b
				}
				x1, x2 := pick()
				y1, y2 := pick()
				return geom.R2(x1, y1, x2, y2)
			}
			live := map[core.ProcID]bool{}
			for step := 0; step < 600; step++ {
				id := core.ProcID(1 + rng.IntN(40))
				var opErr error
				var op string
				switch {
				case !live[id]:
					op = "subscribe"
					if opErr = b.Subscribe(id, rectFilter(randRect())); opErr == nil {
						live[id] = true
					}
				case rng.IntN(3) == 0:
					op = "unsubscribe"
					if opErr = b.Unsubscribe(id); opErr == nil {
						delete(live, id)
					}
				default:
					op = "update"
					opErr = b.UpdateFilter(id, rectFilter(randRect()))
				}
				if opErr != nil {
					t.Fatalf("step %d: %s(%d): %v", step, op, id, opErr)
				}
				assertUnionOracle(t, b, fmt.Sprintf("step %d after %s(%d)", step, op, id))
			}
		})
	}
}

// assertPoolInvariants checks the pool's bookkeeping against itself:
// live is the set of IDs the test has registered, out of 1..maxID.
// Every registered subscriber is held by exactly the gateway GatewayOf
// names and every other ID by none (GatewayOf says NoProc); every
// gateway's union is the fold of its entries; a gateway is in the
// routing tree under its union exactly when it holds a subscription;
// and in a hash pool of n gateways the owner of id is base + id mod n.
func assertPoolInvariants(t *testing.T, b *Broker, live map[core.ProcID]bool, maxID int, step string) {
	t.Helper()
	assertUnionOracle(t, b, step)
	if b.Len() != len(live) {
		t.Fatalf("%s: Len %d, %d registered", step, b.Len(), len(live))
	}
	holders := map[core.ProcID][]core.ProcID{}
	routed := 0
	for _, gw := range b.poolSnapshot() {
		gw.mu.RLock()
		for id := range gw.subs {
			holders[id] = append(holders[id], gw.procID)
		}
		inRoute := !gw.routeRect.IsEmpty()
		if inRoute {
			routed++
			b.routeMu.RLock()
			found := slices.Contains(b.route.SearchContaining(gw.routeRect), any(gw))
			b.routeMu.RUnlock()
			if !found || !gw.routeRect.Equal(gw.union) {
				t.Fatalf("%s: gateway %d routed under %v (found %v), union %v", step, gw.procID, gw.routeRect, found, gw.union)
			}
		}
		if inRoute != (len(gw.subs) > 0) {
			t.Fatalf("%s: gateway %d with %d subscribers is routed=%v", step, gw.procID, len(gw.subs), inRoute)
		}
		gw.mu.RUnlock()
	}
	b.routeMu.RLock()
	inTree := b.route.Len()
	b.routeMu.RUnlock()
	if inTree != routed {
		t.Fatalf("%s: routing tree holds %d entries, %d gateways are non-empty", step, inTree, routed)
	}
	for i := 1; i <= maxID; i++ {
		id := core.ProcID(i)
		got := b.GatewayOf(id)
		if !live[id] {
			if got != core.NoProc || len(holders[id]) != 0 {
				t.Fatalf("%s: unregistered %d: GatewayOf %d, held by %v", step, id, got, holders[id])
			}
			continue
		}
		if len(holders[id]) != 1 || holders[id][0] != got {
			t.Fatalf("%s: subscriber %d held by %v, GatewayOf says %d", step, id, holders[id], got)
		}
		if n := b.policy.max; b.policy.hash && got != b.gwBase+core.ProcID(i%n) {
			t.Fatalf("%s: hash pool put %d on gateway %d, want %d", step, id, got, b.gwBase+core.ProcID(i%n))
		}
	}
}

// TestPoolInvariants drives both placers through one seeded stream of
// subscribe, update, unsubscribe and fail, and checks the pool's
// invariants after every operation: one registration, removal and
// owner-lookup path must keep them for either placer.
func TestPoolInvariants(t *testing.T) {
	for _, mode := range []struct {
		name string
		opt  Option
	}{
		{"hash", WithGateways(4)},
		{"fit", WithGatewayPolicy(3, 1, 32)},
	} {
		t.Run(mode.name, func(t *testing.T) {
			b, err := newCore(filter.MustSpace("x", "y"), core.Params{MinFanout: 2, MaxFanout: 4}, mode.opt, WithGatewayBase(100))
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			const maxID = 40
			rng := rand.New(rand.NewPCG(27, 4))
			w := workload.World{Size: 100}
			rects := workload.Subscriptions(rng, w, workload.Clustered, 4*maxID)
			live := map[core.ProcID]bool{}
			assertPoolInvariants(t, b, live, maxID, "fresh")
			peak := 0
			for step := 0; step < 400; step++ {
				id := core.ProcID(1 + rng.IntN(maxID))
				f := rectFilter(rects[rng.IntN(len(rects))])
				var op string
				var opErr error
				switch k := rng.IntN(5); {
				case !live[id]:
					op, opErr = "subscribe", b.Subscribe(id, f)
					live[id] = opErr == nil
				case k < 2:
					op, opErr = "update", b.UpdateFilter(id, f)
				case k < 4:
					op, opErr = "unsubscribe", b.Unsubscribe(id)
					live[id] = opErr != nil
				default:
					op, opErr = "fail", b.Fail(id)
					live[id] = opErr != nil
					b.Repair()
				}
				if !live[id] {
					delete(live, id)
				}
				if opErr != nil {
					t.Fatalf("step %d: %s(%d): %v", step, op, id, opErr)
				}
				assertPoolInvariants(t, b, live, maxID, fmt.Sprintf("step %d after %s(%d)", step, op, id))
				peak = max(peak, b.Gateways())
			}
			if !b.policy.fixedShape() && peak <= b.policy.min {
				t.Fatalf("the fit pool never split (peak %d gateways); the stream proves nothing about growth", peak)
			}
			if st := b.Repair(); !st.Converged {
				t.Fatalf("overlay did not converge: %v", b.Engine().CheckLegal())
			}
		})
	}
}

// TestPolicyOptionValidation covers WithGatewayPolicy's argument checks
// and its mutual exclusion with WithGateways.
func TestPolicyOptionValidation(t *testing.T) {
	sp := filter.MustSpace("x", "y")
	params := core.Params{MinFanout: 2, MaxFanout: 4}
	for _, bad := range [][3]int{{0, 1, 1}, {4, 0, 1}, {4, 3, 2}} {
		if _, err := newCore(sp, params, WithGatewayPolicy(bad[0], bad[1], bad[2])); err == nil {
			t.Errorf("WithGatewayPolicy%v must be rejected", bad)
		}
	}
	if _, err := newCore(sp, params, WithGateways(4), WithGatewayPolicy(8, 2, 16)); err == nil {
		t.Error("WithGateways + WithGatewayPolicy must be rejected")
	}
	if _, err := newCore(sp, params, WithGatewayPolicy(8, 2, 16), WithGateways(4)); err == nil {
		t.Error("WithGatewayPolicy + WithGateways must be rejected (either order)")
	}
}

// TestAdaptivePoolGrowsAndShrinks certifies the pool's load response:
// a subscribe wave splits gateways until loads sit near the target, the
// overlay stays legal with engine filters equal to the broker unions,
// classification stays exact, and a mass unsubscribe drains the pool
// back toward its floor without stranding the survivors.
func TestAdaptivePoolGrowsAndShrinks(t *testing.T) {
	b, err := newCore(filter.MustSpace("x", "y"), core.Params{MinFanout: 2, MaxFanout: 4},
		WithGatewayPolicy(10, 2, 64))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.Gateways() != 2 {
		t.Fatalf("fresh pool has %d gateways, want the floor 2", b.Gateways())
	}
	rng := rand.New(rand.NewPCG(11, 7))
	w := workload.World{Size: 100}
	rects := workload.Subscriptions(rng, w, workload.Clustered, 300)
	for i, r := range rects {
		if err := b.Subscribe(core.ProcID(i+1), rectFilter(r)); err != nil {
			t.Fatalf("subscribe %d: %v", i+1, err)
		}
	}
	grown := b.Gateways()
	if grown <= 2 {
		t.Fatalf("pool did not grow under load: %d gateways for 300 subscribers at target 10", grown)
	}
	if grown > 64 {
		t.Fatalf("pool exceeded its ceiling: %d gateways", grown)
	}
	if err := b.Engine().CheckLegal(); err != nil {
		t.Fatalf("overlay illegal after growth: %v", err)
	}
	for _, st := range b.GatewayStats() {
		if !st.Joined {
			continue
		}
		f, ok := b.Engine().Filter(st.ProcID)
		if !ok || !f.Equal(st.Filter) {
			t.Fatalf("gateway %d: engine filter %v (ok=%v) != broker union %v", st.ProcID, f, ok, st.Filter)
		}
	}
	assertUnionOracle(t, b, "after growth")
	probe := func(stage string) {
		for k := 0; k < 40; k++ {
			ev := filter.Event{"x": rng.Float64() * w.Size, "y": rng.Float64() * w.Size}
			n, err := b.Publish(core.ProcID(1+rng.IntN(20)), ev)
			if err != nil {
				t.Fatalf("%s probe %d: %v", stage, k, err)
			}
			if len(n.FalseNegatives) != 0 {
				t.Fatalf("%s probe %d: false negatives %v", stage, k, n.FalseNegatives)
			}
			if n.GatewayVisited < 0 || n.GatewayVisited > b.Gateways() {
				t.Fatalf("%s probe %d: GatewayVisited %d outside [0, %d]", stage, k, n.GatewayVisited, b.Gateways())
			}
		}
	}
	probe("grown")
	// Mass unsubscribe: everyone but the first 20 leaves.
	for i := 20; i < len(rects); i++ {
		if err := b.Unsubscribe(core.ProcID(i + 1)); err != nil {
			t.Fatalf("unsubscribe %d: %v", i+1, err)
		}
	}
	shrunk := b.Gateways()
	if shrunk >= grown {
		t.Fatalf("pool did not shrink after mass unsubscribe: %d gateways (was %d)", shrunk, grown)
	}
	if shrunk < 2 {
		t.Fatalf("pool fell below its floor: %d gateways", shrunk)
	}
	if b.Len() != 20 {
		t.Fatalf("Len = %d after churn, want 20", b.Len())
	}
	for i := 1; i <= 20; i++ {
		if b.GatewayOf(core.ProcID(i)) == core.NoProc {
			t.Fatalf("survivor %d lost its gateway assignment", i)
		}
	}
	if err := b.Engine().CheckLegal(); err != nil {
		t.Fatalf("overlay illegal after shrink: %v", err)
	}
	assertUnionOracle(t, b, "after shrink")
	probe("shrunk")
}

// TestRoutePrunesGateways certifies the two-level classification: with
// a spatially coherent (policy-placed) pool, an event's point query on
// the routing tree must exclude most gateways, and the excluded ones
// are never probed (GatewayVisited stays well under the pool size).
func TestRoutePrunesGateways(t *testing.T) {
	b, err := newCore(filter.MustSpace("x", "y"), core.Params{MinFanout: 2, MaxFanout: 4},
		WithGatewayPolicy(8, 2, 128))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	rng := rand.New(rand.NewPCG(5, 99))
	w := workload.World{Size: 1000}
	// Small uniform rectangles: spatial placement keeps per-gateway
	// unions compact, so most unions miss most points.
	rects := workload.Subscriptions(rng, w, workload.Uniform, 400)
	for i, r := range rects {
		if err := b.Subscribe(core.ProcID(i+1), rectFilter(r)); err != nil {
			t.Fatalf("subscribe %d: %v", i+1, err)
		}
	}
	pool := b.Gateways()
	if pool < 16 {
		t.Fatalf("pool only grew to %d gateways; the pruning assertion needs a real pool", pool)
	}
	totalVisited, probes := 0, 0
	for k := 0; k < 100; k++ {
		ev := filter.Event{"x": rng.Float64() * w.Size, "y": rng.Float64() * w.Size}
		n, err := b.Publish(core.ProcID(1+rng.IntN(400)), ev)
		if err != nil {
			t.Fatalf("probe %d: %v", k, err)
		}
		if len(n.FalseNegatives) != 0 {
			t.Fatalf("probe %d: false negatives %v", k, n.FalseNegatives)
		}
		totalVisited += n.GatewayVisited
		probes++
	}
	avg := float64(totalVisited) / float64(probes)
	if avg > float64(pool)/2 {
		t.Fatalf("routing tree is not pruning: %.1f gateways visited per event across a %d-gateway pool", avg, pool)
	}
	t.Logf("pool %d gateways, %.2f visited per event", pool, avg)
}

// TestPolicyRecoverMidGrowth kills a durable adaptive broker after its
// pool has grown and partially drained, then certifies that Recover
// rebuilds the exact pre-crash pool (count and membership) and the
// exact per-subscriber gateway assignment — and that a second recovery
// from the same store reproduces the same shape again.
func TestPolicyRecoverMidGrowth(t *testing.T) {
	for name, mk := range storesForRecovery(t) {
		t.Run(name, func(t *testing.T) {
			s, reopen := mk()
			b, err := newCore(filter.MustSpace("x", "y"), core.Params{MinFanout: 2, MaxFanout: 4},
				WithStore(s), WithGatewayPolicy(8, 2, 64))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewPCG(21, 42))
			w := workload.World{Size: 500}
			rects := workload.Subscriptions(rng, w, workload.Clustered, 120)
			for i, r := range rects {
				if err := b.Subscribe(core.ProcID(i+1), rectFilter(r)); err != nil {
					t.Fatalf("subscribe %d: %v", i+1, err)
				}
				if i == 60 {
					// A checkpoint mid-growth: recovery must stitch the
					// snapshot pool with the journal suffix.
					if err := b.Checkpoint(); err != nil {
						t.Fatalf("checkpoint: %v", err)
					}
				}
			}
			// Partial drain: a block of unsubscribes forces retires/drains
			// so the journal holds pool-shrink records too.
			for i := 30; i < 90; i++ {
				if err := b.Unsubscribe(core.ProcID(i + 1)); err != nil {
					t.Fatalf("unsubscribe %d: %v", i+1, err)
				}
			}
			snapshot := func(b *Broker) (int, map[core.ProcID]core.ProcID) {
				assign := map[core.ProcID]core.ProcID{}
				for i := range rects {
					id := core.ProcID(i + 1)
					if gw := b.GatewayOf(id); gw != core.NoProc {
						assign[id] = gw
					}
				}
				return b.Gateways(), assign
			}
			wantPool, wantAssign := snapshot(b)
			if wantPool <= 2 {
				t.Fatalf("pool never grew (%d gateways); the test needs growth records", wantPool)
			}
			b.Close()

			check := func(b2 *Broker, pass string) {
				gotPool, gotAssign := snapshot(b2)
				if gotPool != wantPool {
					t.Fatalf("%s: recovered %d gateways, pre-crash had %d", pass, gotPool, wantPool)
				}
				if len(gotAssign) != len(wantAssign) {
					t.Fatalf("%s: recovered %d assignments, pre-crash had %d", pass, len(gotAssign), len(wantAssign))
				}
				for id, want := range wantAssign {
					if gotAssign[id] != want {
						t.Fatalf("%s: subscriber %d recovered onto gateway %d, was on %d", pass, id, gotAssign[id], want)
					}
				}
				assertUnionOracle(t, b2, pass)
				if err := b2.Engine().CheckLegal(); err != nil {
					t.Fatalf("%s: recovered overlay illegal: %v", pass, err)
				}
			}
			s2 := reopen()
			b2, err := newCore(filter.MustSpace("x", "y"), core.Params{MinFanout: 2, MaxFanout: 4},
				WithStore(s2), WithGatewayPolicy(8, 2, 64))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := b2.Recover(); err != nil {
				t.Fatalf("first Recover: %v", err)
			}
			check(b2, "first recovery")
			b2.Close()

			s3 := reopen()
			b3, err := newCore(filter.MustSpace("x", "y"), core.Params{MinFanout: 2, MaxFanout: 4},
				WithStore(s3), WithGatewayPolicy(8, 2, 64))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := b3.Recover(); err != nil {
				t.Fatalf("second Recover: %v", err)
			}
			check(b3, "second recovery")
			b3.Close()
		})
	}
}

// TestDriftNoFullReunions is the drift acceptance bound: at 100k
// subscribers whose interest regions random-walk inside their gateway
// unions, every UpdateFilter must take the O(d) incremental path — the
// FullReunions counters stay exactly flat — and classification stays
// exact (zero false negatives) before and after the drift tick.
func TestDriftNoFullReunions(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 100k-subscriber broker")
	}
	const (
		gateways = 32
		subs     = 100_000
	)
	b, err := newCore(filter.MustSpace("x", "y"), core.Params{MinFanout: 2, MaxFanout: 4},
		WithGateways(gateways))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	w := workload.DefaultWorld()
	rng := rand.New(rand.NewPCG(2026, 808))
	// Anchor subscribers 1..32 (one per gateway under the hash
	// assignment) hold a rectangle slightly larger than the world, so
	// every gateway union strictly contains the world and a drifted
	// rectangle clamped to a world edge still attains no union boundary.
	anchor := rectFilter(geom.R2(-1, -1, w.Size+1, w.Size+1))
	for i := 1; i <= gateways; i++ {
		if err := b.Subscribe(core.ProcID(i), anchor); err != nil {
			t.Fatalf("anchor %d: %v", i, err)
		}
	}
	rects := workload.Subscriptions(rng, w, workload.Uniform, subs)
	for i, r := range rects {
		if err := b.Subscribe(core.ProcID(gateways+i+1), rectFilter(r)); err != nil {
			t.Fatalf("subscribe %d: %v", i, err)
		}
	}
	reunions := func() uint64 {
		var n uint64
		for _, st := range b.GatewayStats() {
			n += st.FullReunions
		}
		return n
	}
	probe := func(stage string) {
		for k := 0; k < 50; k++ {
			ev := filter.Event{"x": rng.Float64() * w.Size, "y": rng.Float64() * w.Size}
			n, err := b.Publish(core.ProcID(1+rng.IntN(gateways)), ev)
			if err != nil {
				t.Fatalf("%s probe %d: %v", stage, k, err)
			}
			if len(n.FalseNegatives) != 0 {
				t.Fatalf("%s probe %d: false negatives %v", stage, k, n.FalseNegatives)
			}
		}
	}
	probe("pre-drift")
	before := reunions()
	drifted := workload.DriftRects(rng, w, rects, 0.01)
	for i, r := range drifted {
		if err := b.UpdateFilter(core.ProcID(gateways+i+1), rectFilter(r)); err != nil {
			t.Fatalf("drift move %d: %v", i, err)
		}
	}
	if after := reunions(); after != before {
		t.Fatalf("drift tick paid %d full re-unions (counter %d -> %d); contained moves must be O(d)",
			after-before, before, after)
	}
	probe("post-drift")
	assertUnionOracle(t, b, "post-drift")
}

// TestFlashCrowdChurnHammer drives an adaptive-pool broker from many
// goroutines at once through a flash-crowd burst: churners pile near-
// identical subscriptions onto one hot spot (forcing splits) and rip
// them back out (forcing drains and retires) while publishers stream
// events into the crowd and readers walk the stats surfaces. Run under
// -race in CI; the assertions here are liveness and sanity, the
// detector certifies the pool/route/gateway lock discipline.
func TestFlashCrowdChurnHammer(t *testing.T) {
	b, err := newCore(filter.MustSpace("x", "y"), core.Params{MinFanout: 2, MaxFanout: 4},
		WithGatewayPolicy(12, 2, 64))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	w := workload.World{Size: 100}
	const pinned = 8
	for i := 1; i <= pinned; i++ {
		r := geom.R2(float64(i*10-10), 0, float64(i*10), w.Size)
		if err := b.Subscribe(core.ProcID(i), rectFilter(r)); err != nil {
			t.Fatal(err)
		}
	}
	const (
		churners   = 4
		publishers = 3
		ops        = 150
	)
	var wg sync.WaitGroup
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(c), 0xC0FFEE))
			crowd := workload.FlashCrowdRects(rng, w, ops)
			base := core.ProcID(1000 + c*10000)
			for k := 0; k < ops; k++ {
				id := base + core.ProcID(k%23)
				if err := b.Subscribe(id, rectFilter(crowd[k])); err == nil {
					switch rng.IntN(3) {
					case 0:
						if err := b.Fail(id); err != nil {
							t.Errorf("churner %d: fail %d: %v", c, id, err)
							return
						}
					case 1:
						if err := b.UpdateFilter(id, rectFilter(crowd[(k+7)%ops])); err != nil {
							t.Errorf("churner %d: update %d: %v", c, id, err)
							return
						}
						if err := b.Unsubscribe(id); err != nil {
							t.Errorf("churner %d: unsubscribe %d after update: %v", c, id, err)
							return
						}
					default:
						if err := b.Unsubscribe(id); err != nil {
							t.Errorf("churner %d: unsubscribe %d: %v", c, id, err)
							return
						}
					}
				}
			}
		}(c)
	}
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(p), 0xF1A5))
			producer := core.ProcID(1 + p%pinned)
			for k := 0; k < ops; k++ {
				ev := filter.Event{"x": rng.Float64() * w.Size, "y": rng.Float64() * w.Size}
				if k%4 == 0 {
					evs := []filter.Event{ev, {"x": rng.Float64() * w.Size, "y": rng.Float64() * w.Size}}
					if _, err := b.PublishBatch(producer, evs); err != nil {
						t.Errorf("publisher %d: batch: %v", p, err)
						return
					}
				} else if _, err := b.Publish(producer, ev); err != nil {
					t.Errorf("publisher %d: %v", p, err)
					return
				}
			}
		}(p)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < ops; k++ {
			_ = b.Gateways()
			_ = b.Len()
			for _, st := range b.GatewayStats() {
				_ = st
			}
			_ = b.GatewayOf(core.ProcID(1))
		}
	}()
	wg.Wait()
	// The dust has settled: pinned subscribers intact, pool within
	// bounds, unions exact, overlay legal, classification exact again.
	if b.Len() < pinned {
		t.Fatalf("Len = %d, pinned %d subscribers must survive", b.Len(), pinned)
	}
	if g := b.Gateways(); g < 2 || g > 64 {
		t.Fatalf("pool escaped its bounds: %d gateways", g)
	}
	assertUnionOracle(t, b, "post-hammer")
	if err := b.Engine().CheckLegal(); err != nil {
		t.Fatalf("overlay illegal after churn: %v", err)
	}
	rng := rand.New(rand.NewPCG(9, 9))
	for k := 0; k < 30; k++ {
		ev := filter.Event{"x": rng.Float64() * w.Size, "y": rng.Float64() * w.Size}
		n, err := b.Publish(core.ProcID(1+rng.IntN(pinned)), ev)
		if err != nil {
			t.Fatalf("settled probe %d: %v", k, err)
		}
		if len(n.FalseNegatives) != 0 {
			t.Fatalf("settled probe %d: false negatives %v", k, n.FalseNegatives)
		}
	}
}
