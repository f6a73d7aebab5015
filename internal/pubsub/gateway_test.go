package pubsub

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"drtree/internal/core"
	"drtree/internal/filter"
	"drtree/internal/proto"
)

// TestGatewayPoolBoundsOverlay is the gateway layer's core claim: many
// subscribers, few overlay processes. 200 subscribers over an 8-gateway
// pool must produce an overlay of at most 8 processes while classifying
// with zero false negatives.
func TestGatewayPoolBoundsOverlay(t *testing.T) {
	b, err := newCore(filter.MustSpace("x", "y"), core.Params{MinFanout: 2, MaxFanout: 4}, WithGateways(8))
	if err != nil {
		t.Fatal(err)
	}
	if b.Gateways() != 8 {
		t.Fatalf("Gateways = %d", b.Gateways())
	}
	rng := rand.New(rand.NewPCG(3, 33))
	for i := 1; i <= 200; i++ {
		x, y := rng.Float64()*100, rng.Float64()*100
		f := filter.Range("x", x, x+10).And(filter.Range("y", y, y+10))
		if err := b.Subscribe(core.ProcID(i), f); err != nil {
			t.Fatal(err)
		}
	}
	if b.Len() != 200 {
		t.Fatalf("Len = %d", b.Len())
	}
	if n := b.Engine().Len(); n > 8 {
		t.Fatalf("overlay has %d processes, want <= 8 gateways", n)
	}
	if err := b.Engine().CheckLegal(); err != nil {
		t.Fatalf("gateway overlay illegal: %v", err)
	}
	// Every gateway's overlay filter must equal the union of its local
	// subscription rectangles.
	for _, st := range b.GatewayStats() {
		if !st.Joined {
			continue
		}
		f, ok := b.Engine().Filter(st.ProcID)
		if !ok || !f.Equal(st.Filter) {
			t.Fatalf("gateway %d: engine filter %v (ok=%v), broker union %v", st.ProcID, f, ok, st.Filter)
		}
	}
	for k := 0; k < 50; k++ {
		ev := filter.Event{"x": rng.Float64() * 120, "y": rng.Float64() * 120}
		n, err := b.Publish(core.ProcID(1+rng.IntN(200)), ev)
		if err != nil {
			t.Fatal(err)
		}
		if len(n.FalseNegatives) != 0 {
			t.Fatalf("probe %d: false negatives %v", k, n.FalseNegatives)
		}
		if n.ScanVisited <= 0 {
			t.Fatalf("probe %d: no match-index scan recorded", k)
		}
	}
}

// TestDoubleSubscribeSameID certifies the duplicate-ID edge path: the
// second Subscribe of a live ID fails and leaves the first registration
// (and the gateway's overlay filter) untouched.
func TestDoubleSubscribeSameID(t *testing.T) {
	b, err := newCore(filter.MustSpace("x"), core.Params{MinFanout: 2, MaxFanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.SubscribeExpr(1, "x in [0, 10]"); err != nil {
		t.Fatal(err)
	}
	before := b.GatewayStats()
	if err := b.SubscribeExpr(1, "x in [50, 60]"); err == nil {
		t.Fatal("double Subscribe of the same ID must error")
	}
	if b.Len() != 1 {
		t.Fatalf("Len = %d after rejected duplicate", b.Len())
	}
	after := b.GatewayStats()
	for i := range before {
		if !before[i].Filter.Equal(after[i].Filter) || before[i].Subscribers != after[i].Subscribers {
			t.Fatalf("gateway %d changed by a rejected duplicate: %+v -> %+v", i, before[i], after[i])
		}
	}
	// The original subscription still classifies.
	n, err := b.Publish(1, filter.Event{"x": 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Interested) != 1 || n.Interested[0] != 1 {
		t.Fatalf("Interested = %v", n.Interested)
	}
	// An event only inside the rejected filter must interest nobody.
	n, err = b.Publish(1, filter.Event{"x": 55})
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Interested) != 0 || len(n.FalseNegatives) != 0 {
		t.Fatalf("rejected filter leaked into matching: %+v", n)
	}
}

// TestUnsubscribeUnknownID certifies the unknown-ID edge paths.
func TestUnsubscribeUnknownID(t *testing.T) {
	b, err := newCore(filter.MustSpace("x"), core.Params{MinFanout: 2, MaxFanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Unsubscribe(42); err == nil {
		t.Error("unsubscribe of an unknown ID must error")
	}
	if err := b.Fail(42); err == nil {
		t.Error("fail of an unknown ID must error")
	}
	if err := b.Subscribe(0, filter.Range("x", 0, 1)); err == nil {
		t.Error("non-positive subscriber ID must error")
	}
	// Unsubscribing a once-valid ID twice: second call errors.
	if err := b.SubscribeExpr(7, "x in [0, 1]"); err != nil {
		t.Fatal(err)
	}
	if err := b.Unsubscribe(7); err != nil {
		t.Fatal(err)
	}
	if err := b.Unsubscribe(7); err == nil {
		t.Error("second unsubscribe of the same ID must error")
	}
}

// TestLastSubscriptionGatewayLeaves certifies that a gateway losing its
// last subscription leaves the overlay instead of lingering with a stale
// filter — and that the spot is reusable by a later subscriber.
func TestLastSubscriptionGatewayLeaves(t *testing.T) {
	b, err := newCore(filter.MustSpace("x"), core.Params{MinFanout: 2, MaxFanout: 4}, WithGateways(4))
	if err != nil {
		t.Fatal(err)
	}
	// IDs 1, 2, 3 land on gateways 1, 2, 3; ID 5 shares gateway 1 with ID 1.
	for _, id := range []core.ProcID{1, 2, 3, 5} {
		if err := b.SubscribeExpr(id, fmt.Sprintf("x in [%d, %d]", id*10, id*10+5)); err != nil {
			t.Fatal(err)
		}
	}
	if n := b.Engine().Len(); n != 3 {
		t.Fatalf("overlay has %d processes, want 3 gateways", n)
	}
	// Gateway 3 empties: it must leave the overlay.
	if err := b.Unsubscribe(3); err != nil {
		t.Fatal(err)
	}
	if n := b.Engine().Len(); n != 2 {
		t.Fatalf("overlay has %d processes after last-subscription unsubscribe, want 2", n)
	}
	if _, ok := b.Engine().Filter(core.ProcID(4)); ok {
		t.Fatal("gateway 4 (pool slot 3) must not linger in the overlay")
	}
	if err := b.Engine().CheckLegal(); err != nil {
		t.Fatalf("overlay illegal after gateway departure: %v", err)
	}
	// An event only subscriber 3 would have wanted reaches nobody and is
	// not a false negative.
	n, err := b.Publish(1, filter.Event{"x": 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Interested) != 0 || len(n.FalseNegatives) != 0 || len(n.Received) != 0 {
		t.Fatalf("stale gateway filter leaked: %+v", n)
	}
	// Gateway 1 still has subscriber 5 after 1 leaves: it must stay, with
	// a shrunken filter.
	if err := b.Unsubscribe(1); err != nil {
		t.Fatal(err)
	}
	if f, ok := b.Engine().Filter(core.ProcID(2)); !ok {
		t.Fatal("gateway with remaining subscriptions must stay joined")
	} else if want, _ := b.Space().Rect(filter.Range("x", 50, 55)); !f.Equal(want) {
		t.Fatalf("gateway filter %v did not shrink to remaining union %v", f, want)
	}
	// The vacated pool slot (ID 7 maps to slot 3, the gateway that left)
	// rejoins on the next subscription.
	if err := b.SubscribeExpr(7, "x in [70, 75]"); err != nil {
		t.Fatal(err)
	}
	if n := b.Engine().Len(); n != 3 {
		t.Fatalf("overlay has %d processes after re-join, want 3", n)
	}
	note, err := b.Publish(7, filter.Event{"x": 72})
	if err != nil {
		t.Fatal(err)
	}
	if len(note.Interested) != 1 || note.Interested[0] != 7 || len(note.FalseNegatives) != 0 {
		t.Fatalf("re-joined gateway does not classify: %+v", note)
	}
}

// TestFailLastSubscriptionCrashesGateway covers the abrupt variant: the
// gateway crashes out and the next Repair restores legality.
func TestFailLastSubscriptionCrashesGateway(t *testing.T) {
	b, err := newCore(filter.MustSpace("x"), core.Params{MinFanout: 2, MaxFanout: 4}, WithGateways(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []core.ProcID{1, 2, 3} {
		if err := b.SubscribeExpr(id, fmt.Sprintf("x in [%d, %d]", id*10, id*10+5)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Fail(2); err != nil {
		t.Fatal(err)
	}
	if n := b.Engine().Len(); n != 2 {
		t.Fatalf("overlay has %d processes after crash, want 2", n)
	}
	if st := b.Repair(); !st.Converged {
		t.Fatalf("repair did not converge: %v", b.Engine().CheckLegal())
	}
	if err := b.Engine().CheckLegal(); err != nil {
		t.Fatal(err)
	}
}

// TestEquivalentFilterDedup: subscribers with identical rectangles share
// one match-index entry, and the index shrinks only when the last of
// them leaves.
func TestEquivalentFilterDedup(t *testing.T) {
	b, err := newCore(filter.MustSpace("x", "y"), core.Params{MinFanout: 2, MaxFanout: 4}, WithGateways(1))
	if err != nil {
		t.Fatal(err)
	}
	// Same rectangle three ways (including predicate-order variants).
	if err := b.SubscribeExpr(1, "x in [0, 10] && y in [0, 10]"); err != nil {
		t.Fatal(err)
	}
	if err := b.SubscribeExpr(2, "y in [0, 10] && x in [0, 10]"); err != nil {
		t.Fatal(err)
	}
	if err := b.Subscribe(3, filter.Range("x", 0, 10).And(filter.Range("y", 0, 10))); err != nil {
		t.Fatal(err)
	}
	if err := b.SubscribeExpr(4, "x in [5, 20] && y in [5, 20]"); err != nil {
		t.Fatal(err)
	}
	st := b.GatewayStats()[0]
	if st.Subscribers != 4 || st.UniqueFilters != 2 {
		t.Fatalf("gateway stats %+v, want 4 subscribers over 2 unique filters", st)
	}
	n, err := b.Publish(1, filter.Event{"x": 7, "y": 7})
	if err != nil {
		t.Fatal(err)
	}
	if want := []core.ProcID{1, 2, 3, 4}; len(n.Interested) != 4 ||
		n.Interested[0] != want[0] || n.Interested[3] != want[3] {
		t.Fatalf("Interested = %v, want %v", n.Interested, want)
	}
	if err := b.Unsubscribe(1); err != nil {
		t.Fatal(err)
	}
	if err := b.Unsubscribe(2); err != nil {
		t.Fatal(err)
	}
	st = b.GatewayStats()[0]
	if st.Subscribers != 2 || st.UniqueFilters != 2 {
		t.Fatalf("gateway stats %+v, want 2 subscribers over 2 unique filters", st)
	}
	if err := b.Unsubscribe(3); err != nil {
		t.Fatal(err)
	}
	st = b.GatewayStats()[0]
	if st.UniqueFilters != 1 {
		t.Fatalf("entry must vanish with its last subscriber: %+v", st)
	}
}

// TestGatewayFilterShrinksOnUnsubscribe: dropping the maximal rectangle
// shrinks the gateway's overlay filter to the union of the remaining
// rectangles (the union of the containment order's remaining maximal
// elements).
func TestGatewayFilterShrinksOnUnsubscribe(t *testing.T) {
	b, err := newCore(filter.MustSpace("x"), core.Params{MinFanout: 2, MaxFanout: 4}, WithGateways(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.SubscribeExpr(1, "x in [0, 100]"); err != nil { // maximal
		t.Fatal(err)
	}
	if err := b.SubscribeExpr(2, "x in [10, 20]"); err != nil { // contained
		t.Fatal(err)
	}
	if err := b.SubscribeExpr(3, "x in [40, 60]"); err != nil { // contained
		t.Fatal(err)
	}
	wide, _ := b.Space().Rect(filter.Range("x", 0, 100))
	if f, _ := b.Engine().Filter(1); !f.Equal(wide) {
		t.Fatalf("gateway filter %v, want %v", f, wide)
	}
	if err := b.Unsubscribe(1); err != nil {
		t.Fatal(err)
	}
	want, _ := b.Space().Rect(filter.Range("x", 10, 60))
	if f, _ := b.Engine().Filter(1); !f.Equal(want) {
		t.Fatalf("gateway filter %v did not shrink to %v", f, want)
	}
	// An event in the vacated region no longer reaches the gateway.
	n, err := b.Publish(2, filter.Event{"x": 90})
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Received) != 0 || len(n.Interested) != 0 {
		t.Fatalf("stale union leaked: %+v", n)
	}
}

// TestRefusedEngineOpKeepsMembershipAccurate: when the engine refuses
// a gateway's filter move or its join, the Subscribe that needed it
// fails and nothing else changes — the broker's view of the gateway's
// membership and filter stays the engine's, existing subscribers keep
// being served, and the retry against a healed engine goes through with
// a union covering every local subscription.
func TestRefusedEngineOpKeepsMembershipAccurate(t *testing.T) {
	tree, err := core.New(core.Params{MinFanout: 2, MaxFanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	fe := &flakyEngine{Engine: tree}
	b, err := New(filter.MustSpace("x"), fe, WithGateways(1))
	if err != nil {
		t.Fatal(err)
	}

	// Join refused on the empty gateway: no membership, no subscriber.
	fe.failJoins = 1
	if err := b.SubscribeExpr(1, "x in [0, 10]"); err == nil {
		t.Fatal("refused join must surface as an error")
	}
	if st := b.GatewayStats()[0]; st.Joined || st.Subscribers != 0 || b.Engine().Len() != 0 {
		t.Fatalf("refused join left state behind: %+v, engine population %d", st, b.Engine().Len())
	}
	if err := b.SubscribeExpr(1, "x in [0, 10]"); err != nil {
		t.Fatal(err)
	}

	// Filter move refused: the new subscriber is turned away, the gateway
	// keeps its membership and filter, subscriber 1 stays served.
	fe.failUpdates = 1
	if err := b.SubscribeExpr(2, "x in [50, 60]"); err == nil {
		t.Fatal("failed filter move must surface as an error")
	}
	old, _ := b.Space().Rect(filter.Range("x", 0, 10))
	if st := b.GatewayStats()[0]; !st.Joined || st.Subscribers != 1 || !st.Filter.Equal(old) {
		t.Fatalf("refused move changed the gateway: %+v", st)
	}
	if f, ok := b.Engine().Filter(1); !ok || !f.Equal(old) {
		t.Fatalf("engine filter %v (ok=%v) after a refused move, want %v", f, ok, old)
	}
	n, err := b.Publish(1, filter.Event{"x": 5})
	if err != nil {
		t.Fatalf("existing subscriber lost service after a failed move: %v", err)
	}
	if len(n.Interested) != 1 || n.Interested[0] != 1 || len(n.FalseNegatives) != 0 {
		t.Fatalf("classification broken after a refused move: %+v", n)
	}

	// The next attempt (engine healthy again) succeeds end to end, and the
	// gateway's filter covers all local rectangles.
	if err := b.SubscribeExpr(2, "x in [50, 60]"); err != nil {
		t.Fatal(err)
	}
	if n, err = b.Publish(2, filter.Event{"x": 55}); err != nil || len(n.Interested) != 1 || len(n.FalseNegatives) != 0 {
		t.Fatalf("post-recovery publish: %+v, %v", n, err)
	}
	want, _ := b.Space().Rect(filter.Range("x", 0, 60))
	if f, ok := b.Engine().Filter(1); !ok || !f.Equal(want) {
		t.Fatalf("gateway filter %v (ok=%v), want the full local union %v", f, ok, want)
	}
}

// TestGatewaysOverWireEngine drives the gateway layer over the wire
// protocol: subscriptions spread over few gateways, filter updates ride
// FILTER_UPDATE messages, and after Repair classification is exact.
func TestGatewaysOverWireEngine(t *testing.T) {
	cl, err := proto.NewCluster(proto.Config{MinFanout: 2, MaxFanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(filter.MustSpace("x", "y"), cl, WithGateways(4))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(21, 2))
	for i := 1; i <= 60; i++ {
		x, y := rng.Float64()*90, rng.Float64()*90
		f := filter.Range("x", x, x+12).And(filter.Range("y", y, y+12))
		if err := b.Subscribe(core.ProcID(i), f); err != nil {
			t.Fatal(err)
		}
	}
	if st := b.Repair(); !st.Converged {
		t.Fatalf("wire gateway overlay did not stabilize: %v", b.Engine().CheckLegal())
	}
	if n := b.Engine().Len(); n != 4 {
		t.Fatalf("overlay has %d processes, want 4 gateways", n)
	}
	for k := 0; k < 25; k++ {
		ev := filter.Event{"x": rng.Float64() * 110, "y": rng.Float64() * 110}
		n, err := b.Publish(core.ProcID(1+rng.IntN(60)), ev)
		if err != nil {
			t.Fatal(err)
		}
		if len(n.FalseNegatives) != 0 {
			t.Fatalf("probe %d: false negatives over the wire: %v", k, n.FalseNegatives)
		}
	}
	// Churn: drop a batch of subscribers (shrinking several gateways),
	// re-stabilize, and re-certify.
	for i := 1; i <= 20; i++ {
		if err := b.Unsubscribe(core.ProcID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if st := b.Repair(); !st.Converged {
		t.Fatalf("wire overlay did not restabilize after churn: %v", b.Engine().CheckLegal())
	}
	for k := 0; k < 25; k++ {
		ev := filter.Event{"x": rng.Float64() * 110, "y": rng.Float64() * 110}
		n, err := b.Publish(core.ProcID(21+rng.IntN(40)), ev)
		if err != nil {
			t.Fatal(err)
		}
		if len(n.FalseNegatives) != 0 {
			t.Fatalf("post-churn probe %d: false negatives: %v", k, n.FalseNegatives)
		}
	}
}

// TestWithGatewaysValidation covers the option's error path.
func TestWithGatewaysValidation(t *testing.T) {
	if _, err := newCore(filter.MustSpace("x"), core.Params{MinFanout: 2, MaxFanout: 4}, WithGateways(0)); err == nil {
		t.Error("gateway count 0 must be rejected")
	}
}

// TestClassificationMatchesLinearScan cross-checks the gateway R-tree
// classification against a naive scan over every subscriber on random
// workloads — the sublinear path must be observably identical to the
// linear scan it replaced.
func TestClassificationMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(77, 7))
	b, err := newCore(filter.MustSpace("x", "y"), core.Params{MinFanout: 2, MaxFanout: 4}, WithGateways(5))
	if err != nil {
		t.Fatal(err)
	}
	subs := map[core.ProcID]filter.Filter{}
	for i := 1; i <= 150; i++ {
		x, y := rng.Float64()*100, rng.Float64()*100
		var f filter.Filter
		if i%10 == 0 {
			f = filter.Range("x", x, x) // degenerate: exact-value filter
		} else {
			f = filter.Range("x", x, x+rng.Float64()*25).And(filter.Range("y", y, y+rng.Float64()*25))
		}
		if err := b.Subscribe(core.ProcID(i), f); err != nil {
			t.Fatal(err)
		}
		subs[core.ProcID(i)] = f
	}
	for k := 0; k < 40; k++ {
		ev := filter.Event{"x": rng.Float64() * 110, "y": rng.Float64() * 110}
		n, err := b.Publish(1, ev)
		if err != nil {
			t.Fatal(err)
		}
		var want []core.ProcID
		for id, f := range subs {
			if f.Match(ev) {
				want = append(want, id)
			}
		}
		if len(want) != len(n.Interested) {
			t.Fatalf("probe %d: Interested %v, linear scan %v", k, n.Interested, want)
		}
		got := map[core.ProcID]bool{}
		for _, id := range n.Interested {
			got[id] = true
		}
		for _, id := range want {
			if !got[id] {
				t.Fatalf("probe %d: linear scan found %d, gateway index missed it", k, id)
			}
		}
		if len(n.FalseNegatives) != 0 {
			t.Fatalf("probe %d: false negatives %v", k, n.FalseNegatives)
		}
	}
}
