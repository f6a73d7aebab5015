package pubsub

// Regression tests for broker edge-case bugs: each test exercises a
// failure interleaving that used to corrupt broker state (permanent
// false negatives, stranded gateways, duplicate match entries, raw
// engine errors leaking through the producer check).

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"drtree/internal/core"
	"drtree/internal/engine"
	"drtree/internal/filter"
	"drtree/internal/geom"
)

// flakyEngine refuses the next failJoins / failLeaves / failUpdates calls
// of the respective kind, then behaves like the engine it wraps.
type flakyEngine struct {
	engine.Engine
	failJoins, failLeaves, failUpdates int
}

func refuse(budget *int, what string) error {
	if *budget > 0 {
		*budget--
		return fmt.Errorf("injected %s failure", what)
	}
	return nil
}

func (f *flakyEngine) Join(id core.ProcID, r geom.Rect) error {
	if err := refuse(&f.failJoins, "join"); err != nil {
		return err
	}
	return f.Engine.Join(id, r)
}

func (f *flakyEngine) Leave(id core.ProcID) error {
	if err := refuse(&f.failLeaves, "leave"); err != nil {
		return err
	}
	return f.Engine.Leave(id)
}

func (f *flakyEngine) UpdateFilter(id core.ProcID, r geom.Rect) error {
	if err := refuse(&f.failUpdates, "filter update"); err != nil {
		return err
	}
	return f.Engine.UpdateFilter(id, r)
}

// faultIndex wraps a gateway's match index, counting Insert calls and
// failing the next failInserts of them. The old remove() rollback
// re-inserted the deleted entry through exactly this path and ignored
// the error — a failure there left the rectangle missing from the index
// while the subscription stayed registered: a permanent false negative.
type faultIndex struct {
	matchIndex
	insertCalls int
	failInserts int
}

func (fi *faultIndex) Insert(r geom.Rect, data any) error {
	fi.insertCalls++
	if fi.failInserts > 0 {
		fi.failInserts--
		return fmt.Errorf("injected index insert failure")
	}
	return fi.matchIndex.Insert(r, data)
}

// TestRemoveEngineRefusalLeavesNoFalseNegative certifies that a failed
// Unsubscribe mutates nothing: the engine is consulted before any local
// state changes, so the fallible index re-insert of the old rollback
// path no longer exists (the armed faultIndex proves it is never
// called), and the refused subscriber keeps receiving events.
func TestRemoveEngineRefusalLeavesNoFalseNegative(t *testing.T) {
	mk := func() (*Broker, *flakyEngine, *faultIndex) {
		tree, err := core.New(core.Params{MinFanout: 2, MaxFanout: 4})
		if err != nil {
			t.Fatal(err)
		}
		fe := &flakyEngine{Engine: tree}
		b, err := New(filter.MustSpace("x"), fe, WithGateways(1))
		if err != nil {
			t.Fatal(err)
		}
		if err := b.SubscribeExpr(1, "x in [0, 10]"); err != nil {
			t.Fatal(err)
		}
		// Arm the fault after the initial subscriptions: any Insert from
		// here on is a rollback re-insert, and it would fail.
		fi := &faultIndex{matchIndex: b.gws[0].index, failInserts: 1}
		b.gws[0].index = fi
		return b, fe, fi
	}

	// Last-subscription path: the gateway's Leave is refused.
	b, fe, fi := mk()
	fe.failLeaves = 1
	if err := b.Unsubscribe(1); err == nil {
		t.Fatal("refused engine Leave must surface as an error")
	}
	if fi.insertCalls != 0 {
		t.Fatalf("remove touched the match index %d times on the failure path", fi.insertCalls)
	}
	if b.Len() != 1 {
		t.Fatalf("Len = %d after refused Unsubscribe, want 1", b.Len())
	}
	n, err := b.Publish(1, filter.Event{"x": 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Interested) != 1 || len(n.Received) != 1 || len(n.FalseNegatives) != 0 {
		t.Fatalf("subscriber lost after refused Unsubscribe: %+v", n)
	}
	// Engine healed: the retry completes cleanly.
	if err := b.Unsubscribe(1); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatalf("Len = %d after healed Unsubscribe, want 0", b.Len())
	}

	// Filter-shrink path: the union move is refused while another
	// subscription keeps the gateway alive.
	b, fe, fi = mk()
	fi.failInserts = 0 // disarm while the second subscription's entry is indexed
	if err := b.SubscribeExpr(2, "x in [50, 60]"); err != nil {
		t.Fatal(err)
	}
	fi.insertCalls, fi.failInserts = 0, 1
	fe.failUpdates = 1
	if err := b.Unsubscribe(2); err == nil {
		t.Fatal("refused filter move must surface as an error")
	}
	if fi.insertCalls != 0 {
		t.Fatalf("remove touched the match index %d times on the failure path", fi.insertCalls)
	}
	n, err = b.Publish(1, filter.Event{"x": 55})
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Interested) != 1 || n.Interested[0] != 2 || len(n.FalseNegatives) != 0 {
		t.Fatalf("subscriber 2 lost after refused Unsubscribe: %+v", n)
	}
	if err := b.Unsubscribe(2); err != nil {
		t.Fatal(err)
	}
	if got, _ := b.Engine().Filter(1); !got.Equal(geom.MustRect([]float64{0}, []float64{10})) {
		t.Fatalf("gateway filter %v after healed Unsubscribe, want [0,10]", got)
	}
}

// TestRectKeyAgreesWithEqual is the property behind equivalent-filter
// dedup: two rectangles share a rectKey exactly when Rect.Equal says
// they are the same rectangle. The interesting case is negative zero
// (-0.0 == +0.0 but their bit patterns differ); the pool also covers
// infinities and ordinary values, pairwise.
func TestRectKeyAgreesWithEqual(t *testing.T) {
	vals := []float64{math.Inf(-1), -1.5, math.Copysign(0, -1), 0, 2.25, math.Inf(1)}
	var rects []geom.Rect
	for _, lo := range vals {
		for _, hi := range vals {
			if lo > hi {
				continue
			}
			rects = append(rects, geom.MustRect([]float64{lo}, []float64{hi}))
		}
	}
	rng := rand.New(rand.NewPCG(11, 42))
	for i := 0; i < 40; i++ {
		a, b := rng.Float64()*100-50, rng.Float64()*100-50
		rects = append(rects, geom.MustRect([]float64{math.Min(a, b)}, []float64{math.Max(a, b)}))
	}
	for i, a := range rects {
		for j, b := range rects {
			eq, keyEq := a.Equal(b), rectKey(a) == rectKey(b)
			if eq != keyEq {
				t.Errorf("rects %d %v and %d %v: Equal=%v but rectKey-equal=%v", i, a, j, b, eq, keyEq)
			}
		}
	}
}

// TestNegativeZeroFiltersShareEntry drives the same property end to
// end: filters whose rectangles differ only in the sign of zero must
// collapse into one match-index entry.
func TestNegativeZeroFiltersShareEntry(t *testing.T) {
	b, err := newCore(filter.MustSpace("x"), core.Params{MinFanout: 2, MaxFanout: 4}, WithGateways(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Subscribe(1, filter.Range("x", math.Copysign(0, -1), 10)); err != nil {
		t.Fatal(err)
	}
	if err := b.Subscribe(2, filter.Range("x", 0, 10)); err != nil {
		t.Fatal(err)
	}
	if st := b.GatewayStats()[0]; st.UniqueFilters != 1 {
		t.Fatalf("UniqueFilters = %d for ±0.0 twins, want 1 shared entry", st.UniqueFilters)
	}
	n, err := b.Publish(1, filter.Event{"x": 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Interested) != 2 || len(n.Received) != 2 {
		t.Fatalf("±0.0 twins classified %+v", n)
	}
}

// hookEngine runs a hook instead of the next PublishBatch call — the
// deterministic version of "the producer was unsubscribed between the
// broker's registered check and the engine call".
type hookEngine struct {
	engine.Engine
	hook func() error
}

func (h *hookEngine) PublishBatch(batch []core.Publication) ([]core.Delivery, error) {
	if h.hook != nil {
		hk := h.hook
		h.hook = nil
		if err := hk(); err != nil {
			return nil, err
		}
	}
	return h.Engine.PublishBatch(batch)
}

// TestPublishUnsubscribeRaceMapsToSentinel: when a concurrent
// Unsubscribe removes the producer after the registered check, the
// engine's "not a member" refusal is mapped to ErrProducerNotRegistered
// — callers see one error for one condition regardless of interleaving,
// including the one where the producer has subscribed again by the time
// the refusal comes back.
func TestPublishUnsubscribeRaceMapsToSentinel(t *testing.T) {
	tree, err := core.New(core.Params{MinFanout: 2, MaxFanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	he := &hookEngine{Engine: tree}
	b, err := New(filter.MustSpace("x"), he, WithGateways(1))
	if err != nil {
		t.Fatal(err)
	}
	// Two subscribers sharing one filter: unsubscribing the producer
	// neither detaches the gateway nor moves its filter, so the hook's
	// Unsubscribe takes no engine call (the engine mutex is held by the
	// in-flight publish).
	if err := b.SubscribeExpr(1, "x in [0, 10]"); err != nil {
		t.Fatal(err)
	}
	if err := b.SubscribeExpr(2, "x in [0, 10]"); err != nil {
		t.Fatal(err)
	}

	// The early check uses the sentinel too.
	if _, err := b.Publish(99, filter.Event{"x": 5}); !errors.Is(err, ErrProducerNotRegistered) {
		t.Fatalf("unregistered producer: %v, want ErrProducerNotRegistered", err)
	}

	he.hook = func() error {
		if err := b.Unsubscribe(1); err != nil {
			return fmt.Errorf("hook unsubscribe: %v", err)
		}
		return core.NotMemberf("injected: process 1 not in the tree")
	}
	if _, err := b.Publish(1, filter.Event{"x": 5}); !errors.Is(err, ErrProducerNotRegistered) {
		t.Fatalf("raced publish: %v, want ErrProducerNotRegistered", err)
	}

	// The refusal decides, not a second look at the table: a producer
	// that left and came back while the engine call was in flight still
	// gets the sentinel (the TestConcurrentBrokerHammer flake). With 1
	// back, 2's leave and rejoin take no engine call either.
	if err := b.SubscribeExpr(1, "x in [0, 10]"); err != nil {
		t.Fatal(err)
	}
	he.hook = func() error {
		if err := b.Unsubscribe(2); err != nil {
			return fmt.Errorf("hook unsubscribe: %v", err)
		}
		if err := b.SubscribeExpr(2, "x in [0, 10]"); err != nil {
			return fmt.Errorf("hook resubscribe: %v", err)
		}
		return core.NotMemberf("injected: process 2 not in the tree")
	}
	if _, err := b.Publish(2, filter.Event{"x": 5}); !errors.Is(err, ErrProducerNotRegistered) {
		t.Fatalf("publish raced by leave+rejoin: %v, want ErrProducerNotRegistered", err)
	}

	// Any other engine error stays a raw engine error — the mapping is
	// for the unsubscribe race only.
	he.hook = func() error { return fmt.Errorf("injected transient engine failure") }
	if _, err := b.Publish(2, filter.Event{"x": 5}); err == nil || errors.Is(err, ErrProducerNotRegistered) {
		t.Fatalf("unrelated engine error must not be masked: %v", err)
	}
}
