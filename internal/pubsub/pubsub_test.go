package pubsub

import (
	"math/rand/v2"
	"reflect"
	"testing"
	"testing/quick"

	"drtree/internal/core"
	"drtree/internal/engine"
	"drtree/internal/filter"
	"drtree/internal/proto"
)

// newCore is New over a fresh sequential engine.
func newCore(space *filter.Space, params core.Params, opts ...Option) (*Broker, error) {
	tree, err := core.New(params)
	if err != nil {
		return nil, err
	}
	return New(space, tree, opts...)
}

func newBroker(t *testing.T) *Broker {
	t.Helper()
	b, err := newCore(filter.MustSpace("price", "qty"), core.Params{MinFanout: 2, MaxFanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewValidation(t *testing.T) {
	if _, err := newCore(nil, core.Params{MinFanout: 2, MaxFanout: 4}); err == nil {
		t.Error("nil space must be rejected")
	}
	if _, err := newCore(filter.MustSpace("a"), core.Params{MinFanout: 0, MaxFanout: 4}); err == nil {
		t.Error("bad params must be rejected")
	}
}

func TestSubscribePublishRoundTrip(t *testing.T) {
	b := newBroker(t)
	if err := b.SubscribeExpr(1, "price in [10, 20] && qty in [1, 5]"); err != nil {
		t.Fatal(err)
	}
	if err := b.SubscribeExpr(2, "price in [15, 30] && qty in [2, 8]"); err != nil {
		t.Fatal(err)
	}
	if err := b.SubscribeExpr(3, "price in [100, 200]"); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 3 {
		t.Fatalf("Len = %d", b.Len())
	}

	n, err := b.Publish(1, filter.Event{"price": 16, "qty": 3})
	if err != nil {
		t.Fatal(err)
	}
	if want := []core.ProcID{1, 2}; !reflect.DeepEqual(n.Interested, want) {
		t.Fatalf("Interested = %v, want %v", n.Interested, want)
	}
	if len(n.FalseNegatives) != 0 {
		t.Fatalf("false negatives: %v", n.FalseNegatives)
	}

	// Unmatched event: nobody interested, no false negatives.
	n, err = b.Publish(1, filter.Event{"price": 50, "qty": 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Interested) != 0 || len(n.FalseNegatives) != 0 {
		t.Fatalf("unexpected: %+v", n)
	}
}

func TestSubscribeErrors(t *testing.T) {
	b := newBroker(t)
	if err := b.SubscribeExpr(1, "bogus ?? 3"); err == nil {
		t.Error("bad expression must error")
	}
	if err := b.SubscribeExpr(1, "other = 3"); err == nil {
		t.Error("attribute outside space must error")
	}
	if err := b.SubscribeExpr(1, "price < 1 && price > 2"); err == nil {
		t.Error("unsatisfiable filter must error")
	}
	if _, err := b.Publish(9, filter.Event{"price": 1, "qty": 1}); err == nil {
		t.Error("unregistered producer must error")
	}
	if err := b.Unsubscribe(9); err == nil {
		t.Error("unknown unsubscribe must error")
	}
	if err := b.Fail(9); err == nil {
		t.Error("unknown fail must error")
	}
}

func TestPublishEventValidation(t *testing.T) {
	b := newBroker(t)
	if err := b.SubscribeExpr(1, "price in [0, 10]"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Publish(1, filter.Event{"price": 1}); err == nil {
		t.Error("event missing a space attribute must error")
	}
}

func TestUnsubscribeAndFail(t *testing.T) {
	b := newBroker(t)
	for i := 1; i <= 10; i++ {
		if err := b.SubscribeExpr(core.ProcID(i), "price in [0, 100] && qty in [0, 100]"); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Unsubscribe(4); err != nil {
		t.Fatal(err)
	}
	if err := b.Fail(7); err != nil {
		t.Fatal(err)
	}
	b.Repair()
	if err := b.Engine().CheckLegal(); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 8 {
		t.Fatalf("Len = %d", b.Len())
	}
}

func TestStrictPredicateBoundary(t *testing.T) {
	// price < 20 is compiled to the closed rectangle [.., 20]; an event
	// at exactly 20 is delivered (rectangle semantics) but not matched
	// (strict predicate): it must appear as a false positive, never as a
	// false negative.
	b, err := newCore(filter.MustSpace("price"), core.Params{MinFanout: 2, MaxFanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.SubscribeExpr(1, "price >= 10 && price < 20"); err != nil {
		t.Fatal(err)
	}
	if err := b.SubscribeExpr(2, "price >= 0 && price <= 100"); err != nil {
		t.Fatal(err)
	}
	n, err := b.Publish(2, filter.Event{"price": 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(n.FalseNegatives) != 0 {
		t.Fatalf("false negatives: %v", n.FalseNegatives)
	}
	if !reflect.DeepEqual(n.Interested, []core.ProcID{2}) {
		t.Fatalf("Interested = %v", n.Interested)
	}
}

func TestPropertyNoFalseNegativesThroughBroker(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 91))
		b, err := newCore(filter.MustSpace("x", "y"), core.Params{MinFanout: 2, MaxFanout: 4})
		if err != nil {
			return false
		}
		n := 5 + rng.IntN(30)
		for i := 1; i <= n; i++ {
			x := rng.Float64() * 80
			y := rng.Float64() * 80
			f := filter.Range("x", x, x+rng.Float64()*20).And(filter.Range("y", y, y+rng.Float64()*20))
			if err := b.Subscribe(core.ProcID(i), f); err != nil {
				return false
			}
		}
		for k := 0; k < 10; k++ {
			ev := filter.Event{"x": rng.Float64() * 100, "y": rng.Float64() * 100}
			producer := core.ProcID(1 + rng.IntN(n))
			note, err := b.Publish(producer, ev)
			if err != nil {
				return false
			}
			if len(note.FalseNegatives) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestBrokerOverWireEngine runs the Broker over the message-passing
// cluster: the engine-agnostic front end composed with the wire
// protocol, with a full subscribe/repair/publish/unsubscribe round trip.
func TestBrokerOverWireEngine(t *testing.T) {
	cl, err := proto.NewCluster(proto.Config{MinFanout: 2, MaxFanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	space := filter.MustSpace("price", "qty")
	b, err := New(space, cl)
	if err != nil {
		t.Fatal(err)
	}
	if b.Space() != space || b.Engine() != engine.Engine(cl) {
		t.Fatal("accessors must expose the wired space and engine")
	}
	for i, expr := range []string{
		"price in [0, 100] && qty in [0, 100]",
		"price in [10, 20] && qty in [1, 5]",
		"price in [15, 30] && qty in [2, 8]",
		"price in [50, 90] && qty in [0, 50]",
	} {
		if err := b.SubscribeExpr(core.ProcID(i+1), expr); err != nil {
			t.Fatal(err)
		}
	}
	if st := b.Repair(); !st.Converged {
		t.Fatalf("wire overlay did not stabilize: %v", b.Engine().CheckLegal())
	}
	n, err := b.Publish(1, filter.Event{"price": 17, "qty": 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(n.FalseNegatives) != 0 {
		t.Fatalf("false negatives over the wire: %+v", n)
	}
	if len(n.Interested) != 3 {
		t.Fatalf("want subscribers 1, 2, 3 interested, got %+v", n.Interested)
	}
	if err := b.Unsubscribe(2); err != nil {
		t.Fatal(err)
	}
	if st := b.Repair(); !st.Converged {
		t.Fatal("repair after unsubscribe failed")
	}
	if b.Len() != 3 {
		t.Fatalf("Len = %d", b.Len())
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestNewValidatesEngine covers the nil-engine constructor path.
func TestNewValidatesEngine(t *testing.T) {
	if _, err := New(filter.MustSpace("a"), nil); err == nil {
		t.Error("nil engine must be rejected")
	}
}
