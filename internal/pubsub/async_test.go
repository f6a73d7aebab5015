package pubsub

// Tests for the daemon-facing surface: gateway base renumbering, the
// push-side NotifyGateway entry point, and fire-and-forget publishing
// over an engine with the AsyncPublisher capability.

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"drtree/internal/core"
	"drtree/internal/filter"
	"drtree/internal/geom"
	"drtree/internal/proto"
)

func TestWithGatewayBaseValidation(t *testing.T) {
	tree, err := core.New(core.Params{MinFanout: 2, MaxFanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(filter.MustSpace("price"), tree, WithGatewayBase(0)); err == nil {
		t.Error("gateway base 0 must be rejected")
	}
	if _, err := New(filter.MustSpace("price"), tree, WithGatewayBase(-7)); err == nil {
		t.Error("negative gateway base must be rejected")
	}
}

func TestGatewayBaseNumbering(t *testing.T) {
	tree, err := core.New(core.Params{MinFanout: 2, MaxFanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(filter.MustSpace("price", "qty"), tree, WithGateways(4), WithGatewayBase(50))
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range b.GatewayStats() {
		if want := core.ProcID(50 + i); st.ProcID != want {
			t.Fatalf("gateway %d has procID %d, want %d", i, st.ProcID, want)
		}
	}
	// GatewayOf agrees with the subscriber->gateway hash once an ID is
	// registered; before that it has no gateway.
	if got := b.GatewayOf(1); got != core.NoProc {
		t.Fatalf("GatewayOf(unregistered 1) = %d, want NoProc", got)
	}
	for id := core.ProcID(1); id <= 8; id++ {
		if err := b.SubscribeExpr(id, "price in [0, 10]"); err != nil {
			t.Fatal(err)
		}
		if want := core.ProcID(50 + int(id)%4); b.GatewayOf(id) != want {
			t.Fatalf("GatewayOf(%d) = %d, want %d", id, b.GatewayOf(id), want)
		}
	}
}

func TestNotifyGatewayDelivers(t *testing.T) {
	b := newBroker(t)
	ch, err := b.SubscribeChan(1, filter.MustParse("price in [10, 20] && qty in [1, 5]"))
	if err != nil {
		t.Fatal(err)
	}
	// A record-only subscriber on the same gateway counts as matched but
	// has no queue.
	gws := b.Gateways()
	other := core.ProcID(1 + gws) // same gateway as subscriber 1
	if err := b.SubscribeExpr(other, "price in [0, 100]"); err != nil {
		t.Fatal(err)
	}

	ev := filter.Event{"price": 15, "qty": 3}
	if n := b.NotifyGateway(b.GatewayOf(1), ev); n != 2 {
		t.Fatalf("NotifyGateway = %d, want 2 matched", n)
	}
	select {
	case e := <-ch:
		if e.Event["price"] != 15 {
			t.Fatalf("delivered %v", e.Event)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queue-backed subscriber never received the notified event")
	}

	// Unknown gateway process and malformed events deliver nothing.
	if n := b.NotifyGateway(0, ev); n != 0 {
		t.Fatalf("NotifyGateway(0) = %d, want 0", n)
	}
	if n := b.NotifyGateway(core.ProcID(9999), ev); n != 0 {
		t.Fatalf("NotifyGateway(9999) = %d, want 0", n)
	}
	if n := b.NotifyGateway(b.GatewayOf(1), filter.Event{"price": 15}); n != 0 {
		t.Fatalf("NotifyGateway with a partial event = %d, want 0", n)
	}
	// Non-matching event: classified, nobody interested.
	if n := b.NotifyGateway(b.GatewayOf(1), filter.Event{"price": 999, "qty": 999}); n != 0 {
		t.Fatalf("NotifyGateway with a non-matching event = %d, want 0", n)
	}
}

// TestPublishRefusesNonFinite: an event with a NaN or infinite value
// is refused whole by Publish and PublishBatch — NaN lies in no
// rectangle, and an infinity cannot be encoded for a WebSocket client —
// and nothing of a refused batch is delivered.
func TestPublishRefusesNonFinite(t *testing.T) {
	b := newBroker(t)
	ch, err := b.SubscribeChan(1, filter.MustParse("price > 5"))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := b.Publish(1, filter.Event{"price": v, "qty": 1}); err == nil {
			t.Errorf("Publish accepted price %v", v)
		}
		if _, err := b.PublishBatch(1, []filter.Event{{"price": 6, "qty": 1}, {"price": 7, "qty": v}}); err == nil {
			t.Errorf("PublishBatch accepted qty %v", v)
		}
	}
	if _, err := b.Publish(1, filter.Event{"price": 8, "qty": 1}); err != nil {
		t.Fatal(err)
	}
	if e := <-ch; e.Event["price"] != 8 {
		t.Fatalf("first delivery %v, want the finite price 8", e.Event)
	}
}

func TestPublishAsyncRequiresCapability(t *testing.T) {
	b := newBroker(t) // sequential engine: no AsyncPublisher
	if err := b.SubscribeExpr(1, "price in [0, 10]"); err != nil {
		t.Fatal(err)
	}
	if err := b.PublishAsync(1, filter.Event{"price": 5, "qty": 1}); err == nil {
		t.Fatal("PublishAsync over the sequential engine must be refused")
	}
}

// notifyHook bridges a live cluster's event hook to NotifyGateway, as
// drtreed's hook does: NotifyGateway runs on the cluster's run loop.
func notifyHook(space *filter.Space, b *Broker) proto.EventHook {
	return func(proc core.ProcID, _ int64, ev geom.Point, matched bool) {
		if !matched {
			return
		}
		if e, err := space.Event(ev); err == nil {
			b.NotifyGateway(proc, e)
		}
	}
}

// TestPublishAsyncEndToEnd wires the live runtime's event hook to
// NotifyGateway — exactly the daemon's bridge — and checks an async
// publish reaches a queue-backed subscriber with no synchronous census.
func TestPublishAsyncEndToEnd(t *testing.T) {
	lc, err := proto.NewLiveCluster(proto.Config{MinFanout: 2, MaxFanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	space := filter.MustSpace("price", "qty")
	b, err := New(space, lc, WithGateways(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	lc.SetEventHook(notifyHook(space, b))

	if err := b.PublishAsync(1, filter.Event{"price": 1, "qty": 1}); !errors.Is(err, ErrProducerNotRegistered) {
		t.Fatalf("unregistered producer: err = %v", err)
	}

	ch, err := b.SubscribeChan(1, filter.MustParse("price in [10, 20] && qty in [1, 5]"))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.SubscribeExpr(2, "price in [500, 600]"); err != nil {
		t.Fatal(err)
	}

	if err := b.PublishAsync(1, filter.Event{"price": 15, "qty": 2}); err != nil {
		t.Fatal(err)
	}
	select {
	case e := <-ch:
		if e.Event["price"] != 15 || e.Event["qty"] != 2 {
			t.Fatalf("delivered %v", e.Event)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("async publish never reached the subscriber")
	}

	// A non-finite value is refused, and a non-matching event must not
	// arrive.
	if err := b.PublishAsync(1, filter.Event{"price": math.Inf(1), "qty": 2}); err == nil {
		t.Fatal("PublishAsync accepted an infinite value")
	}
	if err := b.PublishAsync(1, filter.Event{"price": 400, "qty": 400}); err != nil {
		t.Fatal(err)
	}
	select {
	case e := <-ch:
		t.Fatalf("unexpected delivery %v", e.Event)
	case <-time.After(300 * time.Millisecond):
	}
}

// TestPublishAsyncVersusGrowingSubscribe: an async publisher and a
// subscriber whose filters keep widening the gateway's union must not
// deadlock. The event hook calls NotifyGateway itself (notifyHook): it
// takes the gateway's read lock, while a union-growing Subscribe holds that
// gateway's lock and wants the engine mutex — so the hook may never run
// on the stack of a publisher that holds the engine mutex, and
// PublishAsync may not hold it while the engine waits on its hooks.
func TestPublishAsyncVersusGrowingSubscribe(t *testing.T) {
	lc, err := proto.NewLiveCluster(proto.Config{MinFanout: 2, MaxFanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	space := filter.MustSpace("price")
	b, err := New(space, lc, WithGateways(1))
	if err != nil {
		t.Fatal(err)
	}
	lc.SetEventHook(notifyHook(space, b))
	if err := b.SubscribeExpr(1, "price in [0, 10]"); err != nil {
		t.Fatal(err)
	}

	const publishes, subscribes = 20000, 2000
	done := make(chan error, 2) // one result per worker
	go func() {
		for i := 0; i < publishes; i++ {
			if err := b.PublishAsync(1, filter.Event{"price": 5}); err != nil {
				done <- fmt.Errorf("publish %d: %w", i, err)
				return
			}
		}
		done <- nil
	}()
	go func() {
		// Each filter is wider than the last, so every Subscribe grows the
		// union; none contains the published price, so the hook's match
		// stays one subscriber's worth of work.
		for i := 1; i <= subscribes; i++ {
			if err := b.SubscribeExpr(core.ProcID(1+i), fmt.Sprintf("price in [10, %d]", 10+i)); err != nil {
				done <- fmt.Errorf("subscribe %d: %w", i, err)
				return
			}
		}
		done <- nil
	}()
	watchdog := time.After(20 * time.Second)
	for range 2 {
		select {
		case err := <-done:
			if err != nil {
				t.Error(err)
			}
		case <-watchdog:
			// The workers are wedged and Close would wedge behind them:
			// leave everything as it stands, with the stacks in the log.
			stacks := make([]byte, 1<<20)
			t.Fatalf("publisher and subscriber deadlocked; all goroutines:\n%s", stacks[:runtime.Stack(stacks, true)])
		}
	}
	if err := b.Close(); err != nil {
		t.Error(err)
	}
}

// TestNotifyGatewayAllocatesNothing pins the matching half of the
// delivery edge: once its pooled scratch has grown to the gateway's
// fan-out, NotifyGateway allocates nothing per call, with one matching
// queue-backed subscriber or 64 spread over as many match entries.
func TestNotifyGatewayAllocatesNothing(t *testing.T) {
	// One P: sync.Pool keeps what is put back per P, so a call that
	// migrated to another P since the last one would miss the scratch.
	// The pin is about what a call allocates, not where the pool put it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, subs := range []int{1, 64} {
		t.Run(fmt.Sprint(subs), func(t *testing.T) {
			b, err := newCore(filter.MustSpace("price", "qty"), core.Params{MinFanout: 2, MaxFanout: 4}, WithGateways(1))
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			for id := 1; id <= subs; id++ {
				f := filter.Range("price", float64(-id), 100).And(filter.Range("qty", 0, 10))
				if err := b.SubscribeFunc(core.ProcID(id), f, func(Envelope) error { return nil }); err != nil {
					t.Fatal(err)
				}
			}
			gw, ev := b.GatewayOf(1), filter.Event{"price": 15, "qty": 3}
			allocs := testing.AllocsPerRun(1000, func() {
				if n := b.NotifyGateway(gw, ev); n != subs {
					t.Fatalf("NotifyGateway matched %d, want %d", n, subs)
				}
			})
			if allocs != 0 && !raceEnabled {
				t.Fatalf("NotifyGateway to %d subscribers made %v allocations, want 0", subs, allocs)
			}
		})
	}
}
