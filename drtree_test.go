package drtree_test

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"drtree"
)

// TestFacadeTreeRoundTrip exercises the concrete sequential engine
// through the public API end to end.
func TestFacadeTreeRoundTrip(t *testing.T) {
	tree, err := drtree.NewTree(drtree.Params{MinFanout: 2, MaxFanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 12; i++ {
		f := drtree.R2(float64(i*10), 0, float64(i*10)+15, 20)
		if err := tree.Join(drtree.ProcID(i), f); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
	}
	if err := tree.CheckLegal(); err != nil {
		t.Fatal(err)
	}
	d, err := tree.Publish(3, drtree.Point{35, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Received) == 0 {
		t.Fatal("no deliveries")
	}
	if err := tree.Leave(5); err != nil {
		t.Fatal(err)
	}
	if err := tree.Crash(7); err != nil {
		t.Fatal(err)
	}
	tree.Stabilize()
	if err := tree.CheckLegal(); err != nil {
		t.Fatal(err)
	}
	if tree.Len() != 10 {
		t.Fatalf("Len = %d", tree.Len())
	}
}

// TestOpenAllEngines drives the same tiny scenario through Open for
// every engine kind, using only the Engine interface.
func TestOpenAllEngines(t *testing.T) {
	for _, kind := range []drtree.EngineKind{drtree.EngineCore, drtree.EngineProto, drtree.EngineLive} {
		t.Run(string(kind), func(t *testing.T) {
			eng, err := drtree.Open(drtree.WithEngine(kind), drtree.WithFanout(2, 4), drtree.WithSeed(7))
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			for i := 1; i <= 8; i++ {
				f := drtree.R2(float64(i*10), 0, float64(i*10)+15, 20)
				if err := eng.Join(drtree.ProcID(i), f); err != nil {
					t.Fatalf("join %d: %v", i, err)
				}
			}
			if st := eng.Stabilize(); !st.Converged {
				t.Fatalf("stabilize did not converge: %+v", st)
			}
			if err := eng.CheckLegal(); err != nil {
				t.Fatal(err)
			}
			if eng.Len() != 8 {
				t.Fatalf("Len = %d", eng.Len())
			}
			if root, h := eng.Root(); root == drtree.NoProc || h < 0 {
				t.Fatalf("no root: (%d, %d)", root, h)
			}
			d, err := eng.Publish(3, drtree.Point{35, 10})
			if err != nil {
				t.Fatal(err)
			}
			if fn := drtree.FalseNegatives(eng, d, drtree.Point{35, 10}); len(fn) != 0 {
				t.Fatalf("engine %s: matching subscribers %v missed %+v", kind, fn, d)
			}
			batch := []drtree.Publication{
				{Producer: 3, Event: drtree.Point{35, 10}},
				{Producer: 5, Event: drtree.Point{62, 10}},
			}
			ds, err := eng.PublishBatch(batch)
			if err != nil {
				t.Fatal(err)
			}
			if len(ds) != len(batch) {
				t.Fatalf("batch returned %d deliveries", len(ds))
			}
			for k := range ds {
				if fn := drtree.FalseNegatives(eng, ds[k], batch[k].Event); len(fn) != 0 {
					t.Fatalf("engine %s batch %d: matching subscribers %v missed %+v", kind, k, fn, ds[k])
				}
			}
			if err := eng.Crash(2); err != nil {
				t.Fatal(err)
			}
			if st := eng.Stabilize(); !st.Converged {
				t.Fatalf("post-crash stabilize did not converge: %+v", st)
			}
			if err := eng.CheckLegal(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestOpenOptionValidation covers option errors and capability
// narrowing.
func TestOpenOptionValidation(t *testing.T) {
	if _, err := drtree.Open(drtree.WithEngine("bogus")); err == nil {
		t.Error("unknown engine must be rejected")
	}
	if _, err := drtree.Open(drtree.WithSplit("bogus")); err == nil {
		t.Error("unknown split must be rejected")
	}
	if _, err := drtree.Open(drtree.WithFanout(0, 4)); err == nil {
		t.Error("invalid fanout must be rejected")
	}
	if _, err := drtree.ParseEngineKind("liv"); err == nil {
		t.Error("ParseEngineKind must reject typos")
	}

	eng, err := drtree.Open(drtree.WithElection(drtree.LargestMBR{}), drtree.WithSplit("rstar"))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, ok := eng.(drtree.NetworkedEngine); ok {
		t.Error("sequential engine must not claim the networked capability")
	}
	neng, err := drtree.Open(drtree.WithEngine(drtree.EngineProto))
	if err != nil {
		t.Fatal(err)
	}
	defer neng.Close()
	if _, ok := neng.(drtree.NetworkedEngine); !ok {
		t.Error("proto engine must expose the networked capability")
	}
	if _, ok := neng.(drtree.SteppedEngine); !ok {
		t.Error("proto engine must expose the stepped capability")
	}
}

// TestFacadeBrokerRoundTrip exercises the public pub/sub API over the
// default engine.
func TestFacadeBrokerRoundTrip(t *testing.T) {
	space, err := drtree.NewSpace("x", "y")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := drtree.Open(drtree.WithFanout(2, 4))
	if err != nil {
		t.Fatal(err)
	}
	broker, err := drtree.NewBroker(space, eng)
	if err != nil {
		t.Fatal(err)
	}
	defer broker.Close()
	f, err := drtree.ParseFilter("x in [0, 10] && y in [0, 10]")
	if err != nil {
		t.Fatal(err)
	}
	if err := broker.Subscribe(1, f); err != nil {
		t.Fatal(err)
	}
	if err := broker.SubscribeExpr(2, "x in [5, 20] && y in [5, 20]"); err != nil {
		t.Fatal(err)
	}
	n, err := broker.Publish(1, drtree.Event{"x": 7, "y": 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Interested) != 2 || len(n.FalseNegatives) != 0 {
		t.Fatalf("notification: %+v", n)
	}
}

// TestFacadeBrokerOverWire runs the Broker over the message-passing
// engine — the pub/sub front end and the wire protocol composed through
// the Engine interface only.
func TestFacadeBrokerOverWire(t *testing.T) {
	space, err := drtree.NewSpace("x", "y")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := drtree.Open(drtree.WithEngine(drtree.EngineProto), drtree.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	broker, err := drtree.NewBroker(space, eng)
	if err != nil {
		t.Fatal(err)
	}
	defer broker.Close()
	for i, expr := range []string{
		"x in [0, 40] && y in [0, 40]",
		"x in [20, 60] && y in [20, 60]",
		"x in [50, 90] && y in [0, 30]",
		"x in [10, 30] && y in [50, 80]",
	} {
		if err := broker.SubscribeExpr(drtree.ProcID(i+1), expr); err != nil {
			t.Fatal(err)
		}
	}
	if st := broker.Repair(); !st.Converged {
		t.Fatalf("broker overlay did not stabilize: %+v", st)
	}
	n, err := broker.Publish(1, drtree.Event{"x": 25, "y": 25})
	if err != nil {
		t.Fatal(err)
	}
	if len(n.FalseNegatives) != 0 {
		t.Fatalf("wire broker lost subscribers: %+v", n)
	}
	if len(n.Interested) != 2 {
		t.Fatalf("want subscribers 1 and 2 interested: %+v", n)
	}
}

// TestFacadeRectConstructors covers the geometry constructors.
func TestFacadeRectConstructors(t *testing.T) {
	r := drtree.R2(0, 0, 5, 5)
	if !r.ContainsPoint(drtree.Point{2, 2}) {
		t.Fatal("R2 rect must contain interior point")
	}
	nd, err := drtree.NewRect([]float64{0, 0, 0}, []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if nd.Dims() != 3 {
		t.Fatalf("Dims = %d", nd.Dims())
	}
	if _, err := drtree.NewRect([]float64{1}, []float64{0}); err == nil {
		t.Fatal("inverted bounds must error")
	}
}

// TestFacadeDeliveryLayer exercises the queue-backed subscriber surface
// through the public API: SubscribeFunc with options, SubscribeChan,
// queue depth, delivery stats and the producer sentinel.
func TestFacadeDeliveryLayer(t *testing.T) {
	space, err := drtree.NewSpace("x")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := drtree.Open(drtree.WithFanout(2, 4))
	if err != nil {
		t.Fatal(err)
	}
	broker, err := drtree.NewBroker(space, eng, drtree.WithGateways(2))
	if err != nil {
		t.Fatal(err)
	}
	defer broker.Close()

	var delivered atomic.Uint64
	err = broker.SubscribeFunc(1, drtree.Range("x", 0, 10),
		func(e drtree.Envelope) error { delivered.Add(1); return nil },
		drtree.WithQueueDepth(drtree.DefaultQueueDepth))
	if err != nil {
		t.Fatal(err)
	}
	ch, err := broker.SubscribeChan(2, drtree.Range("x", 0, 10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := broker.Publish(1, drtree.Event{"x": 5}); err != nil {
		t.Fatal(err)
	}
	select {
	case e := <-ch:
		if e.Seq != 1 || e.Point[0] != 5.0 {
			t.Fatalf("channel envelope %+v", e)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no channel delivery through the facade")
	}
	deadline := time.Now().Add(10 * time.Second)
	for delivered.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("no handler delivery through the facade")
		}
		time.Sleep(time.Millisecond)
	}
	st, ok := broker.DeliveryStatsOf(1)
	if !ok || st.Delivered != 1 || st.Capacity != drtree.DefaultQueueDepth {
		t.Fatalf("DeliveryStatsOf(1) = %+v, %v", st, ok)
	}
	if all := broker.DeliveryStats(); len(all) != 2 {
		t.Fatalf("DeliveryStats lists %d subscribers, want 2", len(all))
	}
	if _, err := broker.Publish(42, drtree.Event{"x": 5}); !errors.Is(err, drtree.ErrProducerNotRegistered) {
		t.Fatalf("unregistered producer: %v, want drtree.ErrProducerNotRegistered", err)
	}
}

// TestFacadeDurableBroker exercises the durable control plane through
// the public surface only: a WAL-backed broker journals subscriptions,
// a second broker over the same directory recovers them, and a consumer
// re-attaches by ID.
func TestFacadeDurableBroker(t *testing.T) {
	dir := t.TempDir()
	space, err := drtree.NewSpace("x", "y")
	if err != nil {
		t.Fatal(err)
	}
	store, err := drtree.OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := drtree.Open(drtree.WithFanout(2, 4))
	if err != nil {
		t.Fatal(err)
	}
	broker, err := drtree.NewBroker(space, eng, drtree.WithStore(store), drtree.WithSnapshotEvery(1000))
	if err != nil {
		t.Fatal(err)
	}
	if err := broker.SubscribeExpr(1, "x in [0, 10] && y in [0, 10]"); err != nil {
		t.Fatal(err)
	}
	if err := broker.SubscribeExpr(2, "x in [5, 20] && y in [5, 20]"); err != nil {
		t.Fatal(err)
	}
	broker.Close()
	store.Close()

	reopened, err := drtree.OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	var st drtree.StoreStats = reopened.Stats()
	if st.Records != 2 {
		t.Fatalf("reopened store has %d records, want 2", st.Records)
	}
	eng2, err := drtree.Open(drtree.WithFanout(2, 4))
	if err != nil {
		t.Fatal(err)
	}
	b2, err := drtree.NewBroker(space, eng2, drtree.WithStore(reopened))
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	var rs drtree.RecoverStats
	if rs, err = b2.Recover(); err != nil {
		t.Fatal(err)
	}
	if rs.Subscribers != 2 {
		t.Fatalf("recovered %d subscribers, want 2", rs.Subscribers)
	}
	ch, err := b2.AttachChan(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b2.Publish(2, drtree.Event{"x": 7, "y": 7}); err != nil {
		t.Fatal(err)
	}
	select {
	case e := <-ch:
		if e.Point[0] != 7 {
			t.Fatalf("delivered %+v", e)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("re-attached subscriber never received the event")
	}

	// The in-memory store satisfies the same seam.
	var mem drtree.Store = drtree.NewMemStore()
	seq, err := mem.Write([]byte("x"))
	if err == nil {
		err = mem.Sync(seq)
	}
	if err != nil {
		t.Fatal(err)
	}
}
