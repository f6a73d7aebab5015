package pubsub

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"drtree/internal/core"
	"drtree/internal/filter"
)

// waitUntil polls cond until it holds or a generous deadline expires.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func newDeliveryBroker(t *testing.T, gws int) *Broker {
	t.Helper()
	b, err := newCore(filter.MustSpace("x"), core.Params{MinFanout: 2, MaxFanout: 4}, WithGateways(gws))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return b
}

// TestSubscribeFuncDelivers: matching events reach the handler with
// consecutive sequence numbers; non-matching events do not.
func TestSubscribeFuncDelivers(t *testing.T) {
	b := newDeliveryBroker(t, 1)
	var mu sync.Mutex
	var got []Envelope
	h := func(e Envelope) error {
		mu.Lock()
		got = append(got, e)
		mu.Unlock()
		return nil
	}
	if err := b.SubscribeFunc(1, filter.Range("x", 0, 10), h); err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{5, 50, 7} {
		if _, err := b.Publish(1, filter.Event{"x": x}); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "two deliveries", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 2
	})
	mu.Lock()
	defer mu.Unlock()
	for i, e := range got {
		if e.Seq != uint64(i+1) {
			t.Fatalf("envelope %d: %+v", i, e)
		}
	}
	if got[0].Point[0] != 5.0 || got[1].Point[0] != 7.0 {
		t.Fatalf("delivered events %v", got)
	}
	st, ok := b.DeliveryStatsOf(1)
	if !ok || st.Delivered != 2 || st.Enqueued != 2 || st.Dropped != 0 {
		t.Fatalf("DeliveryStatsOf(1) = %+v, %v", st, ok)
	}
}

// TestSubscribeChanDelivers: the channel variant carries matching
// events and closes on Unsubscribe.
func TestSubscribeChanDelivers(t *testing.T) {
	b := newDeliveryBroker(t, 1)
	ch, err := b.SubscribeChan(1, filter.Range("x", 0, 10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Publish(1, filter.Event{"x": 3}); err != nil {
		t.Fatal(err)
	}
	select {
	case e := <-ch:
		if e.Seq != 1 || e.Point[0] != 3.0 {
			t.Fatalf("envelope %+v", e)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no delivery on the subscription channel")
	}
	if err := b.Unsubscribe(1); err != nil {
		t.Fatal(err)
	}
	select {
	case _, open := <-ch:
		if open {
			t.Fatal("channel delivered after Unsubscribe")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("channel not closed by Unsubscribe")
	}
}

// TestDeliveryOptionValidation covers the option and argument guards.
func TestDeliveryOptionValidation(t *testing.T) {
	b := newDeliveryBroker(t, 1)
	h := func(Envelope) error { return nil }
	f := filter.Range("x", 0, 10)
	if err := b.SubscribeFunc(1, f, nil); err == nil {
		t.Error("nil handler must be rejected")
	}
	if err := b.SubscribeFunc(1, f, h, WithQueueDepth(0)); err == nil {
		t.Error("zero queue depth must be rejected")
	}
	if _, err := b.SubscribeChan(1, f, WithQueueDepth(-1)); err == nil {
		t.Error("negative queue depth must be rejected")
	}
	if err := b.SubscribeFunc(0, f, h); err == nil {
		t.Error("non-positive subscriber ID must be rejected")
	}
	// A rejected registration must not leave delivery state behind.
	if st := b.DeliveryStats(); len(st) != 0 {
		t.Errorf("DeliveryStats after rejected registrations: %+v", st)
	}
	// Record-only subscribers have no queue.
	if err := b.Subscribe(7, f); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.DeliveryStatsOf(7); ok {
		t.Error("record-only subscriber reported delivery stats")
	}
}

// TestBrokerCloseClosesQueues: Close sheds backlogs and closes
// subscription channels without waiting on any consumer.
func TestBrokerCloseClosesQueues(t *testing.T) {
	b, err := newCore(filter.MustSpace("x"), core.Params{MinFanout: 2, MaxFanout: 4}, WithGateways(2))
	if err != nil {
		t.Fatal(err)
	}
	ch, err := b.SubscribeChan(1, filter.Range("x", 0, 10))
	if err != nil {
		t.Fatal(err)
	}
	// A channel subscriber nobody reads: its drainer parks on the send.
	if err := b.SubscribeFunc(2, filter.Range("x", 0, 10), func(Envelope) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Publish(1, filter.Event{"x": 5}); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		b.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close blocked on a consumer")
	}
	waitUntil(t, "channel close", func() bool {
		select {
		case _, open := <-ch:
			return !open
		default:
			return false
		}
	})
}

// TestFrozenConsumerNeverBlocksPublish is the tentpole's load-bearing
// guarantee: a consumer that never returns costs publishers nothing.
// The same publish load runs twice — all-fast, then with one frozen
// subscriber added — and the publishers' wall-clock must stay within a
// generous factor of the baseline while the frozen subscriber's losses
// are visible in DeliveryStats.
func TestFrozenConsumerNeverBlocksPublish(t *testing.T) {
	const (
		publishers = 4
		batches    = 25
		batchLen   = 4
		events     = publishers * batches * batchLen
	)
	run := func(frozen bool) (elapsed time.Duration, b *Broker, delivered []*atomic.Uint64) {
		b = newDeliveryBroker(t, 4)
		delivered = make([]*atomic.Uint64, publishers)
		for i := 1; i <= publishers; i++ {
			n := &atomic.Uint64{}
			delivered[i-1] = n
			err := b.SubscribeFunc(core.ProcID(i), filter.Range("x", 0, 100),
				func(Envelope) error { n.Add(1); return nil },
				WithQueueDepth(events))
			if err != nil {
				t.Fatal(err)
			}
		}
		if frozen {
			release := make(chan struct{})
			t.Cleanup(func() { close(release) })
			err := b.SubscribeFunc(9, filter.Range("x", 0, 100),
				func(Envelope) error { <-release; return nil },
				WithQueueDepth(8))
			if err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < publishers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				evs := make([]filter.Event, batchLen)
				for k := 0; k < batches; k++ {
					for i := range evs {
						evs[i] = filter.Event{"x": float64((w*batches + k + i) % 100)}
					}
					if _, err := b.PublishBatch(core.ProcID(w+1), evs); err != nil {
						t.Errorf("publisher %d: %v", w, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		elapsed = time.Since(start)
		return elapsed, b, delivered
	}

	base, bb, baseDelivered := run(false)
	for i, n := range baseDelivered {
		waitUntil(t, "baseline fast consumer drain", func() bool { return n.Load() == events })
		_ = i
	}
	bb.Close()

	frozenElapsed, fb, fastDelivered := run(true)
	// Publisher latency within noise of the baseline: a generous bound
	// (an order of magnitude plus a constant) that still catches the
	// pre-fix behaviour of blocking on the frozen callback forever.
	if limit := base*10 + 2*time.Second; frozenElapsed > limit {
		t.Fatalf("publishing took %v with a frozen consumer, baseline %v (limit %v)", frozenElapsed, base, limit)
	}
	t.Logf("publish wall-time for %d events: %v all-fast baseline, %v with a frozen consumer", events, base, frozenElapsed)
	// Fast consumers still see every event.
	for i, n := range fastDelivered {
		waitUntil(t, "fast consumer drain beside frozen peer", func() bool { return n.Load() == events })
		_ = i
	}
	// The frozen subscriber's losses are visible, bounded by its queue.
	st, ok := fb.DeliveryStatsOf(9)
	if !ok {
		t.Fatal("no delivery stats for the frozen subscriber")
	}
	// One envelope is in the frozen handler, at most QueueDepth are
	// queued; everything else must have been shed.
	if wantMin := uint64(events - 8 - 1); st.Dropped < wantMin {
		t.Fatalf("frozen subscriber Dropped = %d, want >= %d (stats %+v)", st.Dropped, wantMin, st)
	}
	if st.Depth > 8 {
		t.Fatalf("frozen subscriber Depth = %d exceeds its capacity 8", st.Depth)
	}
	var aggDropped uint64
	var aggDepth int
	for _, g := range fb.GatewayStats() {
		aggDropped += g.Dropped
		aggDepth += g.QueueDepth
	}
	if aggDropped < st.Dropped {
		t.Fatalf("gateway aggregate Dropped = %d < subscriber's %d", aggDropped, st.Dropped)
	}
	if aggDepth < st.Depth {
		t.Fatalf("gateway aggregate QueueDepth = %d < subscriber's %d", aggDepth, st.Depth)
	}
}

// TestOutboxOneFlushPerBurst: the subscribers of an outbox are served
// on one goroutine — a batch matching all of them is handed over and
// flushed once, a lone event is flushed at once — with per-subscriber
// Seq, stats and options intact; and a flush that never returns stalls
// only them: their queues shed, publishers and a subscriber outside the
// outbox carry on.
func TestOutboxOneFlushPerBurst(t *testing.T) {
	b := newDeliveryBroker(t, 2)
	var (
		mu      sync.Mutex
		pending []Envelope   // appended by handlers, taken by flush
		flushes [][]Envelope // what each flush carried
		freeze  = make(chan struct{})
		stuck   = make(chan struct{}, 1) // a frozen flush announces itself
		handed  atomic.Int64             // envelopes handed to h so far
		// freezeAt arms the flush to block once this many envelopes have
		// been handed over (0: never).
		freezeAt atomic.Int64
	)
	ob := b.NewOutbox(func() {
		if n := freezeAt.Load(); n > 0 && handed.Load() >= n {
			stuck <- struct{}{}
			<-freeze
		}
		mu.Lock()
		flushes, pending = append(flushes, pending), nil
		mu.Unlock()
	})
	defer ob.Close()
	defer close(freeze)
	all := filter.Range("x", 0, 10)
	h := func(e Envelope) error {
		mu.Lock()
		pending = append(pending, e)
		mu.Unlock()
		handed.Add(1)
		return nil
	}
	bt := b.NewBatch()
	for id := core.ProcID(1); id <= 3; id++ {
		if err := ob.SubscribeFunc(bt, id, all, h, WithQueueDepth(4)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ob.SubscribeFunc(bt, 3, all, h); err == nil {
		t.Fatal("duplicate id must be refused through an outbox too")
	}
	if err := bt.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := ob.AttachFunc(9, h); err == nil {
		t.Fatal("attach of an unknown id must be refused through an outbox too")
	}
	var outside atomic.Int64
	if err := b.SubscribeFunc(4, all, func(Envelope) error { outside.Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	flushed := func() (n int) {
		mu.Lock()
		defer mu.Unlock()
		for _, f := range flushes {
			n += len(f)
		}
		return n
	}

	// One batch: 3 events x 3 subscribers are enqueued before the
	// publisher returns to us, so they leave in far fewer flushes than
	// envelopes (one, unless the drainer got ahead of the publisher).
	if _, err := b.PublishBatch(1, []filter.Event{{"x": 1}, {"x": 2}, {"x": 3}}); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "burst flushed", func() bool { return flushed() == 9 })
	mu.Lock()
	if len(flushes) >= 9 {
		t.Errorf("9 envelopes left in %d flushes: nothing was coalesced", len(flushes))
	}
	mu.Unlock()
	// A lone event does not wait for company.
	if _, err := b.Publish(1, filter.Event{"x": 50}); err != nil { // matches nobody
		t.Fatal(err)
	}
	before := flushed()
	if _, err := b.Publish(2, filter.Event{"x": 4}); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "lone event flushed", func() bool { return flushed() == before+3 })
	for id := core.ProcID(1); id <= 3; id++ {
		if st, _ := b.DeliveryStatsOf(id); st.Delivered != 4 || st.Dropped != 0 || st.Capacity != 4 {
			t.Fatalf("subscriber %d: %+v, want 4 delivered through a 4-slot queue", id, st)
		}
	}

	// A flush that blocks is the outbox's own problem. The publish
	// enqueues its event to the three subscribers one at a time, and the
	// drainer may run dry and flush between them: the flush blocks only
	// once all three envelopes have been handed over.
	freezeAt.Store(handed.Load() + 3)
	if _, err := b.Publish(1, filter.Event{"x": 5}); err != nil {
		t.Fatal(err)
	}
	<-stuck
	start := time.Now()
	for i := 0; i < 50; i++ {
		if _, err := b.Publish(1, filter.Event{"x": 5}); err != nil {
			t.Fatal(err)
		}
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("50 publishes took %v beside a frozen outbox", d)
	}
	waitUntil(t, "outside subscriber served", func() bool { return outside.Load() == 55 })
	for id := core.ProcID(1); id <= 3; id++ {
		if st, _ := b.DeliveryStatsOf(id); st.Delivered != 5 || st.Dropped != 46 || st.Depth != 4 {
			t.Fatalf("subscriber %d behind a frozen flush: %+v, want 5 delivered, 46 shed, a full queue", id, st)
		}
	}
	// Unsubscribe never waits for the frozen drainer.
	if err := b.Unsubscribe(2); err != nil {
		t.Fatal(err)
	}
}
