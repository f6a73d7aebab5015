package pubsub

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"drtree/internal/core"
	"drtree/internal/filter"
)

// TestConcurrentBrokerHammer drives the sharded broker from many
// goroutines at once — publishers (single and batched), subscribe/
// unsubscribe churners and readers — and relies on the race detector
// (CI runs the suite with -race) to certify the shard locking. A core
// population of pinned subscribers guarantees every publisher keeps a
// registered producer for the whole run.
func TestConcurrentBrokerHammer(t *testing.T) {
	b, err := newCore(filter.MustSpace("x", "y"), core.Params{MinFanout: 2, MaxFanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	const pinned = 8
	for i := 1; i <= pinned; i++ {
		if err := b.SubscribeExpr(core.ProcID(i), fmt.Sprintf("x in [%d, %d] && y in [0, 100]", i*5, i*5+30)); err != nil {
			t.Fatal(err)
		}
	}

	const (
		publishers = 4
		churners   = 4
		ops        = 150
	)
	var wg sync.WaitGroup
	for w := 0; w < publishers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 0xF00))
			producer := core.ProcID(1 + w%pinned)
			for k := 0; k < ops; k++ {
				ev := filter.Event{"x": rng.Float64() * 100, "y": rng.Float64() * 100}
				if k%3 == 0 {
					evs := []filter.Event{ev, {"x": rng.Float64() * 100, "y": rng.Float64() * 100}}
					if _, err := b.PublishBatch(producer, evs); err != nil {
						t.Errorf("publisher %d: batch: %v", w, err)
						return
					}
				} else {
					if _, err := b.Publish(producer, ev); err != nil {
						t.Errorf("publisher %d: %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	for w := 0; w < churners; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 0xC0))
			// Disjoint ID ranges per churner: a churner only races its own
			// subscribers' lifecycle, never another goroutine's.
			base := core.ProcID(100 + w*1000)
			for k := 0; k < ops; k++ {
				id := base + core.ProcID(k%17)
				x := rng.Float64() * 80
				if err := b.SubscribeExpr(id, fmt.Sprintf("x in [%.2f, %.2f]", x, x+15)); err == nil {
					_ = b.Len()
					if rng.IntN(4) == 0 {
						if err := b.Fail(id); err != nil {
							t.Errorf("churner %d: fail %d: %v", w, id, err)
							return
						}
					} else if err := b.Unsubscribe(id); err != nil {
						t.Errorf("churner %d: unsubscribe %d: %v", w, id, err)
						return
					}
				}
			}
		}(w)
	}
	// A publisher whose producer is churned concurrently: the
	// registered-check/engine-call race must surface as the
	// producer-not-registered sentinel, never a raw engine error.
	const churnedProducer = core.ProcID(77)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for k := 0; k < ops; k++ {
			if err := b.SubscribeExpr(churnedProducer, "x in [10, 40]"); err == nil {
				_ = b.Unsubscribe(churnedProducer)
			}
		}
	}()
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewPCG(0xD1CE, 0xF01))
		for k := 0; k < ops; k++ {
			ev := filter.Event{"x": rng.Float64() * 100, "y": rng.Float64() * 100}
			if _, err := b.PublishBatch(churnedProducer, []filter.Event{ev}); err != nil && !errors.Is(err, ErrProducerNotRegistered) {
				t.Errorf("churned producer: non-sentinel error: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	if st := b.Repair(); !st.Converged {
		t.Fatalf("overlay did not stabilize after the hammer: %v", b.Engine().CheckLegal())
	}
	if err := b.Engine().CheckLegal(); err != nil {
		t.Fatalf("illegal configuration after concurrent churn: %v", err)
	}
	if got := b.Len(); got < pinned {
		t.Fatalf("Len = %d, want >= %d pinned subscribers", got, pinned)
	}
	// After quiescence the accuracy guarantees hold again.
	n, err := b.Publish(1, filter.Event{"x": 20, "y": 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(n.FalseNegatives) != 0 {
		t.Fatalf("false negatives after quiescence: %v", n.FalseNegatives)
	}
}

// TestPublishBatchMatchesSequential certifies at the broker layer what
// enginetest certifies at the engine layer: a batch notification stream
// equals the sequential one, event for event.
func TestPublishBatchMatchesSequential(t *testing.T) {
	mk := func() *Broker {
		b, err := newCore(filter.MustSpace("x", "y"), core.Params{MinFanout: 2, MaxFanout: 4})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(7, 7))
		for i := 1; i <= 60; i++ {
			x, y := rng.Float64()*80, rng.Float64()*80
			f := filter.Range("x", x, x+15).And(filter.Range("y", y, y+15))
			if err := b.Subscribe(core.ProcID(i), f); err != nil {
				t.Fatal(err)
			}
		}
		return b
	}
	rng := rand.New(rand.NewPCG(8, 8))
	evs := make([]filter.Event, 32)
	for k := range evs {
		evs[k] = filter.Event{"x": rng.Float64() * 100, "y": rng.Float64() * 100}
	}

	seq := mk()
	var want []Notification
	for _, ev := range evs {
		n, err := seq.Publish(3, ev)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, n)
	}
	got, err := mk().PublishBatch(3, evs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("batch returned %d notifications, want %d", len(got), len(want))
	}
	for k := range got {
		if fmt.Sprint(got[k]) != fmt.Sprint(want[k]) {
			t.Errorf("event %d: batch %+v, sequential %+v", k, got[k], want[k])
		}
	}
}

// TestPublishBatchErrors covers the batch entry points' validation.
func TestPublishBatchErrors(t *testing.T) {
	b, err := newCore(filter.MustSpace("x"), core.Params{MinFanout: 2, MaxFanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	if notes, err := b.PublishBatch(1, nil); err != nil || notes != nil {
		t.Errorf("empty batch: %v, %v", notes, err)
	}
	if _, err := b.PublishBatch(1, []filter.Event{{"x": 1}}); err == nil {
		t.Error("unregistered producer must error")
	}
	if err := b.SubscribeExpr(1, "x in [0, 10]"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.PublishBatch(1, []filter.Event{{"y": 1}}); err == nil {
		t.Error("event outside the space must error")
	}
}

// TestAdversarialConsumerHammer mixes adversarial consumer speeds —
// frozen (never returns), bursty (periodic long stalls), jittery
// (random pauses), a blocked-policy fast consumer and a channel
// consumer — with concurrent publishers and subscriber churn, under the
// race detector. The broker must stay live throughout: every publish
// completes, fast consumers keep receiving, and the frozen consumer's
// losses are visible in its delivery stats.
func TestAdversarialConsumerHammer(t *testing.T) {
	b, err := newCore(filter.MustSpace("x", "y"), core.Params{MinFanout: 2, MaxFanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	release := make(chan struct{})
	defer close(release)
	wide := filter.Range("x", 0, 100).And(filter.Range("y", 0, 100))

	var fastN, burstyN, jitteryN, blockedN atomic.Uint64
	// 1: frozen — enters the handler once and never returns.
	if err := b.SubscribeFunc(1, wide, func(Envelope) error { <-release; return nil },
		WithQueueDepth(8)); err != nil {
		t.Fatal(err)
	}
	// 2: fast.
	if err := b.SubscribeFunc(2, wide, func(Envelope) error { fastN.Add(1); return nil },
		WithQueueDepth(1<<14)); err != nil {
		t.Fatal(err)
	}
	// 3: bursty — stalls hard every 32nd envelope.
	if err := b.SubscribeFunc(3, wide, func(e Envelope) error {
		if burstyN.Add(1)%32 == 0 {
			time.Sleep(3 * time.Millisecond)
		}
		return nil
	}, WithQueueDepth(64), WithOverflowPolicy(CoalesceByFilter)); err != nil {
		t.Fatal(err)
	}
	// 4: jittery — random sub-millisecond pauses, with redelivery churn.
	jrng := rand.New(rand.NewPCG(4, 4)) // only touched by 4's drainer goroutine
	if err := b.SubscribeFunc(4, wide, func(e Envelope) error {
		time.Sleep(time.Duration(jrng.IntN(200)) * time.Microsecond)
		jitteryN.Add(1)
		if e.Attempt == 1 && jrng.IntN(8) == 0 {
			return fmt.Errorf("transient consumer failure")
		}
		return nil
	}, WithQueueDepth(256), WithAtLeastOnce(2)); err != nil {
		t.Fatal(err)
	}
	// 5: fast consumer under the Block policy — the only one allowed to
	// slow a publisher, and it keeps up, so publishers still finish.
	if err := b.SubscribeFunc(5, wide, func(Envelope) error { blockedN.Add(1); return nil },
		WithQueueDepth(1<<14), WithOverflowPolicy(Block)); err != nil {
		t.Fatal(err)
	}
	// 6: channel consumer drained by its own reader.
	ch, err := b.SubscribeChan(6, wide, WithQueueDepth(1024))
	if err != nil {
		t.Fatal(err)
	}
	var chanN atomic.Uint64
	chanDone := make(chan struct{})
	go func() {
		defer close(chanDone)
		for range ch {
			chanN.Add(1)
		}
	}()

	const (
		publishers = 4
		ops        = 100
	)
	var wg sync.WaitGroup
	for w := 0; w < publishers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 0xADE))
			producer := core.ProcID(2 + w%4) // 2..5: never the frozen one
			for k := 0; k < ops; k++ {
				ev := filter.Event{"x": rng.Float64() * 100, "y": rng.Float64() * 100}
				if k%4 == 0 {
					evs := []filter.Event{ev, {"x": rng.Float64() * 100, "y": rng.Float64() * 100}}
					if _, err := b.PublishBatch(producer, evs); err != nil {
						t.Errorf("publisher %d: batch: %v", w, err)
						return
					}
				} else if _, err := b.Publish(producer, ev); err != nil {
					t.Errorf("publisher %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	// Record-only churners race the consumer lifecycle paths.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 0xC1))
			base := core.ProcID(500 + w*1000)
			for k := 0; k < ops; k++ {
				id := base + core.ProcID(k%11)
				x := rng.Float64() * 80
				if err := b.SubscribeExpr(id, fmt.Sprintf("x in [%.2f, %.2f]", x, x+15)); err == nil {
					_ = b.DeliveryStats()
					_ = b.Unsubscribe(id)
				}
			}
		}(w)
	}
	wg.Wait()

	total := uint64(publishers * ops * 5 / 4) // each publisher: ops/4 batches of 2 + 3*ops/4 singles
	waitUntil(t, "fast consumers draining", func() bool {
		return fastN.Load() == total && blockedN.Load() == total && chanN.Load() == total
	})
	frozen, ok := b.DeliveryStatsOf(1)
	if !ok || frozen.Dropped == 0 {
		t.Fatalf("frozen consumer stats = %+v (ok=%v), want visible drops", frozen, ok)
	}
	// The jittery drainer sleeps per envelope, so it lags the fast
	// consumers; give it the same bounded wait instead of a snapshot
	// (a wedged drainer still fails the deadline).
	waitUntil(t, "jittery at-least-once consumer delivering", func() bool {
		jit, _ := b.DeliveryStatsOf(4)
		return jit.Delivered > 0
	})
	if err := b.Unsubscribe(6); err != nil {
		t.Fatal(err)
	}
	<-chanDone
}
