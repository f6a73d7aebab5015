// Consumers: the subscriber delivery layer in action. Three consumer
// styles share one broker — a slow callback behind a small queue, a
// dashboard that only wants the freshest reading, and a channel
// consumer — while a fast feed publishes hundreds of events. Every
// queue is drop-oldest: the publisher never waits on any of them, and
// the per-subscriber DeliveryStats show what each queue delivered or
// shed.
package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"sync/atomic"
	"time"

	"drtree"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "consumers:", err)
		os.Exit(1)
	}
}

func run() error {
	space, err := drtree.NewSpace("temp")
	if err != nil {
		return err
	}
	eng, err := drtree.Open(drtree.WithFanout(2, 4))
	if err != nil {
		return err
	}
	broker, err := drtree.NewBroker(space, eng, drtree.WithGateways(4))
	if err != nil {
		return err
	}
	defer broker.Close()

	// 1: a slow analytics job — 1ms per event against a feed publishing
	// far faster. Its 16-slot drop-oldest queue sheds the excess; the
	// publisher never notices.
	var analyzed atomic.Uint64
	err = broker.SubscribeFunc(1, drtree.Range("temp", 0, 100),
		func(e drtree.Envelope) error {
			time.Sleep(time.Millisecond)
			analyzed.Add(1)
			return nil
		},
		drtree.WithQueueDepth(16))
	if err != nil {
		return err
	}

	// 2: a dashboard that only cares about the latest hot readings —
	// its 4-slot queue keeps the newest events when it lags.
	var latest atomic.Uint64 // temperature, rounded
	err = broker.SubscribeFunc(2, drtree.Range("temp", 75, 100),
		func(e drtree.Envelope) error {
			time.Sleep(500 * time.Microsecond)
			latest.Store(uint64(e.Point[0])) // e.Point[i] is space.Attrs()[i]: temp
			return nil
		},
		drtree.WithQueueDepth(4))
	if err != nil {
		return err
	}

	// 3: a channel consumer counting freezer alarms, range-style.
	alarms, err := broker.SubscribeChan(3, drtree.Range("temp", 0, 5), drtree.WithQueueDepth(64))
	if err != nil {
		return err
	}
	alarmCount := make(chan int)
	go func() {
		n := 0
		for range alarms {
			n++
		}
		alarmCount <- n
	}()

	// The feed: 400 readings published in batches from producer 1.
	rng := rand.New(rand.NewPCG(2026, 8))
	const batches, batchLen = 50, 8
	start := time.Now()
	for k := 0; k < batches; k++ {
		evs := make([]drtree.Event, batchLen)
		for i := range evs {
			evs[i] = drtree.Event{"temp": rng.Float64() * 100}
		}
		if _, err := broker.PublishBatch(1, evs); err != nil {
			return err
		}
	}
	fmt.Printf("published %d events in %v (publisher unaffected by slow consumers)\n",
		batches*batchLen, time.Since(start).Round(time.Millisecond))

	// Let the queues drain what they kept, then inspect the counters.
	time.Sleep(150 * time.Millisecond)
	for _, st := range broker.DeliveryStats() {
		fmt.Printf("subscriber %d: enqueued=%d delivered=%d dropped=%d depth=%d\n",
			st.ID, st.Enqueued, st.Delivered, st.Dropped, st.Depth)
	}
	fmt.Printf("analytics processed %d readings; dashboard shows %d°\n", analyzed.Load(), latest.Load())

	if err := broker.Unsubscribe(3); err != nil { // closes the alarm channel
		return err
	}
	fmt.Printf("freezer alarms received: %d\n", <-alarmCount)
	return nil
}
