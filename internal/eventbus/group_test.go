package eventbus

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// heldGroup starts a group whose drainer is parked inside the callback
// of a gate queue until release is called, so a test can arrange
// backlogs and ready-list order before anything else is served.
func heldGroup(t *testing.T, idle func()) (g *Group[int], release func()) {
	t.Helper()
	g = NewGroup[int](idle)
	t.Cleanup(func() {
		g.Close()
		<-g.Done()
	})
	gate := mustQueue(t, Config[int]{Capacity: 1})
	entered, open := make(chan struct{}), make(chan struct{})
	g.Add(gate, func(int) error {
		close(entered)
		<-open
		return nil
	})
	if err := gate.Enqueue(0); err != nil {
		t.Fatal(err)
	}
	<-entered
	return g, func() { close(open) }
}

func mustQueue[T any](t *testing.T, cfg Config[T]) *Queue[T] {
	t.Helper()
	q, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestGroupFairness: a queue with a 10 000-message backlog is served
// one budget at a time, so a group-mate's first message waits for at
// most visitBudget of its callbacks.
func TestGroupFairness(t *testing.T) {
	const backlog = 10000
	g, release := heldGroup(t, nil)
	hot := mustQueue(t, Config[int]{Capacity: backlog})
	cold := mustQueue(t, Config[int]{Capacity: 4})
	var hotBeforeCold, hotDelivered atomic.Int64
	coldSeen := make(chan struct{})
	g.Add(hot, func(int) error {
		hotDelivered.Add(1)
		return nil
	})
	g.Add(cold, func(int) error {
		hotBeforeCold.Store(hotDelivered.Load())
		close(coldSeen)
		return nil
	})
	for i := 0; i < backlog; i++ {
		if err := hot.Enqueue(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := cold.Enqueue(1); err != nil {
		t.Fatal(err)
	}
	release()
	<-coldSeen
	if got := hotBeforeCold.Load(); got != visitBudget {
		t.Fatalf("the cold queue's message waited for %d hot deliveries, want exactly one budget (%d)", got, visitBudget)
	}
	waitFor(t, "backlog drained", func() bool { return hot.Stats().Delivered == backlog })
}

// TestGroupIdleOncePerBurst: idle runs once after each burst — however
// many queues and messages it spans — only when nothing is ready, and a
// lone message gets its own idle call at once.
func TestGroupIdleOncePerBurst(t *testing.T) {
	var g *Group[int]
	var idles, delivered atomic.Int64
	var qs []*Queue[int]
	idle := func() {
		idles.Add(1)
		g.mu.Lock()
		ready := len(g.ready)
		g.mu.Unlock()
		if ready != 0 {
			t.Errorf("idle called with %d queues ready", ready)
		}
		for _, q := range qs {
			if d := q.Stats().Depth; d != 0 {
				t.Errorf("idle called with %d messages still queued", d)
			}
		}
	}
	var release func()
	g, release = heldGroup(t, idle)
	for i := 0; i < 3; i++ {
		q := mustQueue(t, Config[int]{Capacity: 128})
		g.Add(q, func(int) error {
			delivered.Add(1)
			return nil
		})
		qs = append(qs, q)
	}
	// 3 queues x 100 messages: several visits each (budget 32), one burst.
	for i := 0; i < 100; i++ {
		for _, q := range qs {
			if err := q.Enqueue(i); err != nil {
				t.Fatal(err)
			}
		}
	}
	release()
	waitFor(t, "first burst idle", func() bool { return idles.Load() == 1 })
	if delivered.Load() != 300 {
		t.Fatalf("idle ran after %d of 300 deliveries", delivered.Load())
	}
	if err := qs[1].Enqueue(7); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "lone message idle", func() bool { return idles.Load() == 2 })
	if delivered.Load() != 301 {
		t.Fatalf("delivered %d, want 301", delivered.Load())
	}
	time.Sleep(20 * time.Millisecond)
	if idles.Load() != 2 {
		t.Fatalf("idle ran %d times with no work in between, want 2", idles.Load())
	}
}

// TestGroupCloseQueue: a queue closed while parked is finalized at once
// (Done closes, its backlog is counted dropped); one closed while its
// callback is in flight is finalized by the drainer when the callback
// returns; neither disturbs the group's other queues.
func TestGroupCloseQueue(t *testing.T) {
	g, release := heldGroup(t, nil)
	parked := mustQueue(t, Config[int]{Capacity: 8})
	g.Add(parked, func(int) error {
		t.Error("a queue closed before its turn must not be delivered")
		return nil
	})
	for i := 0; i < 3; i++ {
		parked.Enqueue(i)
	}
	parked.Close()
	select {
	case <-parked.Done():
	default:
		t.Fatal("Done must close at Close while no callback is in flight")
	}
	if st := parked.Stats(); st.Dropped != 3 || st.Depth != 0 {
		t.Fatalf("parked close: %+v, want the 3 queued messages dropped", st)
	}

	busy := mustQueue(t, Config[int]{Capacity: 8})
	entered, finish := make(chan struct{}), make(chan struct{})
	g.Add(busy, func(v int) error {
		if v == 0 {
			close(entered)
			<-finish
		}
		return nil
	})
	for i := 0; i < 3; i++ {
		busy.Enqueue(i)
	}
	release()
	<-entered
	busy.Close()
	select {
	case <-busy.Done():
		t.Fatal("Done closed while the callback was still in flight")
	case <-time.After(20 * time.Millisecond):
	}
	if err := busy.Enqueue(9); !errors.Is(err, ErrClosed) {
		t.Fatalf("Enqueue after Close = %v, want ErrClosed", err)
	}
	close(finish)
	select {
	case <-busy.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("the drainer did not finalize the queue closed in service")
	}
	if st := busy.Stats(); st.Delivered != 1 || st.Dropped != 2 {
		t.Fatalf("in-service close: %+v, want 1 delivered, 2 dropped", st)
	}

	// The drainer moved on: a third queue of the group still delivers.
	live := mustQueue(t, Config[int]{Capacity: 8})
	got := make(chan int, 1)
	g.Add(live, func(v int) error { got <- v; return nil })
	live.Enqueue(42)
	select {
	case v := <-got:
		if v != 42 {
			t.Fatalf("got %d", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("group stopped delivering after its queues closed")
	}
}

// TestGroupHandlerErrorNotRetried: a callback error counts as Failed
// and the message is done — the next one is delivered, nothing is
// handed over twice.
func TestGroupHandlerErrorNotRetried(t *testing.T) {
	g := NewGroup[string](nil)
	defer func() { g.Close(); <-g.Done() }()
	q := mustQueue(t, Config[string]{Capacity: 8})
	var mu sync.Mutex
	var seen []string
	g.Add(q, func(m string) error {
		mu.Lock()
		seen = append(seen, m)
		mu.Unlock()
		if m == "nack" {
			return errors.New("nack")
		}
		return nil
	})
	for _, m := range []string{"nack", "fine"} {
		if err := q.Enqueue(m); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "queue settled", func() bool {
		st := q.Stats()
		return st.Delivered+st.Failed == 2
	})
	mu.Lock()
	defer mu.Unlock()
	if fmt.Sprint(seen) != "[nack fine]" {
		t.Errorf("handed over %v, want [nack fine]", seen)
	}
	if st := q.Stats(); st.Delivered != 1 || st.Failed != 1 || st.Dropped != 0 || st.Depth != 0 {
		t.Errorf("stats: %+v, want 1 delivered, 1 failed, none dropped or left", st)
	}
}

// TestGroupCloseLeavesQueues: closing a group ends its goroutine and
// nothing else — its queues keep accepting (and shedding) without ever
// blocking a producer, and close normally afterwards. Run's group of
// one ends with its queue.
func TestGroupCloseLeavesQueues(t *testing.T) {
	before := runtime.NumGoroutine()
	g := NewGroup[int](func() {})
	var qs []*Queue[int]
	for i := 0; i < 4; i++ {
		q := mustQueue(t, Config[int]{Capacity: 4})
		g.Add(q, func(int) error { return nil })
		qs = append(qs, q)
	}
	g.Close()
	g.Close()
	<-g.Done()
	for _, q := range qs {
		for i := 0; i < 10; i++ {
			if err := q.Enqueue(i); err != nil {
				t.Fatalf("enqueue on a queue of a closed group: %v", err)
			}
		}
		if st := q.Stats(); st.Depth != 4 || st.Dropped != 6 {
			t.Fatalf("undrained queue: %+v, want depth 4, 6 shed", st)
		}
		q.Close()
		select {
		case <-q.Done():
		default:
			t.Fatal("Done must close at Close on a queue nobody drains")
		}
	}
	solo := mustQueue(t, Config[int]{Capacity: 4})
	solo.Run(func(int, int) error { return nil })
	solo.Enqueue(1)
	waitFor(t, "solo delivery", func() bool { return solo.Stats().Delivered == 1 })
	solo.Close()
	late := mustQueue(t, Config[int]{Capacity: 4})
	late.Close()
	late.Run(func(int, int) error { return nil }) // no-op, and no goroutine left behind
	waitFor(t, "drainer goroutines gone", func() bool { return runtime.NumGoroutine() <= before })
}

// TestGroupConcurrentProducers hammers one group from many producers
// under the race detector while queues close underneath them: every
// message is delivered or accounted dropped, and idle never overlaps a
// callback.
func TestGroupConcurrentProducers(t *testing.T) {
	const queues, producers, perProducer = 6, 4, 400
	var inCallback, overlaps, idles atomic.Int64
	g := NewGroup[int](func() {
		if inCallback.Load() != 0 {
			overlaps.Add(1)
		}
		idles.Add(1)
	})
	defer func() { g.Close(); <-g.Done() }()
	qs := make([]*Queue[int], queues)
	for i := range qs {
		qs[i] = mustQueue(t, Config[int]{Capacity: 16})
		g.Add(qs[i], func(int) error {
			inCallback.Add(1)
			defer inCallback.Add(-1)
			return nil
		})
	}
	var wg sync.WaitGroup
	var accepted [queues]atomic.Uint64
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				for qi, q := range qs {
					switch err := q.Enqueue(i); {
					case err == nil:
						accepted[qi].Add(1)
					case !errors.Is(err, ErrClosed):
						t.Errorf("enqueue: %v", err)
					}
				}
				if p == 0 && i == perProducer/2 {
					qs[0].Close() // a subscriber leaving mid-flood
				}
			}
		}()
	}
	wg.Wait()
	waitFor(t, "quiesce", func() bool {
		for _, q := range qs {
			if st := q.Stats(); st.Delivered+st.Dropped != st.Enqueued {
				return false
			}
		}
		return true
	})
	for qi, q := range qs {
		if st := q.Stats(); st.Enqueued != accepted[qi].Load() {
			t.Errorf("queue %d: enqueued %d, producers counted %d", qi, st.Enqueued, accepted[qi].Load())
		}
	}
	if overlaps.Load() != 0 || idles.Load() == 0 {
		t.Fatalf("idle ran %d times, %d of them during a callback", idles.Load(), overlaps.Load())
	}
}

// TestEvictionPreservesOrder: shedding pops the head without
// reordering the survivors, across the ring's wrap-around, and a
// message in flight has already left the ring — a full ring of three
// holds three pending messages beside it.
func TestEvictionPreservesOrder(t *testing.T) {
	q := mustQueue(t, Config[int]{Capacity: 3})
	entered, finish := make(chan struct{}), make(chan struct{})
	var order []int
	q.Run(func(v, _ int) error {
		if v == 1 {
			close(entered)
			<-finish
		}
		order = append(order, v)
		return nil
	})
	q.Enqueue(1)
	<-entered
	for v := 2; v <= 6; v++ { // 5 and 6 shed 2 and 3
		q.Enqueue(v)
	}
	if st := q.Stats(); st.Depth != 3 || st.Dropped != 2 {
		t.Fatalf("ring beside the in-flight message: %+v, want depth 3, 2 shed", st)
	}
	close(finish)
	waitFor(t, "drain", func() bool { return q.Stats().Delivered == 4 })
	if st := q.Stats(); fmt.Sprint(order) != "[1 4 5 6]" || st.Dropped != 2 {
		t.Fatalf("delivered %v with %+v, want [1 4 5 6] and two drops", order, st)
	}
}
