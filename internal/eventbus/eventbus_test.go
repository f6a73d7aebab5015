package eventbus

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConfigValidation covers New's error path.
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config[int]{Capacity: 0}); err == nil {
		t.Error("zero capacity must be rejected")
	}
}

// TestDropOldestKeepsNewest: overflowing a ring sheds from the front,
// so the consumer sees the newest messages in order, each exactly once.
func TestDropOldestKeepsNewest(t *testing.T) {
	q, err := New(Config[int]{Capacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 6; i++ {
		if err := q.Enqueue(i); err != nil {
			t.Fatal(err)
		}
	}
	st := q.Stats()
	if st.Enqueued != 6 || st.Dropped != 2 || st.Depth != 4 || st.HighWater != 4 {
		t.Fatalf("stats after overflow: %+v", st)
	}
	var mu sync.Mutex
	var got []int
	q.Run(func(v, attempt int) error {
		mu.Lock()
		got = append(got, v)
		mu.Unlock()
		if attempt != 1 {
			t.Errorf("attempt = %d, Run always passes 1", attempt)
		}
		return nil
	})
	waitFor(t, "4 deliveries", func() bool { return q.Stats().Delivered == 4 })
	mu.Lock()
	defer mu.Unlock()
	if fmt.Sprint(got) != "[3 4 5 6]" {
		t.Fatalf("delivered %v, want the newest four in order", got)
	}
}

// TestCloseShedsBacklogAndStopsEnqueue covers close-before-Run,
// idempotent Close, and Enqueue-after-Close.
func TestCloseShedsBacklogAndStopsEnqueue(t *testing.T) {
	q, err := New(Config[int]{Capacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := q.Enqueue(i); err != nil {
			t.Fatal(err)
		}
	}
	q.Close()
	q.Close()
	select {
	case <-q.Done():
	default:
		t.Fatal("Done must be closed immediately when Run never started")
	}
	if err := q.Enqueue(9); !errors.Is(err, ErrClosed) {
		t.Fatalf("Enqueue after Close = %v, want ErrClosed", err)
	}
	if st := q.Stats(); st.Dropped != 3 || st.Depth != 0 {
		t.Fatalf("backlog not shed at close: %+v", st)
	}
	q.Run(func(v, attempt int) error { return nil }) // no-op on closed queue
}

// TestCloseReleasesDrainer: a running drainer exits promptly at Close
// and sheds whatever is still queued.
func TestCloseReleasesDrainer(t *testing.T) {
	q, err := New(Config[int]{Capacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	q.Run(func(v, attempt int) error { return nil })
	q.Close()
	select {
	case <-q.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("drainer did not exit after Close")
	}
}

// TestConcurrentProducers hammers one queue from many producers under
// the race detector: every message is either delivered or accounted as
// dropped, never lost silently.
func TestConcurrentProducers(t *testing.T) {
	q, err := New(Config[int]{Capacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	var delivered atomic.Int64
	q.Run(func(v, attempt int) error {
		delivered.Add(1)
		return nil
	})
	const producers, perProducer = 8, 500
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if err := q.Enqueue(i); err != nil {
					t.Errorf("enqueue: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	const total = uint64(producers * perProducer)
	// Dropped is final once the producers are done; Delivered settles
	// when the drainer finishes the backlog.
	waitFor(t, "quiesce", func() bool {
		st := q.Stats()
		return st.Delivered+st.Dropped == total
	})
	st := q.Stats()
	if st.Enqueued != total || uint64(delivered.Load()) != st.Delivered {
		t.Fatalf("accounting broken: delivered=%d stats=%+v total=%d", delivered.Load(), st, total)
	}
	q.Close()
}
