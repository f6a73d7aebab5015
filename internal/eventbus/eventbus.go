// Package eventbus gives each subscriber of a broker its own bounded
// delivery queue, so a slow or dead consumer can never stall producers.
// Queues are drained by a Group: one goroutine serving any number of
// queues round-robin. Queue.Run is the group of one — a dedicated
// drainer that also isolates the consumer from its siblings; queues
// that feed one sink anyway (the subscribers of one client socket)
// share a Group and its fate.
//
// A Queue is a fixed-capacity ring buffer with one delivery contract:
// Enqueue never waits — a full ring sheds its oldest message, in O(1),
// to make room — and every message is handed to the consumer callback
// at most once, on the drainer goroutine of the queue's group. A
// message is done the moment it is handed over: a callback error is
// counted, never retried.
//
// A callback that never returns pins its drainer goroutine (goroutines
// cannot be killed) and with it the other queues of the same group, but
// it cannot block anyone else: Close stops a queue immediately, Enqueue
// keeps returning without waiting, and the drainer moves on as soon as
// the callback returns.
package eventbus

import (
	"errors"
	"fmt"
	"sync"
)

// ErrClosed is returned by Enqueue after Close, and may be returned by
// a delivery callback to tell the drainer the consumer is gone.
var ErrClosed = errors.New("eventbus: queue closed")

// Config configures a Queue. T is unused by the fields; it is what New
// infers the queue's element type from.
type Config[T any] struct {
	// Capacity is the ring size (required, >= 1).
	Capacity int
}

// Stats is a point-in-time snapshot of a queue's counters.
type Stats struct {
	// Capacity is the fixed ring size.
	Capacity int
	// Depth is the number of messages currently held.
	Depth int
	// HighWater is the maximum Depth ever observed.
	HighWater int
	// Enqueued counts messages accepted into the ring.
	Enqueued uint64
	// Delivered counts messages whose callback returned nil.
	Delivered uint64
	// Dropped counts messages lost: overflow evictions and backlog
	// discarded at Close.
	Dropped uint64
	// Failed counts messages whose callback returned an error.
	Failed uint64
}

// Queue is a bounded single-consumer delivery queue. Enqueue is safe
// for concurrent use; a queue is drained by at most one Group (Run or
// Group.Add, once).
type Queue[T any] struct {
	mu      sync.Mutex
	buf     []T
	head, n int
	closed  bool
	st      Stats

	g       *Group[T] // the drainer serving this queue; nil until Run/Add
	deliver func(T) error
	solo    bool // g was made by Run and ends with this queue
	listed  bool // on g's ready list (or being served): Enqueue need not announce
	serving bool // the drainer is inside serve; it finalizes a Close

	stop chan struct{} // closed by Close: releases blocked callbacks
	done chan struct{} // closed once closed and no callback is in flight
}

// New builds a queue. Nothing is delivered until Run or Group.Add.
func New[T any](cfg Config[T]) (*Queue[T], error) {
	if cfg.Capacity < 1 {
		return nil, fmt.Errorf("eventbus: capacity must be >= 1, got %d", cfg.Capacity)
	}
	q := &Queue[T]{
		buf:  make([]T, cfg.Capacity),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	q.st.Capacity = cfg.Capacity
	return q, nil
}

// Stopping is closed when Close is called. Delivery callbacks that can
// block indefinitely (e.g. a channel send to an absent consumer) should
// select on it and return ErrClosed so the drainer can move on.
func (q *Queue[T]) Stopping() <-chan struct{} { return q.stop }

// Done is closed once the queue is closed and its callback will not run
// again: at Close, unless a delivery is in flight — then when that
// callback returns. A callback that never returns keeps Done open.
func (q *Queue[T]) Done() <-chan struct{} { return q.done }

// Stats returns a snapshot of the queue's counters.
func (q *Queue[T]) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := q.st
	st.Depth = q.n
	return st
}

// Enqueue offers a message to the queue; a full ring first sheds its
// oldest message. It never waits on the consumer and returns ErrClosed
// after Close. A shed message is accounted in Stats, never an error.
func (q *Queue[T]) Enqueue(v T) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	if q.n == len(q.buf) {
		q.st.Dropped++
		q.popHead()
	}
	q.buf[(q.head+q.n)%len(q.buf)] = v
	q.n++
	q.st.Enqueued++
	if q.n > q.st.HighWater {
		q.st.HighWater = q.n
	}
	q.announce()
	return nil
}

// announce puts a non-empty queue on its group's ready list unless it
// is there already. The caller holds q.mu.
func (q *Queue[T]) announce() {
	if q.g != nil && !q.listed {
		q.listed = true
		q.g.push(q)
	}
}

// popHead removes and returns the oldest message. The caller holds
// q.mu and has checked q.n > 0.
func (q *Queue[T]) popHead() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return v
}

// Run gives the queue a drainer of its own — a Group of one that ends
// when the queue closes: messages are handed to deliver in FIFO order.
// The attempt argument is always 1 (every message is delivered at most
// once). A queue is run or added to a group at most once; Run is a
// no-op on a closed queue.
func (q *Queue[T]) Run(deliver func(v T, attempt int) error) {
	g := NewGroup[T](nil)
	if !g.add(q, func(v T) error { return deliver(v, 1) }, true) {
		g.Close()
	}
}

// serve hands up to budget messages to the callback and reports whether
// the queue still has work (it then stays listed and the drainer puts
// it back at the tail of the ready list). The callback always runs
// unlocked, so a frozen consumer holds no queue state hostage: enqueues
// keep being accepted (and shed when full) while it sits in the
// callback.
func (q *Queue[T]) serve(budget int) (more bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.serving = true
	for ; budget > 0 && q.n > 0 && !q.closed; budget-- {
		v := q.popHead()
		q.mu.Unlock()
		err := q.deliver(v)
		q.mu.Lock()
		if err != nil {
			q.st.Failed++
		} else {
			q.st.Delivered++
		}
	}
	q.serving = false
	if q.closed {
		q.finalize()
	}
	q.listed = q.n > 0
	return q.listed
}

// finalize sheds the backlog of a closed queue — nobody is left to
// consume it — and releases Done. Idempotent. The caller holds q.mu.
func (q *Queue[T]) finalize() {
	if q.buf == nil {
		return
	}
	q.st.Dropped += uint64(q.n)
	q.n = 0
	q.buf = nil
	close(q.done)
}

// Close stops the queue: pending and future messages are shed, and no
// callback starts after Close returns (one already in flight finishes;
// see Done). Close is idempotent and never waits on the consumer.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	close(q.stop)
	if !q.serving {
		q.finalize()
	}
	if q.solo {
		q.g.Close()
	}
}

// visitBudget is the number of messages the drainer takes from one
// queue before it moves to the next ready one, so a subscriber with a
// deep backlog delays a group-mate's first message by at most this many
// callbacks.
const visitBudget = 32

// Group drains any number of queues on one goroutine. A queue that
// becomes non-empty puts itself on the group's ready list; the drainer
// serves the ready queues round-robin, visitBudget messages a visit,
// with exactly the per-queue delivery semantics of a dedicated drainer.
// Each time the ready list runs empty after work was done the drainer
// calls idle — the place to flush what the callbacks batched.
//
// The queues of a group share one fate: a callback (or idle) that
// blocks stalls them all. Their capacities and counters stay their
// own, and a full queue sheds, so producers are never stalled.
type Group[T any] struct {
	idle func()

	mu     sync.Mutex
	wake   *sync.Cond
	ready  []*Queue[T] // FIFO; an open queue appears at most once (Queue.listed)
	parked bool        // the drainer is waiting on wake
	closed bool

	done chan struct{} // closed when the drainer has exited
}

// NewGroup starts a group's drainer. idle may be nil.
func NewGroup[T any](idle func()) *Group[T] {
	g := &Group[T]{idle: idle, done: make(chan struct{})}
	g.wake = sync.NewCond(&g.mu)
	go g.drain()
	return g
}

// Add makes the group the drainer of q, handing its messages to
// deliver. It panics if q already has a drainer; adding a closed queue
// is a no-op.
func (g *Group[T]) Add(q *Queue[T], deliver func(v T) error) {
	g.add(q, deliver, false)
}

// add reports whether q was open and is now drained by g; solo makes
// q.Close close g as well.
func (g *Group[T]) add(q *Queue[T], deliver func(v T) error, solo bool) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.g != nil {
		panic("eventbus: queue already has a drainer")
	}
	if q.closed {
		return false
	}
	q.g, q.deliver, q.solo = g, deliver, solo
	if q.n > 0 {
		q.announce()
	}
	return true
}

// push appends q to the ready list, waking the drainer only if it is
// parked. Called with q.mu held (lock order: queue, then group).
func (g *Group[T]) push(q *Queue[T]) {
	g.mu.Lock()
	if !g.closed {
		g.ready = append(g.ready, q)
		if g.parked {
			g.parked = false
			g.wake.Signal()
		}
	}
	g.mu.Unlock()
}

// drain is the one consumer loop of the package. It takes the whole
// ready list at a time (the two slices swap, so a steady state
// allocates nothing) and looks at closed before every visit.
func (g *Group[T]) drain() {
	defer close(g.done)
	var batch []*Queue[T]
	next, worked := 0, false
	for {
		g.mu.Lock()
		if next == len(batch) {
			for len(g.ready) == 0 && !g.closed {
				if worked && g.idle != nil {
					worked = false
					g.mu.Unlock()
					g.idle()
					g.mu.Lock()
					continue
				}
				g.parked = true
				g.wake.Wait()
			}
			batch, g.ready, next = g.ready, batch[:0], 0
		}
		closed := g.closed
		g.mu.Unlock()
		if closed {
			return
		}
		q := batch[next]
		batch[next] = nil
		next++
		if q.serve(visitBudget) {
			g.push(q)
		}
		worked = true
	}
}

// Close stops the drainer: it exits once any callback in flight
// returns. The group's queues stay open — Enqueue keeps accepting and
// shedding — but are no longer drained; closing them is their
// owner's job. Close is idempotent and does not wait; see Done.
func (g *Group[T]) Close() {
	g.mu.Lock()
	g.closed = true
	g.parked = false
	g.wake.Signal()
	g.mu.Unlock()
}

// Done is closed once the drainer goroutine has exited.
func (g *Group[T]) Done() <-chan struct{} { return g.done }
