// Package eventbus gives each subscriber of a broker its own bounded
// delivery queue, so a slow or dead consumer can never stall producers.
// Queues are drained by a Group: one goroutine serving any number of
// queues round-robin. Queue.Run is the group of one — a dedicated
// drainer that also isolates the consumer from its siblings; queues
// that feed one sink anyway (the subscribers of one client socket)
// share a Group and its fate.
//
// A Queue is a fixed-capacity ring buffer with a pluggable overflow
// Policy applied at enqueue time:
//
//   - DropOldest (the default): the oldest pending message is discarded
//     to make room — Enqueue never blocks.
//   - CoalesceByFilter: the oldest pending message with the same
//     coalescing key (Config.KeyOf) as the incoming one is replaced by
//     it — under pressure a single-filter subscriber degrades to
//     "newest events win", again without blocking.
//   - Block: Enqueue waits for space — opt-in lossless backpressure
//     that intentionally slows the producer down instead of shedding.
//
// Messages are handed to the consumer callback on the drainer goroutine
// of the queue's group. In the default at-most-once mode a message
// is done the moment it is handed over; with Config.AtLeastOnce the
// ring slot stays occupied until the callback acknowledges by returning
// nil, and a failed delivery is retried up to Config.MaxRedeliver times
// before the message is counted as dropped.
//
// A callback that never returns pins its drainer goroutine (goroutines
// cannot be killed) and with it the other queues of the same group, but
// it cannot block anyone else: Close stops a queue immediately, Enqueue
// keeps returning without waiting (except under Block), and the drainer
// moves on as soon as the callback returns.
package eventbus

import (
	"errors"
	"fmt"
	"sync"
)

// Policy selects what Enqueue does when the ring is full.
type Policy int

const (
	// DropOldest discards the oldest pending message to make room.
	DropOldest Policy = iota
	// CoalesceByFilter replaces the oldest pending message carrying the
	// same coalescing key as the incoming one (falling back to
	// DropOldest when no key matches). Requires Config.KeyOf.
	CoalesceByFilter
	// Block makes Enqueue wait until the consumer frees a slot (or the
	// queue closes). The only policy under which a producer can be
	// slowed by a consumer — strictly opt-in.
	Block
)

// String names the policy for stats and error messages.
func (p Policy) String() string {
	switch p {
	case DropOldest:
		return "drop-oldest"
	case CoalesceByFilter:
		return "coalesce-by-filter"
	case Block:
		return "block"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ErrClosed is returned by Enqueue after Close, and may be returned by
// a delivery callback to tell the drainer the consumer is gone.
var ErrClosed = errors.New("eventbus: queue closed")

// Config configures a Queue.
type Config[T any] struct {
	// Capacity is the ring size (required, >= 1).
	Capacity int
	// Policy is the overflow policy (default DropOldest).
	Policy Policy
	// KeyOf derives the coalescing key of a message. Required for
	// CoalesceByFilter, ignored otherwise.
	KeyOf func(T) string
	// AtLeastOnce keeps a message's ring slot occupied until the
	// delivery callback returns nil; a non-nil return triggers
	// redelivery. Off, a message is consumed when handed over.
	AtLeastOnce bool
	// MaxRedeliver bounds the redeliveries after the first failed
	// attempt (AtLeastOnce only): a message is dropped after
	// 1+MaxRedeliver failed attempts.
	MaxRedeliver int
}

// Stats is a point-in-time snapshot of a queue's counters.
type Stats struct {
	// Capacity is the fixed ring size.
	Capacity int
	// Depth is the number of messages currently held (including one
	// in-flight message in at-least-once mode).
	Depth int
	// HighWater is the maximum Depth ever observed.
	HighWater int
	// Enqueued counts messages accepted into the ring.
	Enqueued uint64
	// Delivered counts messages successfully handed to the consumer
	// (acknowledged, in at-least-once mode).
	Delivered uint64
	// Dropped counts messages lost: overflow evictions, redelivery
	// exhaustion, and backlog discarded at Close.
	Dropped uint64
	// Coalesced counts overflow evictions that replaced a same-key
	// message under CoalesceByFilter (not included in Dropped).
	Coalesced uint64
	// Redelivered counts delivery retries (at-least-once mode).
	Redelivered uint64
	// Failed counts delivery attempts whose callback returned an error.
	Failed uint64
	// Blocked counts Enqueue calls that had to wait (Block policy).
	Blocked uint64
}

// slot is one ring entry.
type slot[T any] struct {
	v        T
	attempts int // delivery attempts performed so far
}

// Queue is a bounded single-consumer delivery queue. Enqueue is safe
// for concurrent use; a queue is drained by at most one Group (Run or
// Group.Add, once).
type Queue[T any] struct {
	cfg Config[T]

	mu       sync.Mutex
	notFull  *sync.Cond
	buf      []slot[T]
	head, n  int
	inflight bool // head slot handed to the callback (AtLeastOnce)
	closed   bool
	st       Stats

	g       *Group[T] // the drainer serving this queue; nil until Run/Add
	deliver func(v T, attempt int) error
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
	switch cfg.Policy {
	case DropOldest, Block:
	case CoalesceByFilter:
		if cfg.KeyOf == nil {
			return nil, fmt.Errorf("eventbus: CoalesceByFilter requires a KeyOf function")
		}
	default:
		return nil, fmt.Errorf("eventbus: unknown overflow policy %v", cfg.Policy)
	}
	if cfg.MaxRedeliver < 0 {
		return nil, fmt.Errorf("eventbus: MaxRedeliver must be >= 0, got %d", cfg.MaxRedeliver)
	}
	q := &Queue[T]{
		cfg:  cfg,
		buf:  make([]slot[T], cfg.Capacity),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	q.notFull = sync.NewCond(&q.mu)
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

// Enqueue offers a message to the queue, applying the overflow policy
// when the ring is full. It never waits on the consumer except under
// the Block policy, and returns ErrClosed after Close. A message shed
// by DropOldest/CoalesceByFilter is accounted in Stats, never an error:
// shedding is the policy working as configured.
func (q *Queue[T]) Enqueue(v T) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	if q.n == len(q.buf) {
		switch q.cfg.Policy {
		case Block:
			q.st.Blocked++
			for q.n == len(q.buf) && !q.closed {
				q.notFull.Wait()
			}
			if q.closed {
				return ErrClosed
			}
		case CoalesceByFilter:
			key := q.cfg.KeyOf(v)
			if q.evictOldest(&key) {
				q.st.Coalesced++
				break
			}
			fallthrough
		default: // DropOldest
			q.st.Dropped++
			if !q.evictOldest(nil) {
				// Every slot is in flight (capacity-1 queue mid-delivery):
				// the incoming message is the one shed.
				return nil
			}
		}
	}
	q.buf[(q.head+q.n)%len(q.buf)] = slot[T]{v: v}
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

// evictOldest removes the oldest pending message — restricted to those
// carrying the given coalescing key when key is non-nil — skipping an
// in-flight head slot. It reports whether a message was evicted. The
// caller holds q.mu.
//
// The victim's slot is closed by moving the (older) slots before it up
// one place and advancing head: evicting the head itself — every
// DropOldest shed, on the publisher's goroutine — moves nothing.
func (q *Queue[T]) evictOldest(key *string) bool {
	start := 0
	if q.inflight {
		start = 1
	}
	for i := start; i < q.n; i++ {
		if key != nil && q.cfg.KeyOf(q.buf[(q.head+i)%len(q.buf)].v) != *key {
			continue
		}
		for j := i; j > 0; j-- {
			q.buf[(q.head+j)%len(q.buf)] = q.buf[(q.head+j-1)%len(q.buf)]
		}
		q.buf[q.head] = slot[T]{}
		q.head = (q.head + 1) % len(q.buf)
		q.n--
		return true
	}
	return false
}

// popHead releases the head slot. The caller holds q.mu.
func (q *Queue[T]) popHead() {
	q.buf[q.head] = slot[T]{}
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	q.notFull.Signal()
}

// Run gives the queue a drainer of its own — a Group of one that ends
// when the queue closes: messages are handed to deliver in FIFO order
// (attempt starts at 1 and counts redeliveries). A queue is run or
// added to a group at most once; Run is a no-op on a closed queue.
func (q *Queue[T]) Run(deliver func(v T, attempt int) error) {
	g := NewGroup[T](nil)
	if !g.add(q, deliver, true) {
		g.Close()
	}
}

// serve hands up to budget messages to the callback and reports whether
// the queue still has work (it then stays listed and the drainer puts
// it back at the tail of the ready list). The callback always runs
// unlocked, so a frozen consumer holds no queue state hostage: enqueues
// keep being accepted (and shed per policy) while it sits in the
// callback.
func (q *Queue[T]) serve(budget int) (more bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.serving = true
	for ; budget > 0 && q.n > 0 && !q.closed; budget-- {
		s := q.buf[q.head]
		attempt := s.attempts + 1
		if q.cfg.AtLeastOnce {
			q.inflight = true
		} else {
			q.popHead()
		}
		q.mu.Unlock()
		err := q.deliver(s.v, attempt)
		q.mu.Lock()
		if !q.cfg.AtLeastOnce {
			if err != nil {
				q.st.Failed++
			} else {
				q.st.Delivered++
			}
			continue
		}
		q.inflight = false
		switch {
		case err == nil:
			q.popHead()
			q.st.Delivered++
		case errors.Is(err, ErrClosed):
			// The consumer is gone for good: no point redelivering.
			q.popHead()
			q.st.Failed++
			q.st.Dropped++
		case attempt <= q.cfg.MaxRedeliver:
			q.buf[q.head].attempts = attempt
			q.st.Failed++
			q.st.Redelivered++
		default:
			q.popHead()
			q.st.Failed++
			q.st.Dropped++
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

// Close stops the queue: pending and future messages are shed, blocked
// Enqueue calls return ErrClosed, and no callback starts after Close
// returns (one already in flight finishes; see Done). Close is
// idempotent and never waits on the consumer.
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
	q.notFull.Broadcast()
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
// blocks stalls them all. Their capacities, overflow policies and
// counters stay their own, so producers are never stalled.
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
func (g *Group[T]) Add(q *Queue[T], deliver func(v T, attempt int) error) {
	g.add(q, deliver, false)
}

// add reports whether q was open and is now drained by g; solo makes
// q.Close close g as well.
func (g *Group[T]) add(q *Queue[T], deliver func(v T, attempt int) error, solo bool) bool {
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
// returns. The group's queues stay open — Enqueue keeps applying their
// overflow policy — but are no longer drained; closing them is their
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
