package pubsub

// The subscriber delivery layer: SubscribeFunc and SubscribeChan attach
// a bounded per-subscriber queue (internal/eventbus) drained by its own
// goroutine — or, for the subscribers of one Outbox, by the outbox's —
// so events matched by classifyBatch are handed to consumer code
// without the publish path ever waiting on it. Enqueueing happens
// in Broker.dispatch, strictly after classifyBatch has released every
// gateway lock, and never waits: a full queue sheds its oldest
// envelope, and every envelope reaches its handler at most once.

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"

	"drtree/internal/core"
	"drtree/internal/eventbus"
	"drtree/internal/filter"
	"drtree/internal/geom"
)

// DefaultQueueDepth is the per-subscriber queue capacity used when
// WithQueueDepth is not given.
const DefaultQueueDepth = 256

// Envelope is one event delivered to a queue-backed subscriber.
type Envelope struct {
	// Seq numbers the subscriber's deliveries from 1 in enqueue order
	// (gaps appear where a full queue shed events).
	Seq uint64
	// Point is the published event that matched the subscriber's
	// filter, as a point of the broker's space: Point[i] is the value of
	// attribute Space.Attrs()[i]. Every envelope of one event shares the
	// point, so it is read-only.
	Point geom.Point
}

// Handler consumes one envelope on the subscriber's drainer goroutine.
// Each envelope is handed over once; an error return only feeds the
// Failed counter.
type Handler func(Envelope) error

// deliveryConfig is the resolved delivery configuration of one
// queue-backed subscriber: broker-wide defaults overridden by the
// call's DeliveryOptions (see options.go for the option constructors).
type deliveryConfig struct {
	depth int
}

// consumer is the delivery side of one queue-backed subscriber.
type consumer struct {
	q   *eventbus.Queue[Envelope]
	seq atomic.Uint64
}

// pending is one delivery owed after a classify pass: collected under
// the gateway read locks, enqueued after they are all released.
type pending struct {
	cons  *consumer
	point geom.Point
}

// dispatch enqueues the deliveries a classify pass produced. An
// ErrClosed here means the subscriber unsubscribed concurrently with the
// publish — the event is simply not owed anymore.
func (b *Broker) dispatch(pend []pending) {
	for _, p := range pend {
		_ = p.cons.q.Enqueue(Envelope{Seq: p.cons.seq.Add(1), Point: p.point})
	}
}

// resolveDelivery layers the call's options over the broker-wide
// defaults set at construction.
func (b *Broker) resolveDelivery(opts []DeliveryOption) (deliveryConfig, error) {
	cfg := b.defaultDelivery
	for _, opt := range opts {
		if err := opt.applyDelivery(&cfg); err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

func newConsumer(cfg deliveryConfig) (*consumer, error) {
	q, err := eventbus.New(eventbus.Config[Envelope]{Capacity: cfg.depth})
	if err != nil {
		return nil, err
	}
	return &consumer{q: q}, nil
}

// SubscribeFunc registers subscriber id with the given filter and a
// handler invoked on the subscriber's own drainer goroutine for every
// event that matches. The handler can be arbitrarily slow — or never
// return — without stalling publishers, other subscribers, or
// Unsubscribe/Close; while it lags, a full queue sheds its oldest
// events.
func (b *Broker) SubscribeFunc(id core.ProcID, f filter.Filter, h Handler, opts ...DeliveryOption) error {
	cons, err := b.newFuncConsumer(h, opts)
	if err != nil {
		return err
	}
	if err := b.subscribe(id, f, cons, nil, h); err != nil {
		cons.q.Close()
		return err
	}
	return nil
}

// newFuncConsumer builds the consumer shared by the handler-backed
// subscribe and attach calls.
func (b *Broker) newFuncConsumer(h Handler, opts []DeliveryOption) (*consumer, error) {
	if h == nil {
		return nil, fmt.Errorf("pubsub: nil handler")
	}
	cfg, err := b.resolveDelivery(opts)
	if err != nil {
		return nil, err
	}
	return newConsumer(cfg)
}

// Outbox drains the delivery queues of every subscriber bound to it on
// one goroutine, and calls flush each time it has handed over all that
// was ready — so handlers that only append to a shared buffer (the
// subscribers of one client socket) cost one write per burst, not one
// per event. A lone event is flushed at once: nothing waits for
// company. Queue capacity, Seq numbering and DeliveryStats stay per
// subscriber; what the subscribers of an outbox share is fate — a
// handler or flush that blocks stalls them all (their queues shed
// meanwhile), never a publisher or another outbox.
type Outbox struct {
	b *Broker
	g *eventbus.Group[Envelope]
}

// NewOutbox starts an outbox. flush runs on the outbox's goroutine,
// never concurrently with a handler; it may be nil.
func (b *Broker) NewOutbox(flush func()) *Outbox {
	return &Outbox{b: b, g: eventbus.NewGroup[Envelope](flush)}
}

// SubscribeFunc applies Broker.SubscribeFunc to bt, ahead of its sync,
// with the handler invoked on the outbox's goroutine. Deliveries start
// once bt.Sync has made the registration durable; if that fails the
// registration is taken back (see Batch.Sync).
func (o *Outbox) SubscribeFunc(bt *Batch, id core.ProcID, f filter.Filter, h Handler, opts ...DeliveryOption) error {
	cons, err := o.b.newFuncConsumer(h, opts)
	if err != nil {
		return err
	}
	if err := bt.subscribe(id, f, cons, o, h); err != nil {
		cons.q.Close()
		return err
	}
	return nil
}

// AttachFunc is Broker.AttachFunc with the handler invoked on the
// outbox's goroutine.
func (o *Outbox) AttachFunc(id core.ProcID, h Handler, opts ...DeliveryOption) error {
	return o.b.attachFunc(o, id, h, opts)
}

// Close stops the outbox and waits for its goroutine to exit (a handler
// or flush in flight finishes first). Its subscribers stay registered,
// undelivered, until they are unsubscribed.
func (o *Outbox) Close() {
	o.g.Close()
	<-o.g.Done()
}

// startDelivery hands cons's envelopes to h: on ob's drainer, or — ob
// nil — on one of the consumer's own.
func startDelivery(ob *Outbox, cons *consumer, h Handler) {
	if ob == nil {
		cons.q.Run(func(e Envelope, _ int) error { return h(e) })
	} else {
		ob.g.Add(cons.q, h)
	}
}

// SubscribeChan registers subscriber id with the given filter and
// returns a channel of matching events. The channel is unbuffered — the
// subscriber's queue provides the buffering — and is closed when the
// subscriber is unsubscribed or the broker closes. A receiver that
// stops reading leaves the drainer blocked on the send (the queue sheds
// its oldest events meanwhile) until then.
func (b *Broker) SubscribeChan(id core.ProcID, f filter.Filter, opts ...DeliveryOption) (<-chan Envelope, error) {
	cons, ch, err := b.newChanConsumer(opts)
	if err != nil {
		return nil, err
	}
	if err := b.subscribe(id, f, cons, nil, chanHandler(cons, ch)); err != nil {
		cons.q.Close()
		return nil, err
	}
	closeWhenDone(cons, ch)
	return ch, nil
}

// newChanConsumer builds the consumer and channel shared by
// SubscribeChan and AttachChan.
func (b *Broker) newChanConsumer(opts []DeliveryOption) (*consumer, chan Envelope, error) {
	cfg, err := b.resolveDelivery(opts)
	if err != nil {
		return nil, nil, err
	}
	cons, err := newConsumer(cfg)
	if err != nil {
		return nil, nil, err
	}
	return cons, make(chan Envelope), nil
}

// chanHandler is the handler that feeds ch from cons's drainer.
func chanHandler(cons *consumer, ch chan Envelope) Handler {
	return func(e Envelope) error {
		select {
		case ch <- e:
			return nil
		case <-cons.q.Stopping():
			return eventbus.ErrClosed
		}
	}
}

// closeWhenDone closes ch when the subscriber goes away.
func closeWhenDone(cons *consumer, ch chan Envelope) {
	go func() {
		<-cons.q.Done()
		close(ch)
	}()
}

// attach installs a consumer on an existing record-only subscription —
// the re-attach half of durable sessions: Recover rebuilds
// subscriptions without delivery queues, and the returning client
// re-binds by subscription ID. Consumers are deliberately not
// journaled: a queue cannot outlive its process, so after a restart
// every recovered subscription is record-only until its owner attaches.
func (b *Broker) attach(id core.ProcID, cons *consumer) error {
	gw := b.owner(id)
	if gw == nil {
		return fmt.Errorf("pubsub: subscriber %d not registered", id)
	}
	gw.mu.Lock()
	defer gw.mu.Unlock()
	sub, ok := gw.subs[id]
	if !ok {
		return fmt.Errorf("pubsub: subscriber %d not registered", id)
	}
	if sub.cons != nil {
		return fmt.Errorf("pubsub: subscriber %d already has a consumer attached", id)
	}
	sub.cons = cons
	gw.subs[id] = sub
	e := gw.entries[sub.key]
	es := e.subs[id]
	es.cons = cons
	e.subs[id] = es
	return nil
}

// AttachFunc binds a handler to an existing record-only subscription
// (typically one rebuilt by Recover). Delivery semantics match
// SubscribeFunc; the subscription's filter is unchanged. Fails if id is
// not registered or already has a consumer.
func (b *Broker) AttachFunc(id core.ProcID, h Handler, opts ...DeliveryOption) error {
	return b.attachFunc(nil, id, h, opts)
}

func (b *Broker) attachFunc(ob *Outbox, id core.ProcID, h Handler, opts []DeliveryOption) error {
	cons, err := b.newFuncConsumer(h, opts)
	if err != nil {
		return err
	}
	if err := b.attach(id, cons); err != nil {
		cons.q.Close()
		return err
	}
	startDelivery(ob, cons, h)
	return nil
}

// AttachChan binds a delivery channel to an existing record-only
// subscription. Delivery semantics match SubscribeChan.
func (b *Broker) AttachChan(id core.ProcID, opts ...DeliveryOption) (<-chan Envelope, error) {
	cons, ch, err := b.newChanConsumer(opts)
	if err != nil {
		return nil, err
	}
	if err := b.attach(id, cons); err != nil {
		cons.q.Close()
		return nil, err
	}
	startDelivery(nil, cons, chanHandler(cons, ch))
	closeWhenDone(cons, ch)
	return ch, nil
}

// SubscribeFuncExpr is SubscribeFunc with a textual filter
// (filter.Parse syntax).
func (b *Broker) SubscribeFuncExpr(id core.ProcID, src string, h Handler, opts ...DeliveryOption) error {
	f, err := filter.Parse(src)
	if err != nil {
		return err
	}
	return b.SubscribeFunc(id, f, h, opts...)
}

// DeliveryStats is a point-in-time snapshot of one subscriber's
// delivery queue (embedding the queue's eventbus counters).
type DeliveryStats struct {
	// ID is the subscriber.
	ID core.ProcID
	eventbus.Stats
}

// DeliveryStats snapshots every queue-backed subscriber's delivery
// counters, ascending by subscriber ID. Record-only subscribers
// (Subscribe) have no queue and do not appear.
func (b *Broker) DeliveryStats() []DeliveryStats {
	var out []DeliveryStats
	for _, gw := range b.poolSnapshot() {
		gw.mu.RLock()
		for id, sub := range gw.subs {
			if sub.cons == nil {
				continue
			}
			out = append(out, DeliveryStats{ID: id, Stats: sub.cons.q.Stats()})
		}
		gw.mu.RUnlock()
	}
	slices.SortFunc(out, func(a, b DeliveryStats) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// DeliveryStatsOf snapshots one subscriber's delivery counters; ok is
// false when id is not a queue-backed subscriber.
func (b *Broker) DeliveryStatsOf(id core.ProcID) (DeliveryStats, bool) {
	gw := b.owner(id)
	if gw == nil {
		return DeliveryStats{}, false
	}
	gw.mu.RLock()
	defer gw.mu.RUnlock()
	sub, ok := gw.subs[id]
	if !ok || sub.cons == nil {
		return DeliveryStats{}, false
	}
	return DeliveryStats{ID: id, Stats: sub.cons.q.Stats()}, true
}
