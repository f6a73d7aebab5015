package drtreed

// What the two front ends share. A session is one client connection —
// binary RPC or WebSocket — with the subscription IDs it owns, the
// outbox that drains their queues into the connection's write buffer,
// the request loop, and the teardown. The codecs stay with their front
// ends: a session is opened with the function that encodes one delivery
// into the buffer and the function that flushes it, and served with the
// functions that read one request and write a run of acks.
//
// Requests are served in bursts. A burst applies requests one after the
// other (pubsub.Batch: committed in memory, journaled, not yet
// durable), then makes one sync for every journal record it wrote, then
// writes its acks, in request order, in one write. A burst takes in the
// next request only while it owes a sync and only when that request's
// whole frame is already buffered: reading never waits with acks held
// back, and a memory-only daemon, whose bursts never owe a sync, acks
// every request on its own as it is applied.

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"drtree/internal/core"
	"drtree/internal/filter"
	"drtree/internal/pubsub"
)

// sessionWriteTimeout bounds every write to a client socket: a client
// that stops reading loses its session (and only its session) when the
// deadline expires. The transport applies it to its peer links as well
// (it is the transport's own default). A variable only so a test can
// shorten it.
var sessionWriteTimeout = 5 * time.Second

// frontStats counts one front end's open sessions and what their
// outboxes put on the wire: delivery frames, the writes that carried
// them, and their bytes. frames/writes is the coalescing a live daemon
// is getting.
type frontStats struct {
	open                  atomic.Int64
	frames, writes, bytes atomic.Uint64
}

// batchWrite is the connections' OnBatchWrite hook.
func (f *frontStats) batchWrite(frames, bytes int) {
	f.frames.Add(uint64(frames))
	f.writes.Add(1)
	f.bytes.Add(uint64(bytes))
}

// frontSnapshot is frontStats as /statsz serves it.
type frontSnapshot struct {
	Open         int64  `json:"open"`
	NotifyFrames uint64 `json:"notify_frames"`
	NotifyWrites uint64 `json:"notify_writes"`
	NotifyBytes  uint64 `json:"notify_bytes"`
}

func (f *frontStats) snapshot() frontSnapshot {
	return frontSnapshot{f.open.Load(), f.frames.Load(), f.writes.Load(), f.bytes.Load()}
}

// session is one client connection's delivery state. Its methods run on
// the connection's reader goroutine; deliveries run on the outbox's.
type session struct {
	d      *Daemon
	conn   io.Closer
	front  *frontStats
	ob     *pubsub.Outbox
	owned  map[core.ProcID]bool
	notify func(core.ProcID, pubsub.Envelope) error

	batch *pubsub.Batch // the current burst's operations
	acks  []ack         // and what its requests are owed, in order
}

// request is one client operation as its front end decoded it; the two
// protocols mirror each other op for op.
type request struct {
	op       string // subscribe | attach | unsubscribe | publish
	ref      uint64 // echoed by the ack (binary RPC only)
	id       core.ProcID
	expr     string
	producer core.ProcID
	event    filter.Event
	// err is why the front end could not decode the request; the ack
	// carries it and nothing is applied.
	err error
}

// ack is the answer one request of the current burst is owed.
type ack struct {
	ref uint64
	err error
	// journaled marks a Subscribe or Unsubscribe that took: on a durable
	// daemon it wrote a journal record and shares the burst's sync
	// outcome. sub is the subscription such a Subscribe registered.
	journaled bool
	sub       core.ProcID
}

// openSession registers a client connection for shutdown teardown and
// starts its outbox: every delivery of every subscription the session
// comes to own is encoded by notify into the connection's write buffer
// on one goroutine, and flush runs whenever that goroutine has nothing
// more ready — one write per burst, and a lone delivery leaves at once.
// A failed flush (the write deadline of a client that stopped reading
// included) closes the connection, which ends the session's reader and
// with it the session; a delivery that notify could not queue flushes
// too, since under a flood the goroutine is never idle and the failure
// may be the early write of a full buffer. Nil means the daemon is
// closing: conn has been closed and the session must not start.
func (d *Daemon) openSession(conn io.Closer, front *frontStats, notify func(core.ProcID, pubsub.Envelope) error, flush func() error) *session {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		conn.Close()
		return nil
	}
	d.sessions[conn] = struct{}{}
	d.closeWG.Add(1)
	d.mu.Unlock()
	front.open.Add(1)
	flushOrClose := func() {
		if flush() != nil {
			conn.Close()
		}
	}
	s := &session{d: d, conn: conn, front: front, owned: make(map[core.ProcID]bool), batch: d.broker.NewBatch()}
	s.notify = func(id core.ProcID, e pubsub.Envelope) error {
		err := notify(id, e)
		if err != nil {
			flushOrClose()
		}
		return err
	}
	s.ob = d.broker.NewOutbox(flushOrClose)
	return s
}

// close ends the session: the connection first (a flush in flight fails
// instead of waiting out its deadline), then the subscriptions — unless
// the daemon itself is shutting down, in which case they stay
// registered (and, on a durable daemon, journaled) so a restart resumes
// them and clients re-attach by subscription ID — then the outbox.
func (s *session) close() {
	s.conn.Close()
	if !s.d.closing() {
		for id := range s.owned {
			s.d.broker.Unsubscribe(id)
		}
	}
	s.ob.Close()
	s.front.open.Add(-1)
	s.d.mu.Lock()
	delete(s.d.sessions, s.conn)
	s.d.mu.Unlock()
	s.d.closeWG.Done()
}

// serve answers the connection's requests until next fails. next reads
// one request; buffered reports whether the next one is already whole
// in the reader (nil: never, one request per burst); write puts a
// burst's acks on the wire in one write. A burst read before next
// failed is still synced and answered.
func (s *session) serve(next func() (request, error), buffered func() bool, write func([]ack) error) {
	for {
		r, err := next()
		if err != nil {
			s.finish(write)
			return
		}
		s.apply(r)
		if s.batch.Owed() && buffered != nil && buffered() {
			continue
		}
		if s.finish(write) != nil {
			return
		}
	}
}

// apply runs one request, ahead of the burst's sync, and queues its ack.
func (s *session) apply(r request) {
	a := ack{ref: r.ref, err: r.err}
	if a.err == nil {
		switch r.op {
		case "subscribe":
			var f filter.Filter
			if f, a.err = filter.Parse(r.expr); a.err == nil {
				a.err = s.ob.SubscribeFunc(s.batch, r.id, f, s.handler(r.id))
			}
			if a.err == nil {
				s.owned[r.id] = true
				a.journaled, a.sub = true, r.id
			}
		case "attach":
			// Attaching journals nothing: a recovered subscription is
			// already durable.
			if a.err = s.ob.AttachFunc(r.id, s.handler(r.id)); a.err == nil {
				s.owned[r.id] = true
			}
		case "unsubscribe":
			// Another session's subscription is not this client's to end.
			if !s.owned[r.id] {
				a.err = fmt.Errorf("drtreed: subscription %d is not owned by this session", r.id)
			} else if a.err = s.batch.Unsubscribe(r.id); a.err == nil {
				delete(s.owned, r.id)
				a.journaled = true
			}
		case "publish":
			a.err = s.d.broker.PublishAsync(r.producer, r.event)
		default:
			a.err = fmt.Errorf("unknown op %q", r.op)
		}
	}
	s.acks = append(s.acks, a)
}

// finish ends the burst: one sync for every journal record it wrote,
// then its acks, in request order, handed to write at once. When the
// sync fails every journaled request is answered with its error, and a
// Subscribe among them — taken back by the sync (pubsub.Batch.Sync) — is
// no longer this session's.
func (s *session) finish(write func([]ack) error) error {
	if len(s.acks) == 0 {
		return nil
	}
	if err := s.batch.Sync(); err != nil {
		for i := range s.acks {
			if a := &s.acks[i]; a.journaled {
				a.err = err
				if a.sub != 0 {
					delete(s.owned, a.sub)
				}
			}
		}
	}
	err := write(s.acks)
	clear(s.acks)
	s.acks = s.acks[:0]
	return err
}

func (s *session) handler(id core.ProcID) pubsub.Handler {
	return func(e pubsub.Envelope) error { return s.notify(id, e) }
}
