package drtreed

// What the two front ends share. A session is one client connection —
// binary RPC or WebSocket — with the subscription IDs it owns, the
// outbox that drains their queues into the connection's write buffer,
// and the teardown. The codecs stay with their front ends: a session is
// opened with the function that encodes one delivery into the buffer
// and the function that flushes it.

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
	s := &session{d: d, conn: conn, front: front, owned: make(map[core.ProcID]bool)}
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

func (s *session) handler(id core.ProcID) pubsub.Handler {
	return func(e pubsub.Envelope) error { return s.notify(id, e) }
}

// subscribe registers id with a textual filter and delivers to this
// session.
func (s *session) subscribe(id core.ProcID, expr string) error {
	f, err := filter.Parse(expr)
	if err == nil {
		err = s.ob.SubscribeFunc(id, f, s.handler(id))
	}
	if err == nil {
		s.owned[id] = true
	}
	return err
}

// attach re-binds an existing (recovered) subscription to this session.
func (s *session) attach(id core.ProcID) error {
	err := s.ob.AttachFunc(id, s.handler(id))
	if err == nil {
		s.owned[id] = true
	}
	return err
}

// unsubscribe drops id, which this session must have subscribed or
// attached: another session's subscription is not this client's to end.
func (s *session) unsubscribe(id core.ProcID) error {
	if !s.owned[id] {
		return fmt.Errorf("drtreed: subscription %d is not owned by this session", id)
	}
	err := s.d.broker.Unsubscribe(id)
	if err == nil {
		delete(s.owned, id)
	}
	return err
}
