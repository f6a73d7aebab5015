package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"drtree/internal/simnet"
	"drtree/internal/wire"
	"drtree/internal/ws"
)

// ackTimeout bounds every wait for an RPC ack and the wait for
// stragglers after a phase ends.
const ackTimeout = 5 * time.Second

// note is one Notify as the generator saw it.
type note struct {
	ev  int32 // event index, -1 when the point is not one of ours
	sub int64 // subscriber ID
	at  int64 // receive time, ns on the recorder's clock
}

// recorder is the state the session readers share: the clock, the
// event index, and per-event completion tracking. Readers only append
// to their own session's log and touch atomics here, so the hot path
// takes no shared lock.
type recorder struct {
	base    time.Time
	evIndex map[event]int32
	nStable int64 // subscriber IDs 1..nStable are oracle-checked

	// remaining[e] counts what event e still waits for: its publish ack
	// plus one Notify per expected stable subscriber. doneAt[e] is when
	// it reached zero.
	remaining []atomic.Int32
	doneAt    []atomic.Int64
	ackAt     []atomic.Int64

	// The phase currently publishing: completions inside [lo, hi) are
	// counted and, in a closed loop, hand a window slot back.
	lo, hi    atomic.Int32
	completed atomic.Int64
	windowed  atomic.Bool
	tokens    chan struct{} // capacity = the closed-loop window

	rpcErrs  atomic.Int64
	errMu    sync.Mutex
	firstErr []string
}

func newRecorder(in *inputs, exp [][]int32, window int) (*recorder, error) {
	idx, err := indexEvents(in.events)
	if err != nil {
		return nil, err
	}
	r := &recorder{
		base:      time.Now(),
		evIndex:   idx,
		nStable:   int64(len(in.subs)),
		remaining: make([]atomic.Int32, len(in.events)),
		doneAt:    make([]atomic.Int64, len(in.events)),
		ackAt:     make([]atomic.Int64, len(in.events)),
		tokens:    make(chan struct{}, window),
	}
	for i := range exp {
		r.remaining[i].Store(int32(len(exp[i])) + 1)
	}
	return r, nil
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// rpcFailed records an ack that carried an error (or never came).
func (r *recorder) rpcFailed(what string) {
	r.rpcErrs.Add(1)
	r.errMu.Lock()
	if len(r.firstErr) < 10 {
		r.firstErr = append(r.firstErr, what)
	}
	r.errMu.Unlock()
}

// progress accounts one step of event e toward full delivery.
func (r *recorder) progress(e int32, at int64) {
	if r.remaining[e].Add(-1) != 0 {
		return
	}
	r.doneAt[e].Store(at)
	if e >= r.lo.Load() && e < r.hi.Load() {
		r.completed.Add(1)
		if r.windowed.Load() {
			select {
			case r.tokens <- struct{}{}:
			default:
			}
		}
	}
}

// received is the readers' common path for one delivery.
func (r *recorder) received(log *noteLog, sub int64, seq uint64, x, y float64, at int64) {
	e, ok := r.evIndex[event{x, y}]
	if !ok {
		e = -1
	}
	log.add(note{ev: e, sub: sub, at: at}, seq)
	if ok && sub >= 1 && sub <= r.nStable {
		r.progress(e, at)
	}
}

// noteLog is one session's delivery log. The reader appends; the run
// takes the batch between phases.
type noteLog struct {
	mu    sync.Mutex
	notes []note
	// seqGaps counts jumps in a subscriber's Notify sequence numbers:
	// each is an envelope a queue shed before it reached the socket.
	lastSeq map[int64]uint64
	seqGaps int64
}

func (l *noteLog) add(n note, seq uint64) {
	l.mu.Lock()
	l.notes = append(l.notes, n)
	if last, ok := l.lastSeq[n.sub]; ok && seq > last+1 {
		l.seqGaps += int64(seq - last - 1)
	}
	l.lastSeq[n.sub] = seq
	l.mu.Unlock()
}

// take hands over the notes logged since the last call and the running
// sequence-gap count.
func (l *noteLog) take() ([]note, int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.notes
	l.notes = nil
	return out, l.seqGaps
}

// binSession is one binary RPC session. It speaks wire frames on its
// own socket (rather than through drtreed.Client) so publishes can be
// pipelined and reads can be buffered: the daemon writes one frame per
// Notify, and a generator that paid a syscall pair per frame would
// compete with the daemons for the CPU it is measuring.
type binSession struct {
	daemon int
	nc     net.Conn
	rec    *recorder
	log    noteLog

	wmu  sync.Mutex
	wbuf []byte

	cmu     sync.Mutex
	nextRef uint64
	calls   map[uint64]chan wire.Ack

	done    chan struct{}
	readErr error
}

// Publish acks are told apart from call acks by the top bit of Ref;
// the rest is the event index.
const pubRefBit = uint64(1) << 62

func dialBin(rec *recorder, daemon int, addr string) (*binSession, error) {
	nc, err := net.DialTimeout("tcp", addr, ackTimeout)
	if err != nil {
		return nil, fmt.Errorf("dial daemon %d: %w", daemon, err)
	}
	s := &binSession{
		daemon: daemon, nc: nc, rec: rec,
		calls: make(map[uint64]chan wire.Ack),
		done:  make(chan struct{}),
	}
	s.log.lastSeq = make(map[int64]uint64)
	if err := s.write(wire.Hello{Node: -1, Proto: wire.ProtoVersion}); err != nil {
		nc.Close()
		return nil, fmt.Errorf("hello to daemon %d: %w", daemon, err)
	}
	go s.readLoop()
	return s, nil
}

func (s *binSession) write(payload any) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	var err error
	if s.wbuf, err = wire.AppendFrame(s.wbuf[:0], simnet.Message{Payload: payload}); err != nil {
		return err
	}
	s.nc.SetWriteDeadline(time.Now().Add(ackTimeout))
	_, err = s.nc.Write(s.wbuf)
	return err
}

func (s *binSession) readLoop() {
	defer close(s.done)
	sr := wire.NewStreamReader(bufio.NewReaderSize(s.nc, 64<<10))
	for {
		m, err := sr.ReadMessage()
		if err != nil {
			s.readErr = err
			return
		}
		at := s.rec.now()
		switch p := m.Payload.(type) {
		case wire.Notify:
			if len(p.Values) != 2 || len(p.Attrs) != 2 || p.Attrs[0] != "x" {
				s.rec.rpcFailed(fmt.Sprintf("daemon %d: malformed Notify %v", s.daemon, p))
				continue
			}
			s.rec.received(&s.log, p.Subscriber, p.Seq, p.Values[0], p.Values[1], at)
		case wire.Ack:
			if p.Ref&pubRefBit != 0 {
				e := int32(p.Ref &^ pubRefBit)
				if p.Err != "" {
					s.rec.rpcFailed(fmt.Sprintf("publish of event %d: %s", e, p.Err))
				}
				s.rec.ackAt[e].Store(at)
				s.rec.progress(e, at)
				continue
			}
			s.cmu.Lock()
			ch := s.calls[p.Ref]
			delete(s.calls, p.Ref)
			s.cmu.Unlock()
			if ch != nil {
				ch <- p
			}
		}
	}
}

// start sends one request and returns the channel its ack will arrive
// on, so a caller may keep several requests in flight.
func (s *binSession) start(mk func(ref uint64) any) (<-chan wire.Ack, error) {
	s.cmu.Lock()
	s.nextRef++
	ref := s.nextRef
	ch := make(chan wire.Ack, 1)
	s.calls[ref] = ch
	s.cmu.Unlock()
	return ch, s.write(mk(ref))
}

// await waits for the ack of a started request.
func (s *binSession) await(ch <-chan wire.Ack) error {
	timeout := time.NewTimer(ackTimeout)
	defer timeout.Stop()
	select {
	case a := <-ch:
		if a.Err != "" {
			return errors.New(a.Err)
		}
		return nil
	case <-s.done:
		return fmt.Errorf("session to daemon %d ended: %v", s.daemon, s.readErr)
	case <-timeout.C:
		return fmt.Errorf("ack from daemon %d timed out", s.daemon)
	}
}

// call sends one request and waits for its ack.
func (s *binSession) call(mk func(ref uint64) any) error {
	ch, err := s.start(mk)
	if err != nil {
		return err
	}
	return s.await(ch)
}

// subscribeAll registers ids[i] with exprs[i] in order, keeping up to
// loadWindow Subscribes in flight. The daemon serves a session's
// requests one after the other, so acks come back in the order sent. It
// returns what a Subscribe took, in µs, over each full run of loadChunk
// acks.
func (s *binSession) subscribeAll(ids []int64, exprs []string) ([]float64, error) {
	pending := make([]<-chan wire.Ack, 0, len(ids))
	var perSub []float64
	mark := time.Now()
	acked := func(i int) error {
		if err := s.await(pending[i]); err != nil {
			return fmt.Errorf("subscribe %d: %w", ids[i], err)
		}
		if (i+1)%loadChunk == 0 {
			now := time.Now()
			perSub = append(perSub, float64(now.Sub(mark))/1e3/loadChunk)
			mark = now
		}
		return nil
	}
	for i, id := range ids {
		if i >= loadWindow {
			if err := acked(i - loadWindow); err != nil {
				return nil, err
			}
		}
		ch, err := s.start(func(ref uint64) any { return wire.Subscribe{Ref: ref, ID: id, Expr: exprs[i]} })
		if err != nil {
			return nil, fmt.Errorf("subscribe %d: %w", id, err)
		}
		pending = append(pending, ch)
	}
	for i := max(len(ids)-loadWindow, 0); i < len(ids); i++ {
		if err := acked(i); err != nil {
			return nil, err
		}
	}
	return perSub, nil
}

func (s *binSession) subscribe(id int64, expr string) error {
	return s.call(func(ref uint64) any { return wire.Subscribe{Ref: ref, ID: id, Expr: expr} })
}

func (s *binSession) unsubscribe(id int64) error {
	return s.call(func(ref uint64) any { return wire.Unsubscribe{Ref: ref, ID: id} })
}

var xyAttrs = []string{"x", "y"}

// publish writes event e without waiting; the reader settles the ack.
func (s *binSession) publish(e int32, ev event) error {
	return s.write(wire.Publish{
		Ref: pubRefBit | uint64(e), Producer: producerID,
		Attrs: xyAttrs, Values: []float64{ev.x, ev.y},
	})
}

func (s *binSession) close() {
	s.nc.Close()
	<-s.done
}

// wsSession is the JSON WebSocket session of fanout-1d. The daemon
// answers requests in order, so one outstanding call at a time needs no
// reference numbers.
type wsSession struct {
	c   *ws.Conn
	rec *recorder
	log noteLog

	replies chan wsFrame
	done    chan struct{}
	readErr error
}

// wsFrame is the union of the daemon's JSON frames the bench reads.
type wsFrame struct {
	Op    string `json:"op"`
	Error string `json:"error"`
	ID    int64  `json:"id"`
	Seq   uint64 `json:"seq"`
	Event struct {
		X float64 `json:"x"`
		Y float64 `json:"y"`
	} `json:"event"`
}

func dialWS(rec *recorder, httpAddr string) (*wsSession, error) {
	c, err := ws.Dial("ws://"+httpAddr+"/ws", ackTimeout)
	if err != nil {
		return nil, err
	}
	s := &wsSession{c: c, rec: rec, replies: make(chan wsFrame, 1), done: make(chan struct{})}
	s.log.lastSeq = make(map[int64]uint64)
	go s.readLoop()
	return s, nil
}

func (s *wsSession) readLoop() {
	defer close(s.done)
	for {
		_, payload, err := s.c.ReadMessage()
		if err != nil {
			s.readErr = err
			return
		}
		at := s.rec.now()
		var f wsFrame
		if err := json.Unmarshal(payload, &f); err != nil {
			s.rec.rpcFailed(fmt.Sprintf("websocket: undecodable frame %q", payload))
			continue
		}
		if f.Op == "event" {
			s.rec.received(&s.log, f.ID, f.Seq, f.Event.X, f.Event.Y, at)
			continue
		}
		select {
		case s.replies <- f:
		case <-time.After(ackTimeout):
			s.rec.rpcFailed("websocket: reply nobody waited for: " + f.Op)
		}
	}
}

func (s *wsSession) call(req map[string]any) error {
	req["v"] = 1
	buf, err := json.Marshal(req)
	if err != nil {
		return err
	}
	if err := s.c.WriteText(buf); err != nil {
		return err
	}
	select {
	case f := <-s.replies:
		if f.Op != "ok" {
			return fmt.Errorf("websocket %s: %s", f.Op, f.Error)
		}
		return nil
	case <-s.done:
		return fmt.Errorf("websocket session ended: %v", s.readErr)
	case <-time.After(ackTimeout):
		return errors.New("websocket reply timed out")
	}
}

func (s *wsSession) subscribe(id int64, expr string) error {
	return s.call(map[string]any{"op": "subscribe", "id": id, "filter": expr})
}

func (s *wsSession) close() {
	s.c.Close()
	<-s.done
}
