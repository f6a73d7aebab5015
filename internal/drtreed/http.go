package drtreed

// The HTTP front end: /ws upgrades to a JSON-over-WebSocket subscriber
// session, /healthz and /statsz expose liveness and counters. The
// WebSocket protocol mirrors the binary RPC one op for op:
//
//	-> {"v":1,"op":"subscribe","id":7,"filter":"price in [10, 20]"}
//	<- {"v":1,"op":"ok"}
//	-> {"v":1,"op":"publish","producer":7,"event":{"price":15,"qty":2}}
//	<- {"v":1,"op":"ok"}
//	<- {"v":1,"op":"event","id":7,"seq":1,"event":{"price":15,"qty":2}}
//	-> {"v":1,"op":"unsubscribe","id":7}
//	<- {"v":1,"op":"ok"}
//
// Every frame carries the protocol's major version in "v". Requests may
// omit it (0 reads as "speak the current protocol" for pre-versioning
// clients); a request with a major version this build does not know is
// refused with an "error" reply rather than half-understood. "attach"
// re-binds a session to a subscription ID that survived a daemon
// restart (durable daemons; see Config.DataDir) without re-registering
// it.
//
// Requests are answered in order; "event" frames interleave as the
// session's outbox drains. A session's subscriptions die with it,
// unless the daemon itself is shutting down (they then persist for the
// restart).

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"reflect"
	"runtime"
	"slices"
	"strconv"

	"drtree/internal/core"
	"drtree/internal/filter"
	"drtree/internal/geom"
	"drtree/internal/proto"
	"drtree/internal/pubsub"
	"drtree/internal/state"
	"drtree/internal/ws"
)

// WSProtoVersion is the JSON WebSocket protocol's current major
// version, carried in every frame's "v" field. Version 0 (the field
// omitted) is read as the current protocol for pre-versioning clients;
// any higher unknown major is refused.
const WSProtoVersion = 1

// wsRequest is one client -> daemon operation.
type wsRequest struct {
	V        int                `json:"v,omitempty"`
	Op       string             `json:"op"` // subscribe | unsubscribe | publish | attach
	ID       int64              `json:"id,omitempty"`
	Filter   string             `json:"filter,omitempty"`
	Producer int64              `json:"producer,omitempty"`
	Event    map[string]float64 `json:"event,omitempty"`
}

// wsReply is one daemon -> client frame.
type wsReply struct {
	V     int                `json:"v"`
	Op    string             `json:"op"` // ok | error | event
	Error string             `json:"error,omitempty"`
	ID    int64              `json:"id,omitempty"`
	Seq   uint64             `json:"seq,omitempty"`
	Event map[string]float64 `json:"event,omitempty"`
}

func (d *Daemon) startHTTP() error {
	ln := d.cfg.HTTPListener
	if ln == nil {
		if d.cfg.HTTPAddr == "" {
			return nil
		}
		var err error
		if ln, err = net.Listen("tcp", d.cfg.HTTPAddr); err != nil {
			return fmt.Errorf("drtreed: http listen: %w", err)
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/statsz", d.serveStats)
	mux.HandleFunc("/ws", d.serveWS)
	d.httpLn = ln
	d.httpSrv = &http.Server{Handler: mux}
	go d.httpSrv.Serve(ln)
	return nil
}

// serveStats dumps a JSON snapshot of the daemon's counters.
func (d *Daemon) serveStats(w http.ResponseWriter, _ *http.Request) {
	stats := struct {
		Node        int `json:"node"`
		Subscribers int `json:"subscribers"`
		Goroutines  int `json:"goroutines"`
		Transport   any `json:"transport"`
		Sessions    struct {
			RPC frontSnapshot `json:"rpc"`
			WS  frontSnapshot `json:"ws"`
		} `json:"sessions"`
		Overlay proto.LiveStats `json:"overlay"`
		// Store is present on a durable daemon; appended over syncs is the
		// journal records one fsync is making durable.
		Store    *state.Stats         `json:"store,omitempty"`
		Gateways []pubsub.GatewayStat `json:"gateways"`
		Actors   []proto.ActorState   `json:"actors"`
	}{
		Node:        d.cfg.Node,
		Subscribers: d.broker.Len(),
		Goroutines:  runtime.NumGoroutine(),
		Transport:   d.tp.Stats(),
		Overlay:     d.lc.Stats(),
		Gateways:    d.broker.GatewayStats(),
		Actors:      d.lc.ActorStates(),
	}
	stats.Sessions.RPC, stats.Sessions.WS = d.rpcStats.snapshot(), d.wsStats.snapshot()
	if st, ok := d.store.(state.Stater); ok {
		ss := st.Stats()
		stats.Store = &ss
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(stats)
}

// serveWS runs one JSON WebSocket session. Every burst is one request:
// the WebSocket reader exposes no lookahead.
func (d *Daemon) serveWS(w http.ResponseWriter, r *http.Request) {
	c, err := ws.Accept(w, r)
	if err != nil {
		return
	}
	c.SetWriteTimeout(sessionWriteTimeout)
	c.OnBatchWrite(d.wsStats.batchWrite)
	n := &wsNotifier{c: c, enc: newWSEventEncoder(d.space)}
	s := d.openSession(c, &d.wsStats, n.notify, c.Flush)
	if s == nil {
		return
	}
	defer s.close()
	s.serve(func() (request, error) {
		_, payload, err := c.ReadMessage()
		if err != nil {
			return request{}, err
		}
		return wsDecode(payload), nil
	}, nil, func(acks []ack) error {
		for _, a := range acks {
			if err := c.WriteText(wsAck(a)); err != nil {
				return err
			}
		}
		return nil
	})
}

// wsNotifier queues one WebSocket session's deliveries as "event"
// replies. Like rpcNotifier it runs only on the session outbox's
// goroutine, so one reply buffer serves the session.
type wsNotifier struct {
	c   *ws.Conn
	enc *wsEventEncoder
	buf []byte
}

// notify queues one delivery's "event" reply.
func (n *wsNotifier) notify(id core.ProcID, e pubsub.Envelope) error {
	buf, err := n.enc.appendEvent(n.buf[:0], int64(id), e.Seq, e.Point)
	n.buf = buf
	if err != nil {
		return err
	}
	return n.c.QueueText(buf)
}

// wsEventEncoder appends "event" replies for points of one space by
// hand: the bytes are exactly json.Marshal(wsReply{V: WSProtoVersion,
// Op: "event", ID: id, Seq: seq, Event: ev}), error included, where ev
// maps each attribute of the space to its coordinate of the point —
// without reflection, a map or a fresh buffer.
type wsEventEncoder struct {
	keys []wsEventKey // sorted by name, as encoding/json sorts map keys
}

// wsEventKey is one attribute of the encoder's space.
type wsEventKey struct {
	name   string
	dim    int
	quoted []byte // json.Marshal(name)
}

func newWSEventEncoder(space *filter.Space) *wsEventEncoder {
	enc := new(wsEventEncoder)
	for dim, name := range space.Attrs() {
		q, _ := json.Marshal(name) // a string: cannot fail
		enc.keys = append(enc.keys, wsEventKey{name: name, dim: dim, quoted: q})
	}
	slices.SortFunc(enc.keys, func(a, b wsEventKey) int { return cmp.Compare(a.name, b.name) })
	return enc
}

func (enc *wsEventEncoder) appendEvent(dst []byte, id int64, seq uint64, p geom.Point) ([]byte, error) {
	start := len(dst)
	dst = append(dst, `{"v":`...)
	dst = strconv.AppendInt(dst, WSProtoVersion, 10)
	dst = append(dst, `,"op":"event"`...)
	if id != 0 {
		dst = append(dst, `,"id":`...)
		dst = strconv.AppendInt(dst, id, 10)
	}
	if seq != 0 {
		dst = append(dst, `,"seq":`...)
		dst = strconv.AppendUint(dst, seq, 10)
	}
	// A space has at least one attribute, so the event is never empty.
	// Values are written in key order: the error for a non-finite value
	// names the first one in that order, as json.Marshal's does.
	dst = append(dst, `,"event":{`...)
	for i, k := range enc.keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(append(dst, k.quoted...), ':')
		var err error
		if dst, err = appendJSONFloat(dst, p[k.dim]); err != nil {
			return dst[:start], err
		}
	}
	return append(dst, '}', '}'), nil
}

// appendJSONFloat appends f as encoding/json writes a float64: the
// shortest 'f' form, or 'e' outside [1e-6, 1e21) with a one-digit
// negative exponent unpadded. NaN and ±Inf are refused with the error
// json.Marshal returns for them.
func appendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}

// wsDecode reads one WebSocket request; one it cannot read is answered
// with why.
func wsDecode(payload []byte) request {
	var req wsRequest
	if err := json.Unmarshal(payload, &req); err != nil {
		return request{err: fmt.Errorf("bad request: %w", err)}
	}
	if req.V != 0 && req.V != WSProtoVersion {
		return request{err: fmt.Errorf("unsupported protocol version %d (this daemon speaks %d)", req.V, WSProtoVersion)}
	}
	return request{op: req.Op, id: core.ProcID(req.ID), expr: req.Filter,
		producer: core.ProcID(req.Producer), event: filter.Event(req.Event)}
}

// wsAck encodes one request's reply: "ok", or "error" with the reason.
func wsAck(a ack) []byte {
	rep := wsReply{V: WSProtoVersion, Op: "ok"}
	if a.err != nil {
		rep.Op, rep.Error = "error", a.err.Error()
	}
	buf, _ := json.Marshal(rep) // strings and ints: cannot fail
	return buf
}
