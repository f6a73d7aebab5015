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
// subscriber's queue drains. A session's subscriptions die with it,
// unless the daemon itself is shutting down (they then persist for the
// restart).

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"time"

	"drtree/internal/core"
	"drtree/internal/filter"
	"drtree/internal/proto"
	"drtree/internal/pubsub"
	"drtree/internal/ws"
)

// wsWriteTimeout bounds every WebSocket frame write: a subscriber that
// stops reading loses its session (close-on-overflow at the socket),
// never stalls the daemon.
const wsWriteTimeout = 5 * time.Second

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
		Node        int                  `json:"node"`
		Subscribers int                  `json:"subscribers"`
		Transport   any                  `json:"transport"`
		Overlay     proto.LiveStats      `json:"overlay"`
		Gateways    []pubsub.GatewayStat `json:"gateways"`
		Actors      []proto.ActorState   `json:"actors"`
	}{
		Node:        d.cfg.Node,
		Subscribers: d.broker.Len(),
		Transport:   d.tp.Stats(),
		Overlay:     d.lc.Stats(),
		Gateways:    d.broker.GatewayStats(),
		Actors:      d.lc.ActorStates(),
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(stats)
}

// serveWS runs one JSON WebSocket session.
func (d *Daemon) serveWS(w http.ResponseWriter, r *http.Request) {
	c, err := ws.Accept(w, r)
	if err != nil {
		return
	}
	if !d.addSession(c) {
		c.Close()
		return
	}
	defer d.dropSession(c)
	defer c.Close()
	c.SetWriteTimeout(wsWriteTimeout)

	owned := make(map[core.ProcID]bool)
	defer func() {
		if d.closing() {
			return
		}
		for id := range owned {
			d.broker.Unsubscribe(id)
		}
	}()
	reply := func(rep wsReply) bool {
		rep.V = WSProtoVersion
		buf, err := json.Marshal(rep)
		if err != nil {
			return false
		}
		return c.WriteText(buf) == nil
	}
	fail := func(err error) bool { return reply(wsReply{Op: "error", Error: err.Error()}) }
	for {
		_, payload, err := c.ReadMessage()
		if err != nil {
			return
		}
		var req wsRequest
		if err := json.Unmarshal(payload, &req); err != nil {
			if !fail(fmt.Errorf("bad request: %w", err)) {
				return
			}
			continue
		}
		if req.V != 0 && req.V != WSProtoVersion {
			if !fail(fmt.Errorf("unsupported protocol version %d (this daemon speaks %d)", req.V, WSProtoVersion)) {
				return
			}
			continue
		}
		switch req.Op {
		case "subscribe":
			id := core.ProcID(req.ID)
			var ch <-chan pubsub.Envelope
			f, err := filter.Parse(req.Filter)
			if err == nil {
				ch, err = d.broker.SubscribeChan(id, f)
			}
			if err != nil {
				if !fail(err) {
					return
				}
				continue
			}
			owned[id] = true
			d.closeWG.Add(1)
			go d.pumpWS(c, id, ch)
			if !reply(wsReply{Op: "ok"}) {
				return
			}
		case "attach":
			id := core.ProcID(req.ID)
			ch, err := d.broker.AttachChan(id)
			if err != nil {
				if !fail(err) {
					return
				}
				continue
			}
			owned[id] = true
			d.closeWG.Add(1)
			go d.pumpWS(c, id, ch)
			if !reply(wsReply{Op: "ok"}) {
				return
			}
		case "unsubscribe":
			id := core.ProcID(req.ID)
			if err := d.broker.Unsubscribe(id); err != nil {
				if !fail(err) {
					return
				}
				continue
			}
			delete(owned, id)
			if !reply(wsReply{Op: "ok"}) {
				return
			}
		case "publish":
			err := d.broker.PublishAsync(core.ProcID(req.Producer), filter.Event(req.Event))
			if err != nil {
				if !fail(err) {
					return
				}
				continue
			}
			if !reply(wsReply{Op: "ok"}) {
				return
			}
		default:
			if !fail(fmt.Errorf("unknown op %q", req.Op)) {
				return
			}
		}
	}
}

// pumpWS drains one subscriber's delivery channel into event frames. A
// write failure (the slow-subscriber deadline included) closes the
// session; teardown unsubscribes, which closes ch and ends the pump.
func (d *Daemon) pumpWS(c *ws.Conn, id core.ProcID, ch <-chan pubsub.Envelope) {
	defer d.closeWG.Done()
	for e := range ch {
		rep := wsReply{V: WSProtoVersion, Op: "event", ID: int64(id), Seq: e.Seq, Event: e.Event}
		buf, err := json.Marshal(rep)
		if err != nil {
			continue
		}
		if err := c.WriteText(buf); err != nil {
			c.Close()
			for range ch {
			}
			return
		}
	}
}
