// Package drtreed hosts one daemon of a real-network DR-tree pub/sub
// deployment: a slice of the overlay's process-ID space running on a
// live cluster (internal/proto), stitched to its peers over TCP
// (internal/transport + internal/wire), with a local gateway-pool
// broker (internal/pubsub) fronting subscribers over two substrates —
// framed binary RPC sessions on the overlay port and a JSON WebSocket
// endpoint (internal/ws) on the HTTP port.
//
// Topology: daemon i of n owns overlay processes (i*Stride, (i+1)*Stride].
// Process 1 — owned by daemon 0 — is the anchor: a filterless overlay
// member joined at startup that every cluster's bootstrap contact
// points at, so the first gateway join of any daemon routes over the
// wire into one shared tree instead of rooting n disjoint ones. Event
// IDs are drawn from disjoint per-daemon ranges (daemon i publishes
// IDs above (i+1)<<proto.EventSpaceShift) because receipt dedup keys on
// the ID.
//
// Publishing is fire-and-forget (pubsub.PublishAsync): no daemon can
// take a cluster-wide receipt census, so deliveries surface through the
// live runtime's event hook, which hands each gateway receipt's point
// to that gateway's notifier goroutine; its NotifyPoint call queues the
// point itself, shared read-only by every match, in each matching
// subscriber's session outbox, which frames it into the client socket's
// wire.ConnWriter. The event stays the overlay's point from receipt to
// socket (an envelope's Point[i] is the space's Attrs()[i]), and a
// delivery allocates nothing: NotifyPoint matches in pooled scratch, and
// each session frames its deliveries — a binary Notify through
// wire.AppendNotify, a WebSocket "event" reply encoded by hand to
// json.Marshal's bytes — in storage it owns, since its outbox runs every
// handler and flush on one goroutine. Event values are finite: a
// publish carrying NaN or an infinity is refused with an error ack.
package drtreed

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"drtree/internal/core"
	"drtree/internal/filter"
	"drtree/internal/geom"
	"drtree/internal/proto"
	"drtree/internal/pubsub"
	"drtree/internal/simnet"
	"drtree/internal/state"
	"drtree/internal/transport"
	"drtree/internal/wire"
)

// Stride is the size of each daemon's process-ID slice. One million
// processes per daemon keeps the arithmetic trivial and the slices far
// apart; IDs stay well inside the varint-friendly range for thousands
// of daemons.
const Stride = 1 << 20

// AnchorProc is the bootstrap anchor process, owned by daemon 0.
const AnchorProc core.ProcID = 1

// Config describes one daemon.
type Config struct {
	// Node is this daemon's index into Peers.
	Node int
	// Peers lists every daemon's overlay TCP address, index-aligned with
	// Node. A single-entry list is a standalone daemon.
	Peers []string
	// Listener optionally supplies the pre-bound overlay listener
	// (port-0 test rigs); when nil the daemon listens on Peers[Node].
	Listener net.Listener
	// HTTPAddr is the WebSocket/health endpoint address; empty disables
	// the HTTP front end.
	HTTPAddr string
	// HTTPListener optionally supplies the pre-bound HTTP listener.
	HTTPListener net.Listener
	// Space is the attribute space, in dimension order. Every daemon of
	// a deployment must use the identical space.
	Space []string
	// Gateways is the local broker's gateway-pool size (default 4: a
	// daemon amortizes overlay membership across its subscribers, and a
	// networked overlay prefers fewer, fatter gateways).
	Gateways int
	// MinFanout and MaxFanout are the DR-tree fanout bounds (default 2/4).
	MinFanout, MaxFanout int
	// DataDir, when non-empty, backs the daemon's subscription table
	// with a write-ahead log + snapshot store in that directory; a
	// restart over the same directory resumes the pre-crash subscription
	// set (clients re-attach by subscription ID).
	DataDir string
	// SnapshotEvery is the durable daemon's checkpoint cadence in
	// journaled operations (default: the broker's own default).
	SnapshotEvery int
	// Logf sinks daemon logs (default: discard).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Gateways == 0 {
		c.Gateways = 4
	}
	if c.MinFanout == 0 && c.MaxFanout == 0 {
		c.MinFanout, c.MaxFanout = 2, 4
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Daemon is one running drtreed instance.
type Daemon struct {
	cfg    Config
	space  *filter.Space
	lc     *proto.LiveCluster
	tp     *transport.TCP
	broker *pubsub.Broker
	store  state.Store // nil on a memory-only daemon

	httpSrv *http.Server
	httpLn  net.Listener

	// notifyQ carries each gateway's matched events from the overlay's run
	// loop to that gateway's notifier goroutine (read-only once built).
	// 1024 is what one turn of the loop can hand back (proto's FIFO
	// bound): the loop gets through a turn's hooks without waiting while
	// a notifier is matching.
	notifyQ map[core.ProcID]chan geom.Point

	mu       sync.Mutex
	closed   bool
	sessions map[io.Closer]struct{}
	closeWG  sync.WaitGroup // one count per open session, one for the notifier

	rpcStats, wsStats frontStats
}

// gatewayBase returns the first gateway procID of daemon node.
func gatewayBase(node int) core.ProcID { return core.ProcID(node*Stride + 2) }

// ownerOf maps an overlay process to the daemon index owning it.
func ownerOf(p core.ProcID) int { return (int(p) - 1) / Stride }

// New builds and starts a daemon from its option list: the overlay
// transport is listening, the anchor (on daemon 0) has joined, any
// durable subscription state (WithDataDir) has been recovered, and
// both front ends accept sessions when it returns.
func New(opts ...Option) (*Daemon, error) {
	var cfg Config
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	cfg = cfg.withDefaults()
	if cfg.Node < 0 || cfg.Node >= len(cfg.Peers) {
		return nil, fmt.Errorf("drtreed: node %d outside peer list of %d", cfg.Node, len(cfg.Peers))
	}
	if len(cfg.Space) == 0 {
		return nil, fmt.Errorf("drtreed: empty attribute space")
	}
	space, err := filter.NewSpace(cfg.Space...)
	if err != nil {
		return nil, fmt.Errorf("drtreed: %w", err)
	}
	lc, err := proto.NewLiveCluster(proto.Config{MinFanout: cfg.MinFanout, MaxFanout: cfg.MaxFanout})
	if err != nil {
		return nil, fmt.Errorf("drtreed: %w", err)
	}
	d := &Daemon{cfg: cfg, space: space, lc: lc, sessions: make(map[io.Closer]struct{}), notifyQ: make(map[core.ProcID]chan geom.Point)}
	for g := 0; g < cfg.Gateways; g++ {
		d.notifyQ[gatewayBase(cfg.Node)+core.ProcID(g)] = make(chan geom.Point, 1024)
	}

	lc.SetEventSpace(int64(cfg.Node+1) << proto.EventSpaceShift)
	lc.SetContact(func() core.ProcID { return AnchorProc })

	brokerOpts := []pubsub.Option{
		pubsub.WithGateways(cfg.Gateways),
		pubsub.WithGatewayBase(gatewayBase(cfg.Node)),
	}
	if cfg.DataDir != "" {
		d.store, err = state.OpenWAL(cfg.DataDir)
		if err != nil {
			lc.Close()
			return nil, fmt.Errorf("drtreed: opening data dir: %w", err)
		}
		brokerOpts = append(brokerOpts, pubsub.WithStore(d.store))
		if cfg.SnapshotEvery > 0 {
			brokerOpts = append(brokerOpts, pubsub.WithSnapshotEvery(cfg.SnapshotEvery))
		}
	}
	d.broker, err = pubsub.New(space, lc, brokerOpts...)
	if err != nil {
		d.closeStore()
		lc.Close()
		return nil, fmt.Errorf("drtreed: %w", err)
	}
	lc.SetEventHook(d.onOverlayDeliver)

	d.tp, err = transport.New(transport.Config{
		Self:     cfg.Node,
		Peers:    cfg.Peers,
		Listener: cfg.Listener,
		Deliver:  lc.Deliver,
		Owner:    ownerOf,
		OnClient: d.serveRPC,
		Logf:     cfg.Logf,

		WriteTimeout: sessionWriteTimeout,
	})
	if err != nil {
		d.closeStore()
		lc.Close()
		return nil, fmt.Errorf("drtreed: %w", err)
	}
	if err := lc.AttachSubstrate(d.tp, func(p core.ProcID) bool { return ownerOf(p) == cfg.Node }); err != nil {
		d.tp.Close()
		d.closeStore()
		lc.Close()
		return nil, fmt.Errorf("drtreed: %w", err)
	}

	// Daemon 0 seeds the shared tree with the anchor: a degenerate
	// subscription at the space's origin whose only job is existing, so
	// every later join — local or remote — has a stable contact to
	// route through.
	if ownerOf(AnchorProc) == cfg.Node {
		origin := make(geom.Point, space.Dims())
		anchor, err := geom.NewRect(origin, origin)
		if err == nil {
			err = lc.Join(AnchorProc, anchor)
		}
		if err != nil {
			d.tp.Close()
			d.closeStore()
			lc.Close()
			return nil, fmt.Errorf("drtreed: joining anchor: %w", err)
		}
	}

	// Durable restart: rebuild the pre-crash subscription set from the
	// store before the front ends open, so a re-attaching client never
	// races its own recovery. The gateways re-join the overlay through
	// the normal subscribe path as the set replays.
	if d.store != nil {
		rs, err := d.broker.Recover()
		if err != nil {
			d.tp.Close()
			d.broker.Close()
			d.closeStore()
			return nil, fmt.Errorf("drtreed: recovering %s: %w", cfg.DataDir, err)
		}
		if rs.Subscribers > 0 || rs.Records > 0 || rs.Snapshot {
			cfg.Logf("drtreed: node %d recovered %d subscribers from %s (snapshot=%v, %d journal records)",
				cfg.Node, rs.Subscribers, cfg.DataDir, rs.Snapshot, rs.Records)
		}
	}

	if err := d.startHTTP(); err != nil {
		d.tp.Close()
		d.broker.Close()
		d.closeStore()
		return nil, err
	}
	for p, q := range d.notifyQ {
		d.closeWG.Add(1)
		go d.notifier(p, q)
	}
	cfg.Logf("drtreed: node %d up, overlay %s http %s", cfg.Node, d.Addr(), d.HTTPAddr())
	return d, nil
}

// closeStore closes the durable store if the daemon owns one.
func (d *Daemon) closeStore() {
	if d.store != nil {
		d.store.Close()
	}
}

// Addr returns the overlay listener address.
func (d *Daemon) Addr() string { return d.tp.Addr() }

// HTTPAddr returns the HTTP listener address ("" when disabled).
func (d *Daemon) HTTPAddr() string {
	if d.httpLn == nil {
		return ""
	}
	return d.httpLn.Addr().String()
}

// Broker exposes the local broker (tests, stats).
func (d *Daemon) Broker() *pubsub.Broker { return d.broker }

// TransportStats snapshots the overlay transport counters.
func (d *Daemon) TransportStats() transport.Stats { return d.tp.Stats() }

// onOverlayDeliver is the live runtime's event hook: every first
// receipt of an event by a local process lands here, on the overlay's
// run loop. Matching it against the gateway's subscribers (an index
// probe under the gateway's read lock, then the queue hand-offs) is not
// overlay work, so a matched receipt at a gateway is only handed to that
// gateway's notifier and the loop goes on to the next actor. When the
// notifier's queue is full the loop does wait: the overlay pushes back
// on its publishers and links, and nothing is dropped.
func (d *Daemon) onOverlayDeliver(p core.ProcID, _ int64, ev geom.Point, matched bool) {
	if q := d.notifyQ[p]; matched && q != nil {
		q <- ev
	}
}

// notifier fans the events gateway p received out to its subscribers,
// in the order the overlay delivered them, one goroutine per gateway:
// the run loop hands a matched receipt over and moves on, and the four
// gateways match side by side. No gateway lock is held across an fsync
// (pubsub/journal.go), so the loop could call NotifyPoint itself, but
// ten alternated bench pairs measured that costing churn-durable-3d
// capacity_events_s 4778 -> 4322 events/s (parent IQR 452) and five
// costing steady-3d notify_p50_us 223 -> 261 us (EXPERIMENTS.md, "One
// path from overlay receipt to client socket"): matching on the loop
// serializes what the notifiers do beside it. It starts when the daemon
// is up and ends when Close, with the overlay stopped, closes its queue.
func (d *Daemon) notifier(p core.ProcID, q <-chan geom.Point) {
	defer d.closeWG.Done()
	for ev := range q {
		d.broker.NotifyPoint(p, ev)
	}
}

// closing reports whether Close has begun. Session teardown consults it
// to keep subscriptions registered (and journaled) through a daemon
// shutdown: a durable daemon must restart with its subscription set, so
// only a session ending while the daemon lives unsubscribes its IDs.
func (d *Daemon) closing() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.closed
}

// Close stops the daemon: front ends first (no new sessions), then the
// broker and its overlay runtime, then the transport. A durable daemon
// checkpoints its subscription table on the way down so the next boot
// replays a snapshot instead of the whole journal.
func (d *Daemon) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	open := make([]io.Closer, 0, len(d.sessions))
	for c := range d.sessions {
		open = append(open, c)
	}
	d.mu.Unlock()
	if d.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		d.httpSrv.Shutdown(ctx)
		cancel()
	}
	// Closing the session sockets unblocks their reader goroutines, which
	// tear the sessions down (outbox included).
	for _, c := range open {
		c.Close()
	}
	if d.store != nil {
		// Best-effort: a failed checkpoint only means a longer replay.
		if err := d.broker.Checkpoint(); err != nil {
			d.cfg.Logf("drtreed: shutdown checkpoint: %v", err)
		}
	}
	err := d.broker.Close() // stops the overlay's run loop: no hook runs after it
	for _, q := range d.notifyQ {
		close(q)
	}
	d.tp.Close()
	d.closeWG.Wait()
	d.closeStore()
	return err
}

// eventFromVectors rebuilds a pub/sub event from parallel vectors.
func eventFromVectors(attrs []string, values []float64) (filter.Event, error) {
	if len(attrs) != len(values) {
		return nil, fmt.Errorf("drtreed: %d attrs vs %d values", len(attrs), len(values))
	}
	e := make(filter.Event, len(attrs))
	for i, a := range attrs {
		e[a] = values[i]
	}
	return e, nil
}

// serveRPC runs one framed binary client session (transport.OnClient):
// Subscribe/Unsubscribe/Publish/Attach requests each answered with an
// Ack bearing the request's Ref, in request order, and Notify frames
// pushed as the session's outbox drains. Subscriptions die with the
// session (see session.close).
func (d *Daemon) serveRPC(c *transport.Conn) {
	c.OnBatchWrite(d.rpcStats.batchWrite)
	s := d.openSession(c, &d.rpcStats, newRPCNotifier(c.ConnWriter, d.space).notify, c.Flush)
	if s == nil {
		return
	}
	defer s.close()
	var out []simnet.Message
	s.serve(func() (request, error) {
		m, err := c.ReadMessage()
		if err != nil {
			return request{}, err
		}
		return d.rpcRequest(c, m.Payload)
	}, c.FrameBuffered, func(acks []ack) error {
		out = out[:0]
		for _, a := range acks {
			w := wire.Ack{Ref: a.ref}
			if a.err != nil {
				w.Err = a.err.Error()
			}
			out = append(out, simnet.Message{Payload: w})
		}
		return c.WriteMessages(out...)
	})
}

// rpcNotifier frames one RPC session's deliveries as Notify frames
// into its connection's write buffer: the envelope's point is the
// frame's values, in the space's dimension order, so a delivery
// allocates nothing.
type rpcNotifier struct {
	w     *wire.ConnWriter
	attrs []string // the space's, in dimension order
}

func newRPCNotifier(w *wire.ConnWriter, space *filter.Space) *rpcNotifier {
	return &rpcNotifier{w: w, attrs: space.Attrs()}
}

// notify queues one delivery's Notify frame.
func (n *rpcNotifier) notify(id core.ProcID, e pubsub.Envelope) error {
	return n.w.Queue(func(b []byte) ([]byte, error) {
		return wire.AppendNotify(b, int64(id), e.Seq, n.attrs, e.Point)
	})
}

// rpcRequest decodes one binary request; any other payload ends the
// session.
func (d *Daemon) rpcRequest(c *transport.Conn, payload any) (request, error) {
	switch p := payload.(type) {
	case wire.Subscribe:
		return request{op: "subscribe", ref: p.Ref, id: core.ProcID(p.ID), expr: p.Expr}, nil
	case wire.Attach:
		return request{op: "attach", ref: p.Ref, id: core.ProcID(p.ID)}, nil
	case wire.Unsubscribe:
		return request{op: "unsubscribe", ref: p.Ref, id: core.ProcID(p.ID)}, nil
	case wire.Publish:
		ev, err := eventFromVectors(p.Attrs, p.Values)
		return request{op: "publish", ref: p.Ref, producer: core.ProcID(p.Producer), event: ev, err: err}, nil
	}
	d.cfg.Logf("drtreed: client %s sent unexpected %T, dropping session", c.RemoteAddr(), payload)
	return request{}, fmt.Errorf("drtreed: unexpected %T", payload)
}
