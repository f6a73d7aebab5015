// Package transport moves DR-tree protocol messages over real TCP
// sockets. It implements the same substrate contract simnet satisfies —
// fire-and-forget Send of simnet.Message values, undeliverable messages
// answered with a Bounce (the failure-detector surrogate), and a Stats
// census mirroring simnet's counters — so proto.LiveCluster runs
// unmodified over sockets while simnet remains the deterministic
// conformance twin.
//
// Topology is a static peer table: daemon i listens on Peers[i] and
// keeps one outbound link per remote peer. Each link is a goroutine
// owning a bounded queue and one TCP connection, lazily dialed and
// re-dialed with jittered exponential backoff; whatever is queued when
// the link goroutine looks leaves through a wire.ConnWriter (the write
// buffer client sessions use too) in one write per 32 KiB, and writes
// carry a deadline so a wedged peer cannot stall the link forever. A
// message that finds its link's queue full is dropped and counted, not
// bounced: a bounce would tell the protocol a saturated but live peer is
// dead. Connections are unidirectional: i→j traffic flows on the
// connection i dialed, j→i on the one j dialed, which keeps reconnect
// logic trivially symmetric.
//
// Inbound connections open with a wire.Hello frame. A non-negative
// Hello.Node introduces a peer link (frames stream to Deliver); a
// negative one introduces a client session (subscriber RPCs), which is
// handed to the OnClient callback as a Conn.
package transport

import (
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"drtree/internal/core"
	"drtree/internal/simnet"
	"drtree/internal/wire"
)

// Config wires a TCP transport to its daemon.
type Config struct {
	// Self is this daemon's index into Peers.
	Self int
	// Peers is the static address table, one entry per daemon.
	Peers []string
	// Listener optionally supplies a pre-bound listener for Peers[Self]
	// (tests bind port 0 first to learn addresses). When nil, the
	// transport listens on Peers[Self].
	Listener net.Listener
	// Deliver is the inbound sink (proto.LiveCluster.Deliver). Called
	// from transport goroutines, never from inside Send.
	Deliver func(simnet.Message)
	// Owner maps an overlay process to the daemon index hosting it.
	Owner func(core.ProcID) int
	// OnClient adopts an inbound client session (a connection whose
	// Hello carries a negative node). It runs on the connection's
	// goroutine and owns the Conn. Nil rejects client sessions.
	OnClient func(*Conn)

	// WriteTimeout bounds each frame write (default 5s).
	WriteTimeout time.Duration
	// Logf, when set, receives connection lifecycle diagnostics.
	Logf func(format string, args ...any)
}

// dialTimeout bounds each dial attempt; backoffBase and backoffMax shape
// the jittered exponential redial backoff. Variables only so a test can
// shorten them.
var (
	dialTimeout = 2 * time.Second
	backoffBase = 25 * time.Millisecond
	backoffMax  = time.Second
)

// queueDepth is the per-link outbound queue capacity.
const queueDepth = 1024

func (c Config) withDefaults() Config {
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 5 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Stats mirrors simnet.Stats for the socket substrate. Sent counts
// messages accepted by Send; Writes counts the socket writes that
// carried them to peers (frames per write = messages that reached a
// link / Writes); Delivered counts inbound frames handed to
// Deliver; Dropped counts queue-overflow and shutdown losses;
// Bounced counts undeliverable messages answered with a Bounce;
// Partitioned counts messages suppressed by an induced partition;
// Delayed counts messages that waited out at least one failed dial
// before being delivered; Reconnects counts re-established outbound
// connections.
type Stats struct {
	Sent        uint64
	Writes      uint64
	Delivered   uint64
	Dropped     uint64
	Bounced     uint64
	Partitioned uint64
	Delayed     uint64
	Reconnects  uint64
}

// TCP is the socket substrate. It satisfies the same Send contract as
// *simnet.Network (compile-asserted in internal/proto's tests via the
// Substrate interface).
type TCP struct {
	cfg   Config
	ln    net.Listener
	links []*link
	stop  chan struct{}
	wg    sync.WaitGroup

	closed atomic.Bool

	sent        atomic.Uint64
	writes      atomic.Uint64
	delivered   atomic.Uint64
	dropped     atomic.Uint64
	bounced     atomic.Uint64
	partitioned atomic.Uint64
	delayed     atomic.Uint64
	reconnects  atomic.Uint64
}

// link is one outbound peer connection with its bounded queue.
type link struct {
	peer        int
	addr        string
	q           chan simnet.Message
	partitioned atomic.Bool
}

// New starts the transport: listener up, accept loop and per-peer link
// goroutines running.
func New(cfg Config) (*TCP, error) {
	cfg = cfg.withDefaults()
	if cfg.Self < 0 || cfg.Self >= len(cfg.Peers) {
		return nil, fmt.Errorf("transport: self index %d outside peer table of %d", cfg.Self, len(cfg.Peers))
	}
	if cfg.Deliver == nil || cfg.Owner == nil {
		return nil, fmt.Errorf("transport: Deliver and Owner are required")
	}
	ln := cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", cfg.Peers[cfg.Self])
		if err != nil {
			return nil, fmt.Errorf("transport: listen: %w", err)
		}
	}
	t := &TCP{
		cfg:   cfg,
		ln:    ln,
		links: make([]*link, len(cfg.Peers)),
		stop:  make(chan struct{}),
	}
	for i, addr := range cfg.Peers {
		if i == cfg.Self {
			continue
		}
		l := &link{peer: i, addr: addr, q: make(chan simnet.Message, queueDepth)}
		t.links[i] = l
		t.wg.Add(1)
		go t.runLink(l)
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr is the bound listener address (use after port-0 binds).
func (t *TCP) Addr() string { return t.ln.Addr().String() }

// Send queues messages toward the daemons owning their destinations.
// It never blocks and never calls Deliver synchronously, so it is safe
// to call while holding the cluster lock: overflow drops, partitions
// drop, and undeliverable-peer bounces are synthesized by the link
// goroutines.
func (t *TCP) Send(msgs ...simnet.Message) {
	for _, m := range msgs {
		t.sent.Add(1)
		if t.closed.Load() {
			t.dropped.Add(1)
			continue
		}
		owner := t.cfg.Owner(core.ProcID(m.To))
		if owner < 0 || owner >= len(t.links) || t.links[owner] == nil {
			t.dropped.Add(1)
			continue
		}
		l := t.links[owner]
		if l.partitioned.Load() {
			t.partitioned.Add(1)
			continue
		}
		select {
		case l.q <- m:
		default:
			t.dropped.Add(1)
		}
	}
}

// Partition severs (or heals) traffic to and from peer — the test hook
// mirroring simnet.Network.Partition. Outbound messages drop at Send;
// inbound frames from the peer drop at the receive loop.
func (t *TCP) Partition(peer int, severed bool) {
	if peer >= 0 && peer < len(t.links) && t.links[peer] != nil {
		t.links[peer].partitioned.Store(severed)
	}
}

// Stats snapshots the traffic counters.
func (t *TCP) Stats() Stats {
	return Stats{
		Sent:        t.sent.Load(),
		Writes:      t.writes.Load(),
		Delivered:   t.delivered.Load(),
		Dropped:     t.dropped.Load(),
		Bounced:     t.bounced.Load(),
		Partitioned: t.partitioned.Load(),
		Delayed:     t.delayed.Load(),
		Reconnects:  t.reconnects.Load(),
	}
}

// Close shuts the listener and every link down and waits for the
// goroutines to exit. Queued messages are dropped.
func (t *TCP) Close() error {
	if !t.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(t.stop)
	err := t.ln.Close()
	t.wg.Wait()
	return err
}

// runLink owns one outbound connection: dial lazily, write what is
// queued — one message or a burst — in one Write under a deadline,
// bounce what cannot be delivered, redial with jittered exponential
// backoff.
func (t *TCP) runLink(l *link) {
	defer t.wg.Done()
	rng := rand.New(rand.NewPCG(uint64(l.peer)*7919, uint64(time.Now().UnixNano())))
	var conn *linkConn
	var failedDials int
	defer func() {
		if conn != nil {
			conn.c.Close()
		}
	}()
	for {
		select {
		case <-t.stop:
			return
		case m := <-l.q:
			if l.partitioned.Load() {
				t.partitioned.Add(1)
				continue
			}
			if conn == nil {
				c, ok := t.dialPeer(l, rng, &failedDials)
				if !ok {
					// The peer is unreachable right now: this message (and
					// everything queued behind it) bounces so the protocol's
					// failure handling sees a dead peer, exactly like a
					// simnet bounce.
					t.bounce(m)
					for drained := true; drained; {
						select {
						case q := <-l.q:
							t.bounce(q)
						default:
							drained = false
						}
					}
					continue
				}
				conn = c
				if failedDials > 0 {
					// Messages enqueued during the outage were held, not
					// lost: mirror simnet's Delayed counter.
					t.delayed.Add(uint64(len(l.q) + 1))
					failedDials = 0
				}
			}
			if err := t.writeBurst(l, conn, m); err != nil {
				t.cfg.Logf("transport[%d]: write to peer %d: %v", t.cfg.Self, l.peer, err)
				conn.c.Close()
				conn = nil
				t.reconnects.Add(1)
			}
		}
	}
}

// linkConn is one dial of a link: the connection, its writer, and the
// messages the writer holds that no successful write has carried yet —
// the ones a failed write bounces.
type linkConn struct {
	c      net.Conn
	w      *wire.ConnWriter
	unsent []simnet.Message
}

func (t *TCP) newLinkConn(c net.Conn) *linkConn {
	lc := &linkConn{c: c, w: wire.NewConnWriter(c, t.cfg.WriteTimeout)}
	lc.w.OnBatchWrite(func(int, int) {
		t.writes.Add(1)
		clear(lc.unsent) // the reused slice must not pin payloads
		lc.unsent = lc.unsent[:0]
	})
	return lc
}

// writeBurst queues m and whatever else is already queued on l, and
// writes it: one Write, or one per high-water mark's worth. Every
// message is still checked on its own: one drained behind a partition
// is suppressed, one the writer refuses (it cannot be encoded, or the
// early write it filled failed) bounces alone and ends the burst, and
// when a write fails every message it carried bounces.
func (t *TCP) writeBurst(l *link, lc *linkConn, m simnet.Message) error {
	for more := true; more; {
		if l.partitioned.Load() {
			t.partitioned.Add(1)
		} else {
			lc.unsent = append(lc.unsent, m)
			if err := lc.w.Queue(func(b []byte) ([]byte, error) { return wire.AppendFrame(b, m) }); err != nil {
				t.cfg.Logf("transport[%d]: queue for peer %d: %v", t.cfg.Self, l.peer, err)
				lc.unsent = lc.unsent[:len(lc.unsent)-1]
				t.bounce(m)
				break
			}
		}
		select {
		case m = <-l.q:
		default:
			more = false
		}
	}
	if err := lc.w.Flush(); err != nil {
		for _, m := range lc.unsent {
			t.bounce(m)
		}
		return err
	}
	return nil
}

// dialPeer makes one connection attempt (with handshake) per call,
// sleeping the jittered backoff for the current failure streak first so
// a dead peer cannot trigger a reconnect storm.
func (t *TCP) dialPeer(l *link, rng *rand.Rand, failedDials *int) (*linkConn, bool) {
	if *failedDials > 0 {
		backoff := min(backoffBase<<min(*failedDials-1, 12), backoffMax)
		// Full jitter in [backoff/2, backoff).
		backoff = backoff/2 + time.Duration(rng.Int64N(int64(backoff/2)+1))
		select {
		case <-t.stop:
			return nil, false
		case <-time.After(backoff):
		}
	}
	conn, err := net.DialTimeout("tcp", l.addr, dialTimeout)
	if err != nil {
		*failedDials++
		t.cfg.Logf("transport[%d]: dial peer %d (%s): %v", t.cfg.Self, l.peer, l.addr, err)
		return nil, false
	}
	lc := t.newLinkConn(conn)
	hello := simnet.Message{Payload: wire.Hello{Node: t.cfg.Self, Proto: wire.ProtoVersion}}
	if err := lc.w.Write(func(b []byte) ([]byte, error) { return wire.AppendFrame(b, hello) }); err != nil {
		conn.Close()
		*failedDials++
		return nil, false
	}
	if *failedDials > 0 {
		t.reconnects.Add(1)
	}
	return lc, true
}

// bounce answers one undeliverable message with the substrate's failure
// notice. Runs only on link goroutines (never under a caller's lock);
// a bounce is never bounced.
func (t *TCP) bounce(m simnet.Message) {
	if _, isBounce := m.Payload.(simnet.Bounce); isBounce {
		t.dropped.Add(1)
		return
	}
	t.bounced.Add(1)
	t.cfg.Deliver(simnet.Message{
		From: m.To, To: m.From,
		Payload: simnet.Bounce{To: m.To, Original: m.Payload},
	})
}

// acceptLoop admits inbound connections and classifies them by their
// Hello frame.
func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			if t.closed.Load() {
				return
			}
			t.cfg.Logf("transport[%d]: accept: %v", t.cfg.Self, err)
			select {
			case <-t.stop:
				return
			case <-time.After(10 * time.Millisecond):
			}
			continue
		}
		t.wg.Add(1)
		go t.serve(conn)
	}
}

// serve reads one connection until it dies: peer links stream frames to
// Deliver, client sessions are adopted by OnClient.
func (t *TCP) serve(conn net.Conn) {
	defer t.wg.Done()
	defer conn.Close()
	// Kill the read when the transport closes: Close must not wait on a
	// blocked Read.
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-t.stop:
			conn.Close()
		case <-done:
		}
	}()

	sr := wire.NewStreamReader(conn)
	conn.SetReadDeadline(time.Now().Add(t.cfg.WriteTimeout))
	first, err := sr.ReadMessage()
	if err != nil {
		return
	}
	hello, ok := first.Payload.(wire.Hello)
	if !ok {
		t.cfg.Logf("transport[%d]: inbound connection opened with %T, want Hello", t.cfg.Self, first.Payload)
		return
	}
	// Proto 0 is a pre-versioning peer speaking the current protocol; a
	// major this build does not know is refused before any frame of it
	// could be misparsed.
	if hello.Proto > wire.ProtoVersion {
		t.cfg.Logf("transport[%d]: peer %d announced protocol %d, this build speaks %d — refusing",
			t.cfg.Self, hello.Node, hello.Proto, wire.ProtoVersion)
		return
	}
	conn.SetReadDeadline(time.Time{})
	if hello.Node < 0 {
		if t.cfg.OnClient == nil {
			return
		}
		t.cfg.OnClient(newConn(conn, sr, t.cfg.WriteTimeout))
		return
	}
	peer := hello.Node
	for {
		m, err := sr.ReadMessage()
		if err != nil {
			if !t.closed.Load() {
				t.cfg.Logf("transport[%d]: peer %d link closed: %v", t.cfg.Self, peer, err)
			}
			return
		}
		if peer < len(t.links) && t.links[peer] != nil && t.links[peer].partitioned.Load() {
			t.partitioned.Add(1)
			continue
		}
		t.delivered.Add(1)
		t.cfg.Deliver(m)
	}
}
