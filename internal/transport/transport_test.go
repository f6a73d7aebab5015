package transport

import (
	"errors"
	"net"
	"reflect"
	"testing"
	"time"

	"drtree/internal/core"
	"drtree/internal/proto"
	"drtree/internal/simnet"
	"drtree/internal/wire"
)

// The TCP transport must satisfy the same substrate contract the
// deterministic simulator does.
var _ proto.Substrate = (*TCP)(nil)

// ownerByHundreds maps processes 100–199 to daemon 0, 200–299 to
// daemon 1, and so on.
func ownerByHundreds(p core.ProcID) int { return int(p)/100 - 1 }

// pair starts two connected transports on loopback and returns them
// with their inbound channels.
func pair(t *testing.T) (*TCP, *TCP, chan simnet.Message, chan simnet.Message) {
	t.Helper()
	ln0 := listen(t)
	ln1 := listen(t)
	peers := []string{ln0.Addr().String(), ln1.Addr().String()}
	in0 := make(chan simnet.Message, 256)
	in1 := make(chan simnet.Message, 256)
	t0 := start(t, Config{Self: 0, Peers: peers, Listener: ln0, Deliver: func(m simnet.Message) { in0 <- m }, Owner: ownerByHundreds})
	t1 := start(t, Config{Self: 1, Peers: peers, Listener: ln1, Deliver: func(m simnet.Message) { in1 <- m }, Owner: ownerByHundreds})
	return t0, t1, in0, in1
}

func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// shorten sets one of the package's timing variables for the rest of the
// test. Call it before start: cleanups run last-registered first, so the
// transport is closed, its dialers gone, before the value is restored.
func shorten(t *testing.T, v *time.Duration, d time.Duration) {
	saved := *v
	*v = d
	t.Cleanup(func() { *v = saved })
}

func start(t *testing.T, cfg Config) *TCP {
	t.Helper()
	cfg.Logf = t.Logf
	tp, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tp.Close() })
	return tp
}

func recvMsg(t *testing.T, ch chan simnet.Message) simnet.Message {
	t.Helper()
	select {
	case m := <-ch:
		return m
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for a message")
		return simnet.Message{}
	}
}

func TestSendDeliverBothDirections(t *testing.T) {
	t0, t1, in0, in1 := pair(t)

	want := simnet.Message{From: 101, To: 201, Payload: wire.Subscribe{Ref: 1, ID: 42, Expr: "x in [0, 1]"}}
	t0.Send(want)
	if got := recvMsg(t, in1); !reflect.DeepEqual(got, want) {
		t.Fatalf("daemon 1 received %#v, want %#v", got, want)
	}

	back := simnet.Message{From: 201, To: 101, Payload: wire.Ack{Ref: 1}}
	t1.Send(back)
	if got := recvMsg(t, in0); !reflect.DeepEqual(got, back) {
		t.Fatalf("daemon 0 received %#v, want %#v", got, back)
	}

	if s := t0.Stats(); s.Sent != 1 || s.Delivered != 1 {
		t.Fatalf("t0 stats = %+v, want Sent=1 Delivered=1", s)
	}
}

func TestUnreachablePeerBounces(t *testing.T) {
	// Peer 1's address points at a closed port: every send toward it
	// must come back as a Bounce carrying the original payload.
	dead := listen(t)
	deadAddr := dead.Addr().String()
	dead.Close()

	ln0 := listen(t)
	in0 := make(chan simnet.Message, 16)
	shorten(t, &dialTimeout, 200*time.Millisecond)
	t0 := start(t, Config{
		Self: 0, Peers: []string{ln0.Addr().String(), deadAddr}, Listener: ln0,
		Deliver: func(m simnet.Message) { in0 <- m }, Owner: ownerByHundreds,
	})

	orig := wire.Publish{Ref: 7, Producer: 3, Attrs: []string{"p"}, Values: []float64{1}}
	t0.Send(simnet.Message{From: 101, To: 201, Payload: orig})

	m := recvMsg(t, in0)
	b, ok := m.Payload.(simnet.Bounce)
	if !ok || m.To != 101 || b.To != 201 {
		t.Fatalf("got %#v, want a bounce of the original to 101", m)
	}
	if got, ok := b.Original.(wire.Publish); !ok || got.Ref != orig.Ref {
		t.Fatalf("bounce carries %#v, want the original publish", b.Original)
	}
	if s := t0.Stats(); s.Bounced == 0 {
		t.Fatalf("stats = %+v, want Bounced > 0", s)
	}
}

func TestPeerDiesMidFrame(t *testing.T) {
	ln0 := listen(t)
	in0 := make(chan simnet.Message, 16)
	t0 := start(t, Config{
		Self: 0, Peers: []string{ln0.Addr().String(), "127.0.0.1:1"}, Listener: ln0,
		Deliver: func(m simnet.Message) { in0 <- m }, Owner: ownerByHundreds,
	})

	// A raw peer sends its Hello, one valid frame, then half of a second
	// frame and dies. The transport must deliver the whole frame, drop
	// the partial one without panicking, and keep serving afterwards.
	conn, err := net.Dial("tcp", t0.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteMessage(conn, simnet.Message{Payload: wire.Hello{Node: 1}}); err != nil {
		t.Fatal(err)
	}
	whole := simnet.Message{From: 201, To: 101, Payload: wire.Notify{Subscriber: 9, Seq: 1, Attrs: []string{"x"}, Values: []float64{2}}}
	frame, err := wire.EncodeFrame(whole)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	partial, err := wire.EncodeFrame(simnet.Message{From: 201, To: 101, Payload: wire.Ack{Ref: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(partial[:len(partial)-3]); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	if got := recvMsg(t, in0); !reflect.DeepEqual(got, whole) {
		t.Fatalf("received %#v, want %#v", got, whole)
	}

	// A fresh, well-behaved peer connection still works.
	conn2, err := net.Dial("tcp", t0.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if err := wire.WriteMessage(conn2, simnet.Message{Payload: wire.Hello{Node: 1}}); err != nil {
		t.Fatal(err)
	}
	second := simnet.Message{From: 202, To: 102, Payload: wire.Ack{Ref: 3}}
	if err := wire.WriteMessage(conn2, second); err != nil {
		t.Fatal(err)
	}
	if got := recvMsg(t, in0); !reflect.DeepEqual(got, second) {
		t.Fatalf("after partial frame: received %#v, want %#v", got, second)
	}
	if s := t0.Stats(); s.Delivered != 2 {
		t.Fatalf("stats = %+v, want Delivered=2", s)
	}
}

func TestReconnectAfterPeerRestart(t *testing.T) {
	// Peer 1 is down at first: sends bounce while the link backs off
	// (the reconnect storm is rate-limited by the jittered backoff).
	// When the peer comes up on the same address, traffic flows again
	// and the held messages count as Delayed.
	lnPeer := listen(t)
	peerAddr := lnPeer.Addr().String()
	lnPeer.Close()

	ln0 := listen(t)
	in0 := make(chan simnet.Message, 1024)
	shorten(t, &dialTimeout, 100*time.Millisecond)
	shorten(t, &backoffBase, 10*time.Millisecond)
	shorten(t, &backoffMax, 100*time.Millisecond)
	t0 := start(t, Config{
		Self: 0, Peers: []string{ln0.Addr().String(), peerAddr}, Listener: ln0,
		Deliver: func(m simnet.Message) { in0 <- m }, Owner: ownerByHundreds,
	})

	// Hammer the dead peer: every message must come back as a bounce —
	// none may be silently lost — and the backoff must keep the dial
	// rate finite (the test would time out under a tight dial loop).
	const storm = 40
	for i := 0; i < storm; i++ {
		t0.Send(simnet.Message{From: 101, To: 201, Payload: wire.Ack{Ref: uint64(i)}})
		time.Sleep(2 * time.Millisecond)
	}
	bounces := 0
	for bounces < storm {
		m := recvMsg(t, in0)
		if _, ok := m.Payload.(simnet.Bounce); ok {
			bounces++
		}
	}

	// Restart the peer on the same address.
	ln1, err := net.Listen("tcp", peerAddr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", peerAddr, err)
	}
	in1 := make(chan simnet.Message, 64)
	start(t, Config{
		Self: 1, Peers: []string{ln0.Addr().String(), peerAddr}, Listener: ln1,
		Deliver: func(m simnet.Message) { in1 <- m }, Owner: ownerByHundreds,
	})

	// Keep sending until one gets through (early sends may still hit
	// the tail of a backoff window and bounce).
	deadline := time.Now().Add(10 * time.Second)
	delivered := false
	for !delivered && time.Now().Before(deadline) {
		t0.Send(simnet.Message{From: 101, To: 201, Payload: wire.Ack{Ref: 999}})
		select {
		case m := <-in1:
			if a, ok := m.Payload.(wire.Ack); ok && a.Ref == 999 {
				delivered = true
			}
		case <-time.After(50 * time.Millisecond):
		}
	}
	if !delivered {
		t.Fatal("no message delivered after peer restart")
	}
	s := t0.Stats()
	if s.Reconnects == 0 {
		t.Fatalf("stats = %+v, want Reconnects > 0 after peer restart", s)
	}
	if s.Delayed == 0 {
		t.Fatalf("stats = %+v, want Delayed > 0 for messages held across the outage", s)
	}
}

func TestPartitionSuppressesTraffic(t *testing.T) {
	t0, _, _, in1 := pair(t)

	t0.Partition(1, true)
	t0.Send(simnet.Message{From: 101, To: 201, Payload: wire.Ack{Ref: 1}})
	select {
	case m := <-in1:
		t.Fatalf("partitioned send leaked through: %#v", m)
	case <-time.After(200 * time.Millisecond):
	}
	if s := t0.Stats(); s.Partitioned != 1 {
		t.Fatalf("stats = %+v, want Partitioned=1", s)
	}

	t0.Partition(1, false)
	t0.Send(simnet.Message{From: 101, To: 201, Payload: wire.Ack{Ref: 2}})
	if m := recvMsg(t, in1); m.Payload.(wire.Ack).Ref != 2 {
		t.Fatalf("after heal: %#v", m)
	}
}

func TestClientSession(t *testing.T) {
	ln0 := listen(t)
	t0 := start(t, Config{
		Self: 0, Peers: []string{ln0.Addr().String()}, Listener: ln0,
		Deliver: func(simnet.Message) {}, Owner: func(core.ProcID) int { return 0 },
		OnClient: func(c *Conn) {
			defer c.Close()
			for {
				m, err := c.ReadMessage()
				if err != nil {
					return
				}
				sub, ok := m.Payload.(wire.Subscribe)
				if !ok {
					return
				}
				c.WriteMessage(simnet.Message{Payload: wire.Ack{Ref: sub.Ref}})
			}
		},
	})
	_ = t0

	c, err := DialClient(t0.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WriteMessage(simnet.Message{Payload: wire.Subscribe{Ref: 11, ID: 1, Expr: "x in [0, 1]"}}); err != nil {
		t.Fatal(err)
	}
	m, err := c.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if a, ok := m.Payload.(wire.Ack); !ok || a.Ref != 11 {
		t.Fatalf("got %#v, want Ack{Ref: 11}", m)
	}
}

func TestSendAfterCloseDrops(t *testing.T) {
	t0, _, _, _ := pair(t)
	t0.Close()
	t0.Send(simnet.Message{From: 101, To: 201, Payload: wire.Ack{Ref: 1}})
	if s := t0.Stats(); s.Dropped == 0 {
		t.Fatalf("stats = %+v, want Dropped > 0 after close", s)
	}
}

// fakeLinkConn is the write side of a peer connection under test
// control: it records what is written, or fails every write.
type fakeLinkConn struct {
	net.Conn
	fail   error
	writes [][]byte
}

func (c *fakeLinkConn) SetWriteDeadline(time.Time) error { return nil }

func (c *fakeLinkConn) Write(p []byte) (int, error) {
	if c.fail != nil {
		return 0, c.fail
	}
	c.writes = append(c.writes, append([]byte(nil), p...))
	return len(p), nil
}

// heldLink builds a transport whose one link has no goroutine, so a
// test decides when the queue is looked at: Send queues, writeBurst
// drains.
func heldLink(deliver func(simnet.Message)) (*TCP, *link) {
	l := &link{peer: 1, q: make(chan simnet.Message, 64)}
	t := &TCP{
		cfg:   Config{Self: 0, Deliver: deliver, Owner: ownerByHundreds}.withDefaults(),
		links: []*link{nil, l},
		stop:  make(chan struct{}),
	}
	return t, l
}

func burstMessages(n int) []simnet.Message {
	msgs := make([]simnet.Message, n)
	for i := range msgs {
		msgs[i] = simnet.Message{From: 101, To: simnet.NodeID(201 + i), Payload: wire.Ack{Ref: uint64(i)}}
	}
	return msgs
}

// TestBurstLeavesInOneWrite: what is queued when the link looks leaves
// in one write, in order, and counts one Write for all of it.
func TestBurstLeavesInOneWrite(t *testing.T) {
	tp, l := heldLink(func(simnet.Message) { t.Error("nothing may bounce") })
	msgs := burstMessages(12)
	tp.Send(msgs...)
	conn := &fakeLinkConn{}
	if err := tp.writeBurst(l, tp.newLinkConn(conn), <-l.q); err != nil {
		t.Fatal(err)
	}
	if len(conn.writes) != 1 {
		t.Fatalf("%d writes for a queued burst, want 1", len(conn.writes))
	}
	data := conn.writes[0]
	for i, want := range msgs {
		got, n, err := wire.DecodeFrame(data)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: %#v, %v; want %#v", i, got, err, want)
		}
		data = data[n:]
	}
	if len(data) != 0 {
		t.Fatalf("%d trailing bytes", len(data))
	}
	if s := tp.Stats(); s.Sent != 12 || s.Writes != 1 {
		t.Fatalf("stats = %+v, want Sent=12 Writes=1", s)
	}
}

// TestFailedBurstBouncesEveryFrameOnce: when the one write of a burst
// fails, each message it carried is answered with exactly one bounce.
func TestFailedBurstBouncesEveryFrameOnce(t *testing.T) {
	bounces := make(map[simnet.NodeID]int)
	tp, l := heldLink(func(m simnet.Message) {
		b, ok := m.Payload.(simnet.Bounce)
		if !ok || m.To != 101 {
			t.Errorf("delivered %#v, want a bounce to 101", m)
		}
		bounces[b.To]++
	})
	msgs := burstMessages(9)
	tp.Send(msgs...)
	conn := &fakeLinkConn{fail: errors.New("broken pipe")}
	if err := tp.writeBurst(l, tp.newLinkConn(conn), <-l.q); err == nil {
		t.Fatal("a failed write must be reported so the link redials")
	}
	for _, m := range msgs {
		if bounces[m.To] != 1 {
			t.Errorf("message to %d bounced %d times, want 1", m.To, bounces[m.To])
		}
	}
	if s := tp.Stats(); s.Bounced != 9 || s.Writes != 0 || len(l.q) != 0 {
		t.Fatalf("stats = %+v, queue %d; want Bounced=9 Writes=0, queue empty", s, len(l.q))
	}
}

// TestPartitionSetBehindQueuedMessages: messages accepted by Send and
// still queued when the partition is induced are suppressed as the link
// drains them — neither written nor bounced.
func TestPartitionSetBehindQueuedMessages(t *testing.T) {
	tp, l := heldLink(func(simnet.Message) { t.Error("a partition is silent: nothing may bounce") })
	tp.Send(burstMessages(5)...)
	tp.Partition(1, true)
	conn := &fakeLinkConn{}
	if err := tp.writeBurst(l, tp.newLinkConn(conn), <-l.q); err != nil {
		t.Fatal(err)
	}
	if s := tp.Stats(); len(conn.writes) != 0 || s.Partitioned != 5 || s.Writes != 0 {
		t.Fatalf("%d writes, stats = %+v; want no write and Partitioned=5", len(conn.writes), s)
	}
}

// TestConnQueueThenFlush: what the binary framer adds to the shared
// writer (wire.ConnWriter has the buffer's own tests) — queued messages
// and the WriteMessage behind them leave as wire frames, in order, in
// one write, the batch hook counting only the queued ones, and a message
// that cannot be framed is refused without poisoning the connection.
func TestConnQueueThenFlush(t *testing.T) {
	fc := &fakeLinkConn{}
	c := newConn(fc, nil, time.Second)
	var frames int
	c.OnBatchWrite(func(f, _ int) { frames += f })
	msgs := burstMessages(4)
	queue := func(m simnet.Message) error {
		return c.Queue(func(b []byte) ([]byte, error) { return wire.AppendFrame(b, m) })
	}
	for _, m := range msgs[:3] {
		if err := queue(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := queue(simnet.Message{Payload: struct{}{}}); err == nil {
		t.Fatal("an unregistered payload was queued")
	}
	if err := c.WriteMessage(msgs[3]); err != nil { // an ack rides with the queued notifies, after them
		t.Fatal(err)
	}
	if len(fc.writes) != 1 || frames != 3 {
		t.Fatalf("%d writes, batch hook saw %d frames; want one write and the 3 queued frames", len(fc.writes), frames)
	}
	data := fc.writes[0]
	for i, want := range msgs {
		got, n, err := wire.DecodeFrame(data)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: %#v, %v; want %#v", i, got, err, want)
		}
		data = data[n:]
	}
	if len(data) != 0 {
		t.Fatalf("%d trailing bytes", len(data))
	}
}

// TestSendOverflowDropsWithoutBlocking pins what a full link queue does:
// Send returns at once, the queue keeps the oldest messages, and the
// rest are dropped and counted — not bounced, since a bounce would tell
// the protocol that a saturated but live peer is dead.
func TestSendOverflowDropsWithoutBlocking(t *testing.T) {
	tp, l := heldLink(func(m simnet.Message) { t.Errorf("an overflow bounced %#v", m) })
	msgs := make([]simnet.Message, 100)
	for i := range msgs {
		msgs[i] = simnet.Message{From: 101, To: 201, Payload: wire.Ack{Ref: uint64(i)}}
	}
	sent := make(chan struct{})
	go func() {
		tp.Send(msgs...)
		close(sent)
	}()
	select {
	case <-sent:
	case <-time.After(5 * time.Second):
		t.Fatal("Send blocked on a full link queue")
	}
	if s := tp.Stats(); len(l.q) != 64 || s.Dropped != 36 || s.Bounced != 0 {
		t.Fatalf("queue %d, stats = %+v; want 64 queued, Dropped=36, Bounced=0", len(l.q), s)
	}
	for i := range 64 {
		if m := <-l.q; m.Payload.(wire.Ack).Ref != uint64(i) {
			t.Fatalf("queue slot %d holds %#v, want Ack %d", i, m, i)
		}
	}
}
