package drtreed

import (
	"encoding/json"
	"fmt"
	"net"
	"testing"
	"time"

	"drtree/internal/core"
	"drtree/internal/filter"
	"drtree/internal/simnet"
	"drtree/internal/wire"
	"drtree/internal/ws"
)

// stalledClient is a client that subscribes and then never reads its
// socket again.
type stalledClient interface {
	subscribe(t *testing.T, id int64, expr string)
	Close() error
}

type stalledRPC struct {
	net.Conn
	sr *wire.StreamReader
}

func dialStalledRPC(t *testing.T, d *Daemon) stalledClient {
	c, err := net.Dial("tcp", d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteMessage(c, simnet.Message{Payload: wire.Hello{Node: -1, Proto: wire.ProtoVersion}}); err != nil {
		t.Fatal(err)
	}
	return &stalledRPC{Conn: c, sr: wire.NewStreamReader(c)}
}

func (c *stalledRPC) subscribe(t *testing.T, id int64, expr string) {
	if err := wire.WriteMessage(c, simnet.Message{Payload: wire.Subscribe{Ref: uint64(id), ID: id, Expr: expr}}); err != nil {
		t.Fatal(err)
	}
	m, err := c.sr.ReadMessage()
	if a, ok := m.Payload.(wire.Ack); err != nil || !ok || a.Err != "" {
		t.Fatalf("subscribe %d: %#v, %v", id, m.Payload, err)
	}
}

type stalledWS struct{ *ws.Conn }

func dialStalledWS(t *testing.T, d *Daemon) stalledClient {
	c, err := ws.Dial("ws://"+d.HTTPAddr()+"/ws", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return stalledWS{c}
}

func (c stalledWS) subscribe(t *testing.T, id int64, expr string) {
	req, _ := json.Marshal(wsRequest{V: WSProtoVersion, Op: "subscribe", ID: id, Filter: expr})
	if err := c.WriteText(req); err != nil {
		t.Fatal(err)
	}
	_, payload, err := c.ReadMessage()
	var rep wsReply
	if err == nil {
		err = json.Unmarshal(payload, &rep)
	}
	if err != nil || rep.Op != "ok" {
		t.Fatalf("ws subscribe %d: %+v, %v", id, rep, err)
	}
}

// TestStalledSessionIsEvictedAlone pins the never-block contract at the
// socket edge. Session A subscribes and stops reading; session B holds
// the same rectangles on the same daemon; a publisher floods. A's
// outbox blocks in its write, A's queues fill and shed, the write
// deadline closes A and its subscriptions go — and all the while B
// receives every event in order and publish acks stay prompt.
func TestStalledSessionIsEvictedAlone(t *testing.T) {
	const (
		subs     = 50
		deadline = 2 * time.Second
		window   = 64 // events B may lag the publisher by
	)
	for name, dialStalled := range map[string]func(*testing.T, *Daemon) stalledClient{"rpc": dialStalledRPC, "ws": dialStalledWS} {
		t.Run(name, func(t *testing.T) {
			saved := sessionWriteTimeout
			sessionWriteTimeout = deadline
			t.Cleanup(func() { sessionWriteTimeout = saved }) // runs after the daemon's Close
			d := startCluster(t, 1)[0]

			a := dialStalled(t, d)
			defer a.Close()
			b, pub := dialDaemon(t, d), dialDaemon(t, d)
			for i := int64(0); i < subs; i++ {
				expr := fmt.Sprintf("price in [10, %d] && volume in [0, 100]", 20+i)
				a.subscribe(t, 1000+i, expr)
				if err := b.Subscribe(2000+i, expr); err != nil {
					t.Fatal(err)
				}
			}
			if err := pub.Subscribe(1, "price in [900, 901]"); err != nil {
				t.Fatal(err)
			}
			if got := d.Broker().Len(); got != 2*subs+1 {
				t.Fatalf("broker holds %d subscriptions, want %d", got, 2*subs+1)
			}

			// B's reader checks every subscription's Seq as it arrives and
			// reports each event completed (seen by all of B's IDs).
			completed := make(chan struct{}, window) // the publisher never runs further ahead
			gap := make(chan string, 1)
			go func() {
				next := make(map[int64]uint64)
				seen := 0
				for e := range b.Events() {
					if next[e.Subscriber]++; e.Seq != next[e.Subscriber] {
						select {
						case gap <- fmt.Sprintf("subscriber %d: seq %d, want %d", e.Subscriber, e.Seq, next[e.Subscriber]):
						default:
						}
						return
					}
					if seen++; seen%subs == 0 {
						completed <- struct{}{}
					}
				}
			}()

			var published, done int
			var worstAck time.Duration
			var shed uint64
			evicted := false
			for start := time.Now(); !evicted; published++ {
				if time.Since(start) > 60*time.Second {
					t.Fatalf("A still subscribed after %d events (shed %d)", published, shed)
				}
				for published-done >= window {
					select {
					case <-completed:
						done++
					case msg := <-gap:
						t.Fatalf("B lost events: %s", msg)
					case <-time.After(10 * time.Second):
						t.Fatalf("B stalled with A: %d of %d events completed", done, published)
					}
				}
				t0 := time.Now()
				if err := pub.Publish(1, filter.Event{"price": 15, "volume": 5}); err != nil {
					t.Fatalf("publish %d: %v", published, err)
				}
				worstAck = max(worstAck, time.Since(t0))
				if st, ok := d.Broker().DeliveryStatsOf(core.ProcID(1000)); ok {
					shed = max(shed, st.Dropped)
				}
				evicted = d.Broker().Len() == subs+1
			}
			for done < published {
				select {
				case <-completed:
					done++
				case msg := <-gap:
					t.Fatalf("B lost events: %s", msg)
				case <-time.After(10 * time.Second):
					t.Fatalf("B received %d of %d events", done, published)
				}
			}
			if shed == 0 {
				t.Errorf("A's queue never shed: it was closed before it filled (%d events)", published)
			}
			if worstAck > deadline/2 {
				t.Errorf("slowest publish ack took %v beside a stalled session (write deadline %v)", worstAck, deadline)
			}
			// A's session is gone; B's and the publisher's remain.
			for wait := time.Now().Add(10 * time.Second); d.rpcStats.open.Load()+d.wsStats.open.Load() != 2; {
				if time.Now().After(wait) {
					t.Fatalf("A's session still open: rpc %d, ws %d", d.rpcStats.open.Load(), d.wsStats.open.Load())
				}
				time.Sleep(5 * time.Millisecond)
			}
			t.Logf("%d events; A shed %d per queue; slowest ack %v", published, shed, worstAck)
		})
	}
}
