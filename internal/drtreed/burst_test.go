package drtreed

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"drtree/internal/core"
	"drtree/internal/filter"
	"drtree/internal/proto"
	"drtree/internal/pubsub"
	"drtree/internal/simnet"
	"drtree/internal/state"
	"drtree/internal/wire"
)

// burstClient is a binary client that puts a whole run of requests on
// the socket in one write.
type burstClient struct {
	net.Conn
	sr *wire.StreamReader
}

func dialBurst(t *testing.T, d *Daemon) *burstClient {
	t.Helper()
	c, err := net.Dial("tcp", d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := wire.WriteMessage(c, simnet.Message{Payload: wire.Hello{Node: -1, Proto: wire.ProtoVersion}}); err != nil {
		t.Fatal(err)
	}
	return &burstClient{Conn: c, sr: wire.NewStreamReader(c)}
}

// send writes every payload, framed, in one socket write.
func (c *burstClient) send(t *testing.T, payloads ...any) {
	t.Helper()
	var buf []byte
	for _, p := range payloads {
		var err error
		if buf, err = wire.AppendFrame(buf, simnet.Message{Payload: p}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Write(buf); err != nil {
		t.Fatal(err)
	}
}

// acks reads the next n frames, which must all be successful acks, and
// returns their refs in arrival order.
func (c *burstClient) acks(t *testing.T, n int) []uint64 {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	var refs []uint64
	for len(refs) < n {
		m, err := c.sr.ReadMessage()
		if err != nil {
			t.Fatalf("after %d acks: %v", len(refs), err)
		}
		a, ok := m.Payload.(wire.Ack)
		if !ok || a.Err != "" {
			t.Fatalf("after %d acks: got %#v, want a successful ack", len(refs), m.Payload)
		}
		refs = append(refs, a.Ref)
	}
	return refs
}

// burstStats is the part of /statsz a burst moves.
type burstStats struct {
	Store    state.Stats `json:"store"`
	Sessions struct {
		RPC frontSnapshot `json:"rpc"`
	} `json:"sessions"`
}

func readBurstStats(t *testing.T, d *Daemon) burstStats {
	t.Helper()
	resp, err := http.Get("http://" + d.HTTPAddr() + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st burstStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestDurableSessionBurst: requests that reach a durable daemon's
// session in one read are one burst — one fsync for every journal
// record they wrote, their acks in request order — and the acks are not
// counted as Notify frames. One request per fsync would cost two syncs
// for the first write and eight for the second.
func TestDurableSessionBurst(t *testing.T) {
	d := startClusterOf(t, 1, 2, WithDataDir(t.TempDir()))[0]
	c := dialBurst(t, d)
	inOrder := func(refs []uint64, first uint64) {
		t.Helper()
		for i, ref := range refs {
			if ref != first+uint64(i) {
				t.Fatalf("acks arrived as refs %v, want %d onwards in request order", refs, first)
			}
		}
	}
	step := func(what string, before burstStats, appended uint64) burstStats {
		t.Helper()
		after := readBurstStats(t, d)
		if got := after.Store.Syncs - before.Store.Syncs; got != 1 {
			t.Errorf("%s: store.syncs advanced by %d, want 1", what, got)
		}
		if got := after.Store.Appended - before.Store.Appended; got != appended {
			t.Errorf("%s: store.appended advanced by %d, want %d", what, got, appended)
		}
		return after
	}

	st := readBurstStats(t, d)
	// A Publish that matches no one sits between the two Subscribes: it
	// journals nothing, and its ack waits for the burst's.
	c.send(t,
		wire.Subscribe{Ref: 1, ID: 1, Expr: "price in [10, 20]"},
		wire.Publish{Ref: 2, Producer: 1, Attrs: []string{"price", "volume"}, Values: []float64{500, 5}},
		wire.Subscribe{Ref: 3, ID: 2, Expr: "price in [30, 40]"},
	)
	inOrder(c.acks(t, 3), 1)
	st = step("subscribe, publish, subscribe", st, 2)

	var eight []any
	for id := int64(11); id <= 18; id++ {
		eight = append(eight, wire.Subscribe{Ref: uint64(id), ID: id, Expr: "price in [50, 60]"})
	}
	c.send(t, eight...)
	inOrder(c.acks(t, 8), 11)
	st = step("eight subscribes", st, 8)

	if st.Sessions.RPC.NotifyFrames != 0 || st.Sessions.RPC.NotifyWrites != 0 {
		t.Errorf("sessions.rpc = %+v with nothing delivered: acks were counted as Notify frames", st.Sessions.RPC)
	}
}

// syncFails is a store whose every Sync fails.
type syncFails struct{ *state.Mem }

var errSyncFails = errors.New("fsync failed")

func (syncFails) Sync(uint64) error { return errSyncFails }

// nopConn stands in for a session's connection.
type nopConn struct{ name string }

func (nopConn) Close() error { return nil }

// TestSessionBurstSyncFailure: Subscribe(X), Unsubscribe(X), Subscribe(X)
// in one burst whose sync fails are all answered with the store's error,
// in request order, and leave X neither registered nor owned by the
// session.
func TestSessionBurstSyncFailure(t *testing.T) {
	lc, err := proto.NewLiveCluster(proto.Config{MinFanout: 2, MaxFanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := pubsub.New(filter.MustSpace("price", "volume"), lc,
		pubsub.WithStore(syncFails{state.NewMem()}), pubsub.WithGateways(1))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	d := &Daemon{broker: b, sessions: make(map[io.Closer]struct{})}
	s := d.openSession(nopConn{"burst"}, &d.rpcStats,
		func(core.ProcID, pubsub.Envelope) error { return nil }, func() error { return nil })
	defer s.close()

	const x = 7
	reqs := []request{
		{op: "subscribe", ref: 1, id: x, expr: "price in [0, 10]"},
		{op: "unsubscribe", ref: 2, id: x},
		{op: "subscribe", ref: 3, id: x, expr: "price in [0, 10]"},
	}
	var got []ack
	writes := 0
	s.serve(func() (request, error) {
		if len(reqs) == 0 {
			return request{}, io.EOF
		}
		r := reqs[0]
		reqs = reqs[1:]
		return r, nil
	}, func() bool { return len(reqs) > 0 }, func(acks []ack) error {
		writes++
		got = append(got, acks...)
		return nil
	})
	if writes != 1 || len(got) != 3 {
		t.Fatalf("%d acks in %d writes, want 3 in 1", len(got), writes)
	}
	for i, a := range got {
		if a.ref != uint64(i+1) || !errors.Is(a.err, errSyncFails) {
			t.Errorf("ack %d = ref %d, %v; want ref %d with the store's error", i, a.ref, a.err, i+1)
		}
	}
	if s.owned[x] {
		t.Errorf("the session still owns %d, whose Subscribe was taken back", x)
	}
	if n := b.Len(); n != 0 {
		t.Errorf("broker holds %d subscribers, want 0", n)
	}
}
