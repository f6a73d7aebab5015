package drtreed

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"net"
	"testing"
	"time"

	"drtree/internal/filter"
	"drtree/internal/geom"
	"drtree/internal/pubsub"
	"drtree/internal/simnet"
	"drtree/internal/wire"
	"drtree/internal/ws"
)

// discardConn is a connection whose writes all succeed and go nowhere.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }

// TestDeliveryEncodersAllocateNothing pins the socket half of the
// delivery edge: once a session's buffers have grown, framing one
// delivery allocates nothing — a Notify frame queued into the
// connection's writer and flushed, or a WebSocket "event" reply.
func TestDeliveryEncodersAllocateNothing(t *testing.T) {
	space := filter.MustSpace("price", "volume")
	env := pubsub.Envelope{Seq: 7, Point: geom.Point{15.25, 1e-7}}
	t.Run("rpc", func(t *testing.T) {
		w := wire.NewConnWriter(discardConn{}, 0)
		n := newRPCNotifier(w, space)
		allocs := testing.AllocsPerRun(1000, func() {
			if err := n.notify(42, env); err != nil {
				t.Fatal(err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("a Notify delivery made %v allocations, want 0", allocs)
		}
	})
	t.Run("ws", func(t *testing.T) {
		enc := newWSEventEncoder(space)
		var buf []byte
		allocs := testing.AllocsPerRun(1000, func() {
			var err error
			if buf, err = enc.appendEvent(buf[:0], 42, env.Seq, env.Point); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("an event reply made %v allocations, want 0", allocs)
		}
	})
}

// TestRPCNotifierFramesNotify pins the binary delivery byte for byte: a
// queued delivery is the frame wire.AppendFrame writes for the
// wire.Notify it stands for.
func TestRPCNotifierFramesNotify(t *testing.T) {
	var out bytes.Buffer
	w := wire.NewConnWriter(writerConn{w: &out}, 0)
	n := newRPCNotifier(w, filter.MustSpace("price", "volume"))
	if err := n.notify(42, pubsub.Envelope{Seq: 7, Point: geom.Point{15.25, -3}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	want, err := wire.EncodeFrame(simnet.Message{Payload: wire.Notify{
		Subscriber: 42, Seq: 7, Attrs: []string{"price", "volume"}, Values: []float64{15.25, -3}}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("notifier wrote %x, want %x", out.Bytes(), want)
	}
}

// writerConn is a connection whose writes land in a buffer.
type writerConn struct {
	net.Conn
	w *bytes.Buffer
}

func (c writerConn) Write(p []byte) (int, error) { return c.w.Write(p) }

// checkWSEventEncode holds the encoder of space to json.Marshal of the
// reply it stands for, whose event maps each attribute of the space to
// its coordinate of p: the same bytes, or an error exactly when
// json.Marshal errs, with the same text.
func checkWSEventEncode(t *testing.T, space *filter.Space, id int64, seq uint64, p geom.Point) {
	t.Helper()
	ev := make(map[string]float64, len(p))
	for i, a := range space.Attrs() {
		ev[a] = p[i]
	}
	want, werr := json.Marshal(wsReply{V: WSProtoVersion, Op: "event", ID: id, Seq: seq, Event: ev})
	prefix := []byte("prefix")
	got, gerr := newWSEventEncoder(space).appendEvent(prefix, id, seq, p)
	switch {
	case (werr == nil) != (gerr == nil):
		t.Fatalf("id %d seq %d event %v: encoder error %v, json.Marshal error %v", id, seq, ev, gerr, werr)
	case werr != nil:
		if gerr.Error() != werr.Error() {
			t.Fatalf("event %v: encoder error %q, json.Marshal error %q", ev, gerr, werr)
		}
		if string(got) != "prefix" {
			t.Fatalf("event %v: a refused reply left %q behind", ev, got)
		}
	case !bytes.Equal(got[len(prefix):], want) || string(got[:len(prefix)]) != "prefix":
		t.Fatalf("id %d seq %d event %v:\n got %s\nwant prefix%s", id, seq, ev, got, want)
	}
}

// TestWSEventEncoderMatchesJSON pins the WebSocket delivery byte for
// byte against json.Marshal: omitted zero id and seq, keys sorted
// whatever the space's dimension order, encoding/json's float forms,
// and the refusal of non-finite values.
func TestWSEventEncoderMatchesJSON(t *testing.T) {
	for _, c := range []struct {
		id    int64
		seq   uint64
		attrs []string
		p     geom.Point
	}{
		{7, 1, []string{"price", "qty"}, geom.Point{15, 2}},
		{0, 0, []string{"price"}, geom.Point{15}},
		{math.MinInt64, 9, []string{"z", "a", "m", "<&>"}, geom.Point{1e21, 1e-6, 9.99e-7, -0.0}},
		{4, 4, []string{"b", "a", "c"}, geom.Point{5e-324, math.MaxFloat64, 1e-9}},
		{4, 4, []string{"q", "r", "s"}, geom.Point{1, 2, 3}},
		{5, 5, []string{"price"}, geom.Point{math.NaN()}},
		{5, 5, []string{"a", "b"}, geom.Point{1, math.Inf(-1)}},
		// Two bad values: the error names the first in key order, as
		// json.Marshal's does, not the first dimension.
		{6, 6, []string{"price", "x"}, geom.Point{1, 2}},
		{6, 6, []string{"price", "0"}, geom.Point{math.NaN(), math.Inf(1)}},
		{5, 5, []string{"bad\xff\u2028key"}, geom.Point{3}},
	} {
		checkWSEventEncode(t, filter.MustSpace(c.attrs...), c.id, c.seq, c.p)
	}
}

// FuzzWSEventEncode holds the WebSocket event encoder to json.Marshal
// on arbitrary ids, sequence numbers, values and attribute names: each
// input's encoder is built from the space of its two names, and only a
// pair NewSpace refuses is skipped.
func FuzzWSEventEncode(f *testing.F) {
	for _, v := range []float64{math.Copysign(0, -1), 1e-7, 1e21, 5e-324, math.MaxFloat64, 0, 1, -42, 1 << 53, 123456789} {
		f.Add(int64(1), uint64(1), v, v, "volume")
	}
	rng := rand.New(rand.NewPCG(38, 1))
	for range 8 {
		f.Add(rng.Int64(), rng.Uint64(), math.Float64frombits(rng.Uint64()), math.Float64frombits(rng.Uint64()), "x")
	}
	f.Add(int64(0), uint64(0), math.NaN(), math.Inf(1), "0")
	f.Fuzz(func(t *testing.T, id int64, seq uint64, price, other float64, name string) {
		space, err := filter.NewSpace("price", name)
		if err != nil {
			return
		}
		checkWSEventEncode(t, space, id, seq, geom.Point{price, other})
	})
}

// TestNonFiniteEventsRefused: a NaN or infinite event value is refused
// with an error ack by both front ends, and reaches no subscriber on
// either. Before the refusal, +Inf matched "price > 5" and reached the
// binary subscriber, while the WebSocket subscriber's reply failed to
// encode and was only counted; NaN was acked "ok" and matched nothing.
func TestNonFiniteEventsRefused(t *testing.T) {
	d := startClusterOf(t, 1, 2)[0]
	rpc, wsp := rpcPeer(t, d), wsPeer(t, d)
	if err := rpc.subscribe(1, "price > 5"); err != nil {
		t.Fatal(err)
	}
	if err := wsp.subscribe(2, "price > 5"); err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{math.Inf(1), math.NaN(), math.Inf(-1)} {
		if err := rpc.publish(1, filter.Event{"price": v, "volume": 1}); err == nil {
			t.Fatalf("binary publish of price %v was acked ok", v)
		}
	}
	// JSON has no form for a non-finite number; the nearest a WebSocket
	// client can send overflows float64.
	c, err := ws.Dial("ws://"+d.HTTPAddr()+"/ws", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WriteText([]byte(`{"v":1,"op":"publish","producer":2,"event":{"price":1e999,"volume":1}}`)); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	_, payload, err := c.ReadMessage()
	var rep wsReply
	if err == nil {
		err = json.Unmarshal(payload, &rep)
	}
	if err != nil || rep.Op != "error" {
		t.Fatalf("WebSocket publish of 1e999: %s, %v; want an error reply", payload, err)
	}
	// A finite event behind them is the first either subscriber sees.
	if err := rpc.publish(1, filter.Event{"price": 6, "volume": 1}); err != nil {
		t.Fatal(err)
	}
	for _, p := range []frontPeer{rpc, wsp} {
		if sub, price := p.event(); price != 6 {
			t.Fatalf("subscriber %d got price %v first, want the finite 6", sub, price)
		}
	}
	for _, st := range d.Broker().DeliveryStats() {
		if st.Failed != 0 {
			t.Fatalf("subscriber %d: %d deliveries failed to encode", st.ID, st.Failed)
		}
	}
}
