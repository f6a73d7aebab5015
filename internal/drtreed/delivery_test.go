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
	env := pubsub.Envelope{Seq: 7, Event: filter.Event{"price": 15.25, "volume": 1e-7}}
	t.Run("rpc", func(t *testing.T) {
		w := wire.NewConnWriter(discardConn{}, 0)
		n := newRPCNotifier(w, filter.MustSpace("price", "volume"))
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
		var enc wsEventEncoder
		var buf []byte
		allocs := testing.AllocsPerRun(1000, func() {
			var err error
			if buf, err = enc.appendEvent(buf[:0], 42, env.Seq, env.Event); err != nil {
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
	if err := n.notify(42, pubsub.Envelope{Seq: 7, Event: filter.Event{"price": 15.25, "volume": -3}}); err != nil {
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

// checkWSEventEncode holds the hand-written encoder to json.Marshal of
// the reply it stands for: the same bytes, or an error exactly when
// json.Marshal errs, with the same text.
func checkWSEventEncode(t *testing.T, enc *wsEventEncoder, id int64, seq uint64, ev filter.Event) {
	t.Helper()
	want, werr := json.Marshal(wsReply{V: WSProtoVersion, Op: "event", ID: id, Seq: seq, Event: ev})
	prefix := []byte("prefix")
	got, gerr := enc.appendEvent(prefix, id, seq, ev)
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
// byte against json.Marshal: omitted zero id and seq, sorted keys,
// encoding/json's float forms, an attribute set that changes under the
// encoder, and the refusal of non-finite values.
func TestWSEventEncoderMatchesJSON(t *testing.T) {
	var enc wsEventEncoder
	for _, c := range []struct {
		id  int64
		seq uint64
		ev  filter.Event
	}{
		{7, 1, filter.Event{"price": 15, "qty": 2}},
		{0, 0, filter.Event{"price": 15}},
		{-3, math.MaxUint64, nil},
		{1, 2, filter.Event{}},
		{math.MinInt64, 9, filter.Event{"z": 1e21, "a": 1e-6, "m": 9.99e-7, "<&>": -0.0}},
		{4, 4, filter.Event{"b": 5e-324, "a": math.MaxFloat64, "c": 1e-9}},
		{4, 4, filter.Event{"q": 1, "r": 2, "s": 3}}, // same size, other names
		{5, 5, filter.Event{"price": math.NaN()}},
		{5, 5, filter.Event{"a": 1, "b": math.Inf(-1)}},
		// Same size, one name shared, two bad values: the error names
		// the first in key order, as json.Marshal's does.
		{6, 6, filter.Event{"price": 1, "x": 2}},
		{6, 6, filter.Event{"price": math.NaN(), "0": math.Inf(1)}},
		{5, 5, filter.Event{"bad\xff\u2028key": 3}},
	} {
		checkWSEventEncode(t, &enc, c.id, c.seq, c.ev)
	}
}

// FuzzWSEventEncode holds the WebSocket event encoder to json.Marshal
// on arbitrary ids, sequence numbers, values and attribute names; one
// encoder serves every input, so its cached attribute set keeps
// changing under it.
func FuzzWSEventEncode(f *testing.F) {
	for _, v := range []float64{math.Copysign(0, -1), 1e-7, 1e21, 5e-324, math.MaxFloat64, 0, 1, -42, 1 << 53, 123456789} {
		f.Add(int64(1), uint64(1), v, v, "volume")
	}
	rng := rand.New(rand.NewPCG(38, 1))
	for range 8 {
		f.Add(rng.Int64(), rng.Uint64(), math.Float64frombits(rng.Uint64()), math.Float64frombits(rng.Uint64()), "x")
	}
	f.Add(int64(0), uint64(0), math.NaN(), math.Inf(1), "price")
	var enc wsEventEncoder
	f.Fuzz(func(t *testing.T, id int64, seq uint64, price, other float64, name string) {
		checkWSEventEncode(t, &enc, id, seq, filter.Event{"price": price, name: other})
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
