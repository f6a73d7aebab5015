package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"
	"testing/iotest"

	"drtree/internal/simnet"
)

// rpcMessages is one message per RPC kind plus a bounce, with
// non-trivial field values (negative IDs, empty and non-empty slices,
// unicode) so a lazy codec cannot pass by accident.
func rpcMessages() []simnet.Message {
	return []simnet.Message{
		{From: 1, To: 2, Payload: Hello{Node: 3, Proto: ProtoVersion}},
		{From: -1, To: 0, Payload: Hello{Node: -7, Proto: 2}},
		{From: 0, To: 0, Payload: Attach{Ref: 11, ID: 42}},
		{From: 0, To: 0, Payload: Attach{Ref: 0, ID: -3}},
		{From: 0, To: 0, Payload: Subscribe{Ref: 1, ID: 42, Expr: "price in [10, 20] && volume in [0, 1e6]"}},
		{From: 0, To: 0, Payload: Subscribe{Ref: 0, ID: -9, Expr: ""}},
		{From: 0, To: 0, Payload: Unsubscribe{Ref: 1 << 40, ID: 7}},
		{From: 0, To: 0, Payload: Publish{Ref: 2, Producer: 5, Attrs: []string{"price", "vølume"}, Values: []float64{99.5, -3}}},
		{From: 0, To: 0, Payload: Publish{Ref: 3, Producer: 1}},
		{From: 0, To: 0, Payload: Notify{Subscriber: 8, Seq: 12, Attrs: []string{"p"}, Values: []float64{0.25}}},
		{From: 0, To: 0, Payload: Ack{Ref: 9, Err: "no such subscriber"}},
		{From: 0, To: 0, Payload: Ack{Ref: 10}},
		{From: 4, To: 9, Payload: simnet.Bounce{To: 9, Original: Publish{Ref: 1, Producer: 2, Attrs: []string{"x"}, Values: []float64{1}}}},
	}
}

func TestRoundTripRPC(t *testing.T) {
	for _, m := range rpcMessages() {
		buf, err := EncodeFrame(m)
		if err != nil {
			t.Fatalf("encode %T: %v", m.Payload, err)
		}
		got, n, err := DecodeFrame(buf)
		if err != nil {
			t.Fatalf("decode %T: %v", m.Payload, err)
		}
		if n != len(buf) {
			t.Fatalf("decode %T consumed %d of %d bytes", m.Payload, n, len(buf))
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("round trip %T:\n got %#v\nwant %#v", m.Payload, got, m)
		}
	}
}

func TestAppendFrameConcatenates(t *testing.T) {
	msgs := rpcMessages()
	var buf []byte
	for _, m := range msgs {
		var err error
		buf, err = AppendFrame(buf, m)
		if err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	for i, want := range msgs {
		got, n, err := DecodeFrame(buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: got %#v want %#v", i, got, want)
		}
		buf = buf[n:]
	}
	if len(buf) != 0 {
		t.Fatalf("%d leftover bytes", len(buf))
	}
}

// TestStreamReader decodes one stream of frames however the source
// slices it: everything in one read (several frames per read — the
// reader buffers), one byte per read (a frame spans many reads), and
// through a caller-supplied bufio.Reader.
// TestAppendNotifyMatchesAppendFrame: the registry-free Notify encoder
// writes the bytes AppendFrame writes for the same wire.Notify, behind
// what dst already holds, and the registered decoder reads them back.
func TestAppendNotifyMatchesAppendFrame(t *testing.T) {
	for _, n := range []Notify{
		{Subscriber: 8, Seq: 12, Attrs: []string{"p"}, Values: []float64{0.25}},
		{Subscriber: -1 << 40, Seq: 1<<64 - 1, Attrs: []string{"price", "vølume", ""}, Values: []float64{-0.0, 1e300, -7}},
		{Subscriber: 0, Seq: 0},
	} {
		want, err := EncodeFrame(simnet.Message{Payload: n})
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendNotify([]byte("head"), n.Subscriber, n.Seq, n.Attrs, n.Values)
		if err != nil || string(got[:4]) != "head" || !bytes.Equal(got[4:], want) {
			t.Fatalf("%+v: AppendNotify = %x, %v; want head + %x", n, got, err, want)
		}
		m, size, err := DecodeFrame(got[4:])
		if err != nil || size != len(want) || !reflect.DeepEqual(m.Payload, n) {
			t.Fatalf("%+v decoded as %#v (%d bytes), %v", n, m.Payload, size, err)
		}
	}
	buf := make([]byte, 0, 64)
	attrs, values := []string{"x", "y"}, []float64{1, 2}
	if allocs := testing.AllocsPerRun(100, func() { buf, _ = AppendNotify(buf[:0], 3, 4, attrs, values) }); allocs != 0 {
		t.Fatalf("AppendNotify into room made %v allocations, want 0", allocs)
	}
	if _, err := AppendNotify(nil, 1, 1, []string{string(make([]byte, MaxFrame))}, []float64{1}); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("an oversize Notify: %v, want ErrFrameTooLarge", err)
	}
}

func TestStreamReader(t *testing.T) {
	msgs := rpcMessages()
	var stream bytes.Buffer
	for _, m := range msgs {
		if err := WriteMessage(&stream, m); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	sources := map[string]func([]byte) io.Reader{
		"one read":      func(b []byte) io.Reader { return bytes.NewReader(b) },
		"byte per read": func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) },
		"own bufio":     func(b []byte) io.Reader { return bufio.NewReaderSize(bytes.NewReader(b), 8<<10) },
	}
	for name, source := range sources {
		sr := NewStreamReader(source(stream.Bytes()))
		for i, want := range msgs {
			got, err := sr.ReadMessage()
			if err != nil {
				t.Fatalf("%s: read %d: %v", name, i, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: read %d: got %#v want %#v", name, i, got, want)
			}
		}
		if _, err := sr.ReadMessage(); err != io.EOF {
			t.Fatalf("%s: end of stream: got %v, want io.EOF", name, err)
		}
	}
}

func TestStreamReaderMidFrameCut(t *testing.T) {
	full, err := EncodeFrame(simnet.Message{From: 1, To: 2, Payload: Subscribe{Ref: 1, ID: 2, Expr: "x in [0, 1]"}})
	if err != nil {
		t.Fatal(err)
	}
	// Cut the stream at every byte boundary inside the frame: a peer
	// dying mid-frame must surface as ErrUnexpectedEOF (or EOF when
	// nothing at all arrived), never a hang or panic.
	for cut := 0; cut < len(full); cut++ {
		sr := NewStreamReader(bytes.NewReader(full[:cut]))
		_, err := sr.ReadMessage()
		switch {
		case cut == 0 && err != io.EOF:
			t.Fatalf("cut 0: got %v, want io.EOF", err)
		case cut > 0 && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, ErrTruncated):
			t.Fatalf("cut %d: got %v", cut, err)
		}
	}
}

// TestStreamReaderFrameBuffered: a frame counts as buffered only when
// all of it is, so a frame cut anywhere, its length prefix included,
// does not promise a ReadMessage that returns without waiting.
func TestStreamReaderFrameBuffered(t *testing.T) {
	var whole []byte
	for ref := uint64(1); ref <= 3; ref++ {
		var err error
		if whole, err = AppendFrame(whole, simnet.Message{Payload: Subscribe{Ref: ref, ID: 2, Expr: "x in [0, 1]"}}); err != nil {
			t.Fatal(err)
		}
	}
	third := len(whole) / 3
	for cut := 2 * third; cut <= len(whole); cut++ {
		sr := NewStreamReader(bytes.NewReader(whole[:cut]))
		if sr.FrameBuffered() {
			t.Fatalf("cut %d: a frame is buffered before the first read", cut)
		}
		if _, err := sr.ReadMessage(); err != nil {
			t.Fatal(err)
		}
		if !sr.FrameBuffered() {
			t.Fatalf("cut %d: the whole second frame is not reported buffered", cut)
		}
		if _, err := sr.ReadMessage(); err != nil {
			t.Fatal(err)
		}
		if got, want := sr.FrameBuffered(), cut == len(whole); got != want {
			t.Fatalf("cut %d of %d: third frame buffered = %v, want %v", cut, len(whole), got, want)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	valid, err := EncodeFrame(simnet.Message{From: 1, To: 2, Payload: Ack{Ref: 3, Err: "x"}})
	if err != nil {
		t.Fatal(err)
	}

	badVersion := bytes.Clone(valid)
	badVersion[4] = 99
	badKind := bytes.Clone(valid)
	badKind[5] = 0xff
	trailing := bytes.Clone(valid)
	trailing = append(trailing[:len(trailing)-0], 0xaa)
	binary.BigEndian.PutUint32(trailing, uint32(len(trailing)-4))
	huge := make([]byte, 8)
	binary.BigEndian.PutUint32(huge, MaxFrame+1)

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"short prefix", []byte{0, 0}, ErrTruncated},
		{"declared beyond data", valid[:len(valid)-1], ErrTruncated},
		{"bad version", badVersion, ErrBadVersion},
		{"unknown kind", badKind, ErrUnknownKind},
		{"trailing bytes", trailing, ErrTrailingBytes},
		{"over MaxFrame", huge, ErrFrameTooLarge},
	}
	for _, tc := range cases {
		if _, _, err := DecodeFrame(tc.data); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}

	// Truncate inside the payload at every boundary: always an error,
	// never a panic.
	for cut := 4; cut < len(valid); cut++ {
		data := bytes.Clone(valid[:cut])
		binary.BigEndian.PutUint32(data, uint32(cut-4))
		if _, _, err := DecodeFrame(data); err == nil {
			t.Errorf("cut %d: decode accepted a truncated body", cut)
		}
	}
}

func TestNestedBounceRejected(t *testing.T) {
	m := simnet.Message{Payload: simnet.Bounce{To: 1, Original: simnet.Bounce{To: 2, Original: Ack{}}}}
	if _, err := EncodeFrame(m); err == nil {
		t.Fatal("encoding a nested bounce succeeded")
	}
	if _, err := EncodeFrame(simnet.Message{Payload: struct{ X int }{1}}); err == nil {
		t.Fatal("encoding an unregistered payload succeeded")
	}
}

func TestBoolRejectsNonCanonical(t *testing.T) {
	// A Subscribe frame is bool-free; craft a Hello-sized check via the
	// Reader directly: bool bytes other than 0/1 are malformed.
	r := &Reader{buf: []byte{2}}
	r.Bool()
	if !errors.Is(r.Err(), ErrBadValue) {
		t.Fatalf("bool 2: got %v", r.Err())
	}
}

func TestKindRegistry(t *testing.T) {
	if k, ok := KindOf(Hello{}); !ok || k != KindHello {
		t.Fatalf("KindOf(Hello) = %#x, %v", k, ok)
	}
	if _, ok := KindOf(struct{}{}); ok {
		t.Fatal("KindOf accepted an unregistered type")
	}
	kinds := RegisteredKinds()
	for i := 1; i < len(kinds); i++ {
		if kinds[i-1] >= kinds[i] {
			t.Fatalf("RegisteredKinds not strictly ascending: %v", kinds)
		}
	}
	// The wire package itself registers the bounce and the seven RPCs;
	// overlay kinds are registered by internal/proto (tested there).
	want := []byte{KindBounce, KindHello, KindSubscribe, KindUnsubscribe, KindPublish, KindNotify, KindAck, KindAttach}
	for _, k := range want {
		if _, ok := kindTable[k]; !ok {
			t.Fatalf("kind %#x not registered", k)
		}
	}
}

// TestHelloLegacyDecode pins the negotiation's backward edge: a Hello
// encoded before the Proto field existed (body ends after Node) still
// decodes, reading Proto 0 — "speak the current protocol".
func TestHelloLegacyDecode(t *testing.T) {
	buf, err := EncodeFrame(simnet.Message{Payload: Hello{Node: 5}})
	if err != nil {
		t.Fatal(err)
	}
	// Proto 0 encodes as a single trailing zero byte; dropping it (and
	// shrinking the length prefix) reconstructs the pre-versioning frame.
	legacy := bytes.Clone(buf[:len(buf)-1])
	binary.BigEndian.PutUint32(legacy, uint32(len(legacy)-4))
	got, n, err := DecodeFrame(legacy)
	if err != nil {
		t.Fatalf("legacy hello: %v", err)
	}
	if n != len(legacy) {
		t.Fatalf("legacy hello consumed %d of %d bytes", n, len(legacy))
	}
	h, ok := got.Payload.(Hello)
	if !ok || h.Node != 5 || h.Proto != 0 {
		t.Fatalf("legacy hello decoded as %#v", got.Payload)
	}
}

func TestReaderStickyError(t *testing.T) {
	r := &Reader{buf: []byte{}}
	_ = r.Byte()
	first := r.Err()
	if first == nil {
		t.Fatal("read past end did not fail")
	}
	_ = r.Uvarint()
	_ = r.F64()
	_ = r.Rect()
	_ = r.Point()
	_ = r.String()
	if r.Err() != first {
		t.Fatalf("sticky error replaced: %v -> %v", first, r.Err())
	}
}
