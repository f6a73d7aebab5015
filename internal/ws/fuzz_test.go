package ws

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"slices"
	"sync"
	"testing"
)

// rawFrame hand-encodes one frame, legal or not, for the fuzz seeds.
func rawFrame(fin bool, op byte, masked bool, payload []byte) []byte {
	b0 := op
	if fin {
		b0 |= 0x80
	}
	out := []byte{b0, 0}
	switch n := len(payload); {
	case n <= 125:
		out[1] = byte(n)
	case n <= 0xffff:
		out[1] = 126
		out = binary.BigEndian.AppendUint16(out, uint16(n))
	default:
		out[1] = 127
		out = binary.BigEndian.AppendUint64(out, uint64(n))
	}
	if !masked {
		return append(out, payload...)
	}
	out[1] |= 0x80
	mask := [4]byte{0x12, 0x34, 0x56, 0x78}
	out = append(out, mask[:]...)
	for i, b := range payload {
		out = append(out, b^mask[i%4])
	}
	return out
}

type fuzzMessage struct {
	op      byte
	payload []byte
}

// readAll feeds data through an in-memory pipe to a Conn of the given
// role and returns every message ReadMessage accepts before its first
// error. The peer end is drained, so the pongs and the close echo the
// reader writes never block it.
func readAll(t *testing.T, client bool, data []byte) []fuzzMessage {
	t.Helper()
	near, far := net.Pipe()
	c := newConn(near, bufio.NewReader(near), client)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		far.Write(data) // fails once the reader has given up; that is the test's business
		far.Close()
	}()
	go func() {
		defer wg.Done()
		io.Copy(io.Discard, far)
	}()
	var got []fuzzMessage
	for {
		op, payload, err := c.ReadMessage()
		if err != nil {
			break
		}
		if op != OpText && op != OpBinary {
			t.Fatalf("ReadMessage returned opcode %#x", op)
		}
		if len(payload) > MaxPayload {
			t.Fatalf("ReadMessage assembled %d bytes, cap is %d", len(payload), MaxPayload)
		}
		got = append(got, fuzzMessage{op, payload})
	}
	if cap(c.rbuf) > MaxPayload {
		t.Fatalf("frame scratch grew to %d bytes, cap is %d", cap(c.rbuf), MaxPayload)
	}
	near.Close()
	wg.Wait()
	return got
}

// FuzzReadMessage feeds arbitrary bytes to a server-side and a
// client-side Conn: the reader must fail cleanly (no panic, nothing
// sized by an unchecked length), and every message it does accept must
// re-encode through the peer role's WriteMessage and read back equal.
func FuzzReadMessage(f *testing.F) {
	hello := []byte("hello")
	for _, masked := range []bool{true, false} {
		f.Add(rawFrame(true, OpText, masked, hello))
		f.Add(rawFrame(true, OpBinary, masked, bytes.Repeat([]byte{7}, 300)))
		fragmented := append(rawFrame(false, OpText, masked, hello), rawFrame(true, OpContinuation, masked, hello)...)
		f.Add(fragmented)
		f.Add(fragmented[:len(fragmented)-3])
		f.Add(slices.Concat(
			rawFrame(false, OpBinary, masked, hello),
			rawFrame(true, OpPing, masked, []byte("p")),
			rawFrame(true, OpContinuation, masked, hello),
			rawFrame(true, OpClose, masked, []byte{0x03, 0xe8}),
		))
		f.Add(rawFrame(true, OpContinuation, masked, hello))
		f.Add(rawFrame(false, OpPing, masked, nil))
		len64 := rawFrame(true, OpBinary, masked, nil)[1] | 127
		f.Add(binary.BigEndian.AppendUint64([]byte{0x80 | OpBinary, len64}, 1<<40))
		f.Add(binary.BigEndian.AppendUint64([]byte{0x80 | OpBinary, len64}, MaxPayload+1))
	}
	f.Add([]byte{0xf1, 0x80})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, client := range []bool{false, true} {
			for _, m := range readAll(t, client, data) {
				rc := &recordConn{}
				peer := newConn(rc, nil, !client)
				if err := peer.WriteMessage(m.op, m.payload); err != nil {
					t.Fatalf("re-encode of an accepted message failed: %v", err)
				}
				back := readAll(t, client, slices.Concat(rc.writes...))
				if len(back) != 1 || back[0].op != m.op || !bytes.Equal(back[0].payload, m.payload) {
					t.Fatalf("accepted message (op %#x, %d bytes) did not survive a re-encode", m.op, len(m.payload))
				}
			}
		}
	})
}
