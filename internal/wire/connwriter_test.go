package wire

import (
	"bytes"
	"errors"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"drtree/internal/simnet"
)

// recordConn is the write side of a connection under test control: it
// records what is written, or fails every write.
type recordConn struct {
	net.Conn
	mu     sync.Mutex
	fail   error
	writes [][]byte
}

func (c *recordConn) SetWriteDeadline(time.Time) error { return nil }

func (c *recordConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fail != nil {
		return 0, c.fail
	}
	c.writes = append(c.writes, bytes.Clone(p))
	return len(p), nil
}

// frame is the appendFrame of one binary frame carrying m.
func frame(m simnet.Message) func([]byte) ([]byte, error) {
	return func(b []byte) ([]byte, error) { return AppendFrame(b, m) }
}

func ack(from, ref int) simnet.Message {
	return simnet.Message{From: simnet.NodeID(from), Payload: Ack{Ref: uint64(ref)}}
}

// decodeAll decodes data as back-to-back frames; a torn or interleaved
// frame fails the test.
func decodeAll(t *testing.T, data []byte) []simnet.Message {
	t.Helper()
	var out []simnet.Message
	for len(data) > 0 {
		m, n, err := DecodeFrame(data)
		if err != nil {
			t.Fatalf("frame %d: %v", len(out), err)
		}
		out, data = append(out, m), data[n:]
	}
	return out
}

// TestConnWriterQueueThenFlush: queued frames wait for the flush and
// leave in order in one write; Write carries everything queued before
// it; an empty flush is free; the batch hook counts only queued frames
// and their bytes; a frame that fails to append changes nothing.
func TestConnWriterQueueThenFlush(t *testing.T) {
	rc := &recordConn{}
	w := NewConnWriter(rc, time.Second)
	var frames, size int
	w.OnBatchWrite(func(f, b int) { frames, size = frames+f, size+b })
	want := []simnet.Message{ack(1, 1), ack(1, 2), ack(1, 3), ack(1, 4)}
	for _, m := range want[:3] {
		if err := w.Queue(frame(m)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Queue(frame(simnet.Message{Payload: struct{}{}})); err == nil {
		t.Fatal("a frame that failed to append was queued")
	}
	if len(rc.writes) != 0 {
		t.Fatal("Queue wrote before the flush")
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(frame(want[3])); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil || len(rc.writes) != 2 {
		t.Fatalf("flush of an empty buffer: %v, %d writes; want nil and the two writes so far", err, len(rc.writes))
	}
	if got := decodeAll(t, append(rc.writes[0], rc.writes[1]...)); !reflect.DeepEqual(got, want) {
		t.Fatalf("wrote %v, want %v", got, want)
	}
	if frames != 3 || size != len(rc.writes[0]) {
		t.Fatalf("batch hook saw %d frames, %d bytes; want the 3 queued frames, %d bytes", frames, size, len(rc.writes[0]))
	}

	// Write carries what was queued before it, after it in the buffer,
	// and the hook reports only the queued part.
	frames, size = 0, 0
	if err := w.Queue(frame(want[0])); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(frame(want[1])); err != nil {
		t.Fatal(err)
	}
	if got := decodeAll(t, rc.writes[2]); len(rc.writes) != 3 || !reflect.DeepEqual(got, want[:2]) {
		t.Fatalf("%d writes, the last carrying %v; want one write of %v", len(rc.writes), got, want[:2])
	}
	if frames != 1 || size == 0 || size >= len(rc.writes[2]) {
		t.Fatalf("batch hook saw %d frames, %d bytes of a %d-byte write; want the queued frame only", frames, size, len(rc.writes[2]))
	}
}

// TestConnWriterHighWater: a burst is written out when it reaches the
// high-water mark, before any flush; a frame larger than the mark is
// written through, and the buffer it grew is not kept.
func TestConnWriterHighWater(t *testing.T) {
	rc := &recordConn{}
	w := NewConnWriter(rc, 0)
	m := ack(1, 1)
	one, _ := EncodeFrame(m)
	n := 0
	for len(rc.writes) == 0 {
		if err := w.Queue(frame(m)); err != nil {
			t.Fatal(err)
		}
		n++
	}
	if got := n * len(one); got < flushHighWater || got-len(one) >= flushHighWater {
		t.Fatalf("early write after %d bytes queued, want it at the %d-byte mark", got, flushHighWater)
	}

	big := simnet.Message{Payload: Subscribe{Expr: string(make([]byte, 3*flushHighWater))}}
	if err := w.Queue(frame(big)); err != nil || len(rc.writes) != 2 {
		t.Fatalf("oversize frame: %v, %d writes; want it written through", err, len(rc.writes))
	}
	if cap(w.buf) != 0 {
		t.Fatalf("the writer kept a %d-byte buffer an oversize frame grew", cap(w.buf))
	}
}

// TestConnWriterStickyError: after a write error every later call fails
// with it and nothing more reaches the connection.
func TestConnWriterStickyError(t *testing.T) {
	rc := &recordConn{fail: errors.New("broken pipe")}
	w := NewConnWriter(rc, 0)
	if err := w.Write(frame(ack(1, 1))); !errors.Is(err, rc.fail) {
		t.Fatalf("write error = %v, want %v", err, rc.fail)
	}
	rc.fail = nil
	for name, err := range map[string]error{
		"Queue": w.Queue(frame(ack(1, 2))),
		"Flush": w.Flush(),
		"Write": w.Write(frame(ack(1, 3))),
	} {
		if err == nil {
			t.Errorf("%s succeeded on a writer that failed a write", name)
		}
	}
	w.WriteIfIdle(frame(ack(1, 4)))
	if len(rc.writes) != 0 {
		t.Fatalf("%d writes after the error, want none", len(rc.writes))
	}
}

// TestConnWriterConcurrentQueue: goroutines queueing and writing at once
// never interleave their frames, and each one's frames leave in its own
// order (run under -race).
func TestConnWriterConcurrentQueue(t *testing.T) {
	rc := &recordConn{}
	w := NewConnWriter(rc, 0)
	const writers, each = 8, 500
	var wg sync.WaitGroup
	for g := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				send := w.Queue
				if i%50 == 49 {
					send = w.Write
				}
				if err := send(frame(ack(g, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	next := make([]uint64, writers)
	got := decodeAll(t, bytes.Join(rc.writes, nil))
	for _, m := range got {
		g, ref := m.From, m.Payload.(Ack).Ref
		if ref != next[g] {
			t.Fatalf("writer %d: frame %d left where frame %d was due", g, ref, next[g])
		}
		next[g]++
	}
	if len(got) != writers*each {
		t.Fatalf("%d frames written, want %d", len(got), writers*each)
	}
}
