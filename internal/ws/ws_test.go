package ws

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// echoServer upgrades every request and echoes data messages back.
func echoServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c, err := Accept(w, r)
		if err != nil {
			return
		}
		defer c.Close()
		for {
			op, p, err := c.ReadMessage()
			if err != nil {
				return
			}
			if err := c.WriteMessage(op, p); err != nil {
				return
			}
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

func wsURL(srv *httptest.Server) string {
	return "ws" + strings.TrimPrefix(srv.URL, "http")
}

func dial(t *testing.T, srv *httptest.Server) *Conn {
	t.Helper()
	c, err := Dial(wsURL(srv), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestEchoRoundTrip(t *testing.T) {
	srv := echoServer(t)
	c := dial(t, srv)

	// Three sizes cross the three length encodings: 7-bit, 16-bit
	// extended, 64-bit extended.
	for _, n := range []int{5, 300, 70_000} {
		msg := bytes.Repeat([]byte{byte(n)}, n)
		op := byte(OpText)
		if n > 5 {
			op = OpBinary
		}
		if err := c.WriteMessage(op, msg); err != nil {
			t.Fatal(err)
		}
		gotOp, got, err := c.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		if gotOp != op || !bytes.Equal(got, msg) {
			t.Fatalf("size %d: echoed op=%d len=%d, want op=%d len=%d", n, gotOp, len(got), op, n)
		}
	}
}

func TestPingIsPonged(t *testing.T) {
	srv := echoServer(t)
	c := dial(t, srv)

	if err := c.WriteMessage(OpPing, []byte("hb")); err != nil {
		t.Fatal(err)
	}
	// White-box: read the raw frame so the auto-pong is observable.
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	op, fin, p, err := c.readFrame()
	if err != nil {
		t.Fatal(err)
	}
	if op != OpPong || !fin || string(p) != "hb" {
		t.Fatalf("got frame op=%d fin=%v payload=%q, want a pong echoing the ping payload", op, fin, p)
	}
}

func TestCloseHandshake(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c, err := Accept(w, r)
		if err != nil {
			return
		}
		defer c.Close()
		if _, _, err := c.ReadMessage(); !errors.Is(err, ErrClosed) {
			t.Errorf("server read after client close: err = %v, want ErrClosed", err)
		}
	}))
	t.Cleanup(srv.Close)

	c, err := Dial(wsURL(srv), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
}

func TestFragmentedMessageAssembles(t *testing.T) {
	srv := echoServer(t)
	c := dial(t, srv)

	// Hand-build text fragments: "hel" (FIN=0) + "lo" (continuation,
	// FIN=1), masked as a client must.
	writeRaw := func(fin bool, op byte, p []byte) {
		t.Helper()
		hdr := []byte{op, 0x80 | byte(len(p)), 1, 2, 3, 4}
		if fin {
			hdr[0] |= 0x80
		}
		masked := make([]byte, len(p))
		for i := range p {
			masked[i] = p[i] ^ hdr[2+i%4]
		}
		if _, err := c.c.Write(append(hdr, masked...)); err != nil {
			t.Fatal(err)
		}
	}
	writeRaw(false, OpText, []byte("hel"))
	writeRaw(true, OpContinuation, []byte("lo"))

	op, p, err := c.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if op != OpText || string(p) != "hello" {
		t.Fatalf("echoed op=%d %q, want the assembled text", op, p)
	}
}

// rawHandshake performs the HTTP upgrade by hand, for protocol-error
// tests that need byte-level control of what goes on the wire.
func rawHandshake(t *testing.T, srv *httptest.Server) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", strings.TrimPrefix(srv.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	req := "GET / HTTP/1.1\r\nHost: x\r\nUpgrade: websocket\r\nConnection: Upgrade\r\n" +
		"Sec-WebSocket-Key: AAAAAAAAAAAAAAAAAAAAAA==\r\nSec-WebSocket-Version: 13\r\n\r\n"
	if _, err := io.WriteString(nc, req); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(nc), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusSwitchingProtocols {
		t.Fatalf("handshake: %s", resp.Status)
	}
	return nc
}

func TestServerRejectsUnmaskedClientFrame(t *testing.T) {
	done := make(chan error, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c, err := Accept(w, r)
		if err != nil {
			return
		}
		defer c.Close()
		_, _, err = c.ReadMessage()
		done <- err
	}))
	t.Cleanup(srv.Close)

	nc := rawHandshake(t, srv)
	// FIN text frame, MASK bit clear: a protocol error from a client.
	if _, err := nc.Write([]byte{0x81, 0x02, 'h', 'i'}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "unmasked") {
			t.Fatalf("server read err = %v, want unmasked-frame rejection", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server never rejected the unmasked frame")
	}
}

func TestServerRejectsOversizeFrame(t *testing.T) {
	done := make(chan error, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c, err := Accept(w, r)
		if err != nil {
			return
		}
		defer c.Close()
		_, _, err = c.ReadMessage()
		done <- err
	}))
	t.Cleanup(srv.Close)

	nc := rawHandshake(t, srv)
	// Masked binary frame whose 64-bit length claims 1 GiB: must be
	// refused on the header alone, no allocation, no read of the body.
	hdr := []byte{0x82, 0x80 | 127, 0, 0, 0, 0, 0x40, 0, 0, 0, 1, 2, 3, 4}
	if _, err := nc.Write(hdr); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "exceeds cap") {
			t.Fatalf("server read err = %v, want frame-cap rejection", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server never rejected the oversize frame")
	}
}

func TestHandshakeRejectsPlainGET(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := Accept(w, r); err == nil {
			t.Error("plain GET must not upgrade")
		}
	}))
	t.Cleanup(srv.Close)
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

// TestSlowReaderHitsWriteDeadline is the WebSocket half of the slow-
// subscriber story: a client that stops reading fills the socket
// buffers, the server's next write expires its deadline, and only that
// connection dies — a second client keeps echoing throughout.
func TestSlowReaderHitsWriteDeadline(t *testing.T) {
	srv := echoServer(t)

	failed := make(chan error, 1)
	blocked := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c, err := Accept(w, r)
		if err != nil {
			return
		}
		defer c.Close()
		if tc, ok := c.c.(*net.TCPConn); ok {
			tc.SetWriteBuffer(4 << 10)
		}
		c.SetWriteTimeout(150 * time.Millisecond)
		payload := make([]byte, 64<<10)
		for {
			if err := c.WriteMessage(OpBinary, payload); err != nil {
				failed <- err
				return
			}
		}
	}))
	t.Cleanup(blocked.Close)

	slow, err := Dial(wsURL(blocked), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { slow.Close() })
	if tc, ok := slow.c.(*net.TCPConn); ok {
		tc.SetReadBuffer(4 << 10)
	}
	// The slow client never reads. While the server is jamming against
	// it, an independent connection stays live.
	c2 := dial(t, srv)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := c2.WriteText([]byte("still alive")); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c2.ReadMessage(); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-failed:
			var ne net.Error
			if !errors.As(err, &ne) || !ne.Timeout() {
				t.Fatalf("slow writer failed with %v, want a deadline timeout", err)
			}
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("server writer never hit its deadline against the non-reading client")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// recordConn is the write side of a connection under test control.
type recordConn struct {
	net.Conn
	fail   error
	writes [][]byte
}

func (c *recordConn) SetWriteDeadline(time.Time) error { return nil }

func (c *recordConn) Write(p []byte) (int, error) {
	if c.fail != nil {
		return 0, c.fail
	}
	c.writes = append(c.writes, append([]byte(nil), p...))
	return len(p), nil
}

// TestQueueTextThenFlush: what the WebSocket framer adds to the shared
// writer (wire.ConnWriter has the buffer's own tests) — queued messages
// and the WriteText behind them leave as frames a peer of the other role
// reads back, masked or not, in order and in one write, and a message
// over MaxPayload is refused before it is framed.
func TestQueueTextThenFlush(t *testing.T) {
	for _, client := range []bool{false, true} {
		rc := &recordConn{}
		c := newConn(rc, nil, client)
		for _, s := range []string{"one", "two", "three"} {
			if err := c.QueueText([]byte(s)); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.QueueText(make([]byte, MaxPayload+1)); err == nil {
			t.Fatal("an oversize message was queued")
		}
		if err := c.WriteText([]byte("ack")); err != nil {
			t.Fatal(err)
		}
		if len(rc.writes) != 1 {
			t.Fatalf("client=%v: %d writes, want 1", client, len(rc.writes))
		}
		peer := newConn(rc, bufio.NewReader(bytes.NewReader(rc.writes[0])), !client)
		for _, want := range []string{"one", "two", "three", "ack"} {
			op, p, err := peer.ReadMessage()
			if err != nil || op != OpText || string(p) != want {
				t.Fatalf("client=%v: read %q (op %d, %v), want %q", client, p, op, err, want)
			}
		}
	}
}

// stallConn is a pipe end whose peer never reads: a write blocks until
// its deadline or until the connection is closed. writing is closed when
// the first write starts.
type stallConn struct {
	net.Conn
	once    sync.Once
	writing chan struct{}
}

func (c *stallConn) Write(p []byte) (int, error) {
	c.once.Do(func() { close(c.writing) })
	return c.Conn.Write(p)
}

// TestCloseDoesNotWaitOutStalledWrite: Close while a write is stalled on
// a client that stopped reading returns at once — it does not queue its
// close frame behind that write and wait out the write's deadline — and
// the stalled write fails.
func TestCloseDoesNotWaitOutStalledWrite(t *testing.T) {
	server, client := net.Pipe()
	defer client.Close() // never read
	sc := &stallConn{Conn: server, writing: make(chan struct{})}
	c := newConn(sc, nil, false)
	c.SetWriteTimeout(10 * time.Second)
	failed := make(chan error, 1)
	go func() { failed <- c.WriteText([]byte("into a socket nobody reads")) }()
	<-sc.writing // the write holds the writer until the pipe gives way

	start := time.Now()
	c.Close()
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Fatalf("Close took %v behind a stalled write", took)
	}
	select {
	case err := <-failed:
		if err == nil {
			t.Fatal("the stalled write succeeded on a closed connection")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the stalled write outlived Close")
	}
}
