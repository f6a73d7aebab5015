// Package ws is a minimal RFC 6455 WebSocket implementation — just the
// subset the drtreed subscriber front end needs: the server-side
// upgrade handshake over net/http's Hijacker, a client dialer for tests
// and tools, single- and multi-frame text/binary messages, and the
// control frames (close, ping/pong). No extensions, no compression, no
// subprotocols. The standard library has no WebSocket package and the
// repo takes no external dependencies, so the daemon carries its own.
//
// Concurrency contract: one goroutine owns the read side (ReadMessage),
// writes go through a wire.ConnWriter — the buffered writer of
// transport.Conn and the peer links too, with this package's framer —
// so frames never interleave and a slow or dead peer fails its own
// connection without stalling others. Close does not wait for a write
// in flight: the close frame is sent only when the write side is idle.
package ws

import (
	"bufio"
	"crypto/rand"
	"crypto/sha1"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"

	"drtree/internal/wire"
)

// Opcodes of the frames this package speaks (RFC 6455 §5.2).
const (
	OpContinuation = 0x0
	OpText         = 0x1
	OpBinary       = 0x2
	OpClose        = 0x8
	OpPing         = 0x9
	OpPong         = 0xA
)

// MaxPayload caps one message's assembled payload, mirroring
// wire.MaxFrame: a length prefix must never make the reader allocate
// unbounded memory.
const MaxPayload = 1 << 20

// ErrClosed reports an orderly close: the peer sent a close frame (the
// echo has already been written best-effort).
var ErrClosed = errors.New("ws: connection closed by peer")

// magic is the fixed GUID of the accept-key computation (RFC 6455 §4.1).
const magic = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

// AcceptKey computes the Sec-WebSocket-Accept value for a client key.
func AcceptKey(key string) string {
	h := sha1.Sum([]byte(key + magic))
	return base64.StdEncoding.EncodeToString(h[:])
}

// Conn is one WebSocket connection after the handshake.
type Conn struct {
	c  net.Conn
	br *bufio.Reader

	// client marks the dialing side: it masks outbound frames and
	// requires unmasked inbound ones; the server side is the inverse.
	client bool

	w         *wire.ConnWriter
	closeSent atomic.Bool // the close frame has had its one attempt

	rbuf []byte // frame scratch, reused across reads
}

func newConn(nc net.Conn, br *bufio.Reader, client bool) *Conn {
	return &Conn{c: nc, br: br, client: client, w: wire.NewConnWriter(nc, 0)}
}

// Accept upgrades an HTTP request to a WebSocket connection (server
// side). On error the handshake failure has already been written to w.
func Accept(w http.ResponseWriter, r *http.Request) (*Conn, error) {
	fail := func(code int, format string, args ...any) (*Conn, error) {
		err := fmt.Errorf("ws: "+format, args...)
		http.Error(w, err.Error(), code)
		return nil, err
	}
	if r.Method != http.MethodGet {
		return fail(http.StatusMethodNotAllowed, "handshake requires GET, got %s", r.Method)
	}
	if !headerHasToken(r.Header, "Connection", "upgrade") || !headerHasToken(r.Header, "Upgrade", "websocket") {
		return fail(http.StatusBadRequest, "not a websocket upgrade request")
	}
	if v := r.Header.Get("Sec-WebSocket-Version"); v != "13" {
		return fail(http.StatusBadRequest, "unsupported websocket version %q", v)
	}
	key := r.Header.Get("Sec-WebSocket-Key")
	if key == "" {
		return fail(http.StatusBadRequest, "missing Sec-WebSocket-Key")
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		return fail(http.StatusInternalServerError, "response writer cannot hijack")
	}
	nc, brw, err := hj.Hijack()
	if err != nil {
		return nil, fmt.Errorf("ws: hijack: %w", err)
	}
	resp := "HTTP/1.1 101 Switching Protocols\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n" +
		"Sec-WebSocket-Accept: " + AcceptKey(key) + "\r\n\r\n"
	if _, err := brw.WriteString(resp); err != nil {
		nc.Close()
		return nil, fmt.Errorf("ws: handshake response: %w", err)
	}
	if err := brw.Flush(); err != nil {
		nc.Close()
		return nil, fmt.Errorf("ws: handshake flush: %w", err)
	}
	return newConn(nc, brw.Reader, false), nil
}

// headerHasToken reports whether a comma-separated header contains the
// token (case-insensitive), as the Connection header requires.
func headerHasToken(h http.Header, name, token string) bool {
	for _, v := range h.Values(name) {
		for _, part := range strings.Split(v, ",") {
			if strings.EqualFold(strings.TrimSpace(part), token) {
				return true
			}
		}
	}
	return false
}

// Dial opens a client connection to a ws:// URL.
func Dial(rawURL string, timeout time.Duration) (*Conn, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, fmt.Errorf("ws: %w", err)
	}
	if u.Scheme != "ws" {
		return nil, fmt.Errorf("ws: unsupported scheme %q (only ws)", u.Scheme)
	}
	host := u.Host
	if u.Port() == "" {
		host = net.JoinHostPort(u.Hostname(), "80")
	}
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	nc, err := net.DialTimeout("tcp", host, timeout)
	if err != nil {
		return nil, fmt.Errorf("ws: dial %s: %w", host, err)
	}
	nonce := make([]byte, 16)
	if _, err := rand.Read(nonce); err != nil {
		nc.Close()
		return nil, fmt.Errorf("ws: nonce: %w", err)
	}
	key := base64.StdEncoding.EncodeToString(nonce)
	path := u.RequestURI()
	req := "GET " + path + " HTTP/1.1\r\n" +
		"Host: " + u.Host + "\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n" +
		"Sec-WebSocket-Key: " + key + "\r\n" +
		"Sec-WebSocket-Version: 13\r\n\r\n"
	nc.SetDeadline(time.Now().Add(timeout))
	if _, err := io.WriteString(nc, req); err != nil {
		nc.Close()
		return nil, fmt.Errorf("ws: handshake request: %w", err)
	}
	br := bufio.NewReader(nc)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("ws: handshake response: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusSwitchingProtocols {
		nc.Close()
		return nil, fmt.Errorf("ws: handshake refused: %s", resp.Status)
	}
	if got := resp.Header.Get("Sec-WebSocket-Accept"); got != AcceptKey(key) {
		nc.Close()
		return nil, fmt.Errorf("ws: bad accept key %q", got)
	}
	nc.SetDeadline(time.Time{})
	return newConn(nc, br, true), nil
}

// SetWriteTimeout bounds every subsequent frame write; zero disables.
func (c *Conn) SetWriteTimeout(d time.Duration) { c.w.SetTimeout(d) }

// SetReadDeadline bounds the next read.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.c.SetReadDeadline(t) }

// ReadMessage blocks for the next text or binary message, assembling
// continuation frames and answering control frames internally (ping is
// ponged, pong ignored). A peer close returns ErrClosed after echoing
// the close frame. Not safe for concurrent use; one goroutine owns the
// read side.
func (c *Conn) ReadMessage() (op byte, payload []byte, err error) {
	var msg []byte
	msgOp := byte(0)
	for {
		fop, fin, p, err := c.readFrame()
		if err != nil {
			return 0, nil, err
		}
		switch fop {
		case OpPing:
			c.WriteMessage(OpPong, p) // best-effort; the read side reports errors
			continue
		case OpPong:
			continue
		case OpClose:
			c.writeClose()
			return 0, nil, ErrClosed
		case OpText, OpBinary:
			if msgOp != 0 {
				return 0, nil, fmt.Errorf("ws: new data frame inside a fragmented message")
			}
			if fin {
				return fop, p, nil
			}
			msgOp = fop
			msg = append(msg, p...)
		case OpContinuation:
			if msgOp == 0 {
				return 0, nil, fmt.Errorf("ws: continuation frame outside a fragmented message")
			}
			if len(msg)+len(p) > MaxPayload {
				return 0, nil, fmt.Errorf("ws: fragmented message exceeds %d bytes", MaxPayload)
			}
			msg = append(msg, p...)
			if fin {
				return msgOp, msg, nil
			}
		default:
			return 0, nil, fmt.Errorf("ws: unknown opcode %#x", fop)
		}
	}
}

// readFrame reads one raw frame, unmasking as needed.
func (c *Conn) readFrame() (op byte, fin bool, payload []byte, err error) {
	var hdr [2]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		return 0, false, nil, err
	}
	if hdr[0]&0x70 != 0 {
		return 0, false, nil, fmt.Errorf("ws: nonzero RSV bits (no extensions negotiated)")
	}
	fin = hdr[0]&0x80 != 0
	op = hdr[0] & 0x0f
	masked := hdr[1]&0x80 != 0
	// The server requires masked client frames; the client requires
	// unmasked server frames (RFC 6455 §5.1 — both are protocol errors).
	if c.client == masked {
		if c.client {
			return 0, false, nil, fmt.Errorf("ws: server sent a masked frame")
		}
		return 0, false, nil, fmt.Errorf("ws: client sent an unmasked frame")
	}
	n := uint64(hdr[1] & 0x7f)
	switch n {
	case 126:
		var ext [2]byte
		if _, err := io.ReadFull(c.br, ext[:]); err != nil {
			return 0, false, nil, err
		}
		n = uint64(binary.BigEndian.Uint16(ext[:]))
	case 127:
		var ext [8]byte
		if _, err := io.ReadFull(c.br, ext[:]); err != nil {
			return 0, false, nil, err
		}
		n = binary.BigEndian.Uint64(ext[:])
	}
	if op >= OpClose { // control frames: FIN, <= 125 bytes (§5.5)
		if !fin || n > 125 {
			return 0, false, nil, fmt.Errorf("ws: malformed control frame (fin=%v len=%d)", fin, n)
		}
	}
	if n > MaxPayload {
		return 0, false, nil, fmt.Errorf("ws: frame of %d bytes exceeds cap %d", n, MaxPayload)
	}
	var mask [4]byte
	if masked {
		if _, err := io.ReadFull(c.br, mask[:]); err != nil {
			return 0, false, nil, err
		}
	}
	if uint64(cap(c.rbuf)) < n {
		c.rbuf = make([]byte, n)
	}
	payload = c.rbuf[:n]
	if _, err := io.ReadFull(c.br, payload); err != nil {
		return 0, false, nil, err
	}
	if masked {
		for i := range payload {
			payload[i] ^= mask[i%4]
		}
	}
	// Control frames can interleave with a fragmented message while the
	// caller still holds the assembled prefix; hand out a copy so the
	// scratch buffer can be reused for the next frame.
	out := make([]byte, n)
	copy(out, payload)
	return op, fin, out, nil
}

// WriteText sends one text message.
func (c *Conn) WriteText(p []byte) error { return c.WriteMessage(OpText, p) }

// WriteMessage queues one unfragmented message (or control frame) and
// writes everything queued, under the configured deadline. Safe for
// concurrent use.
func (c *Conn) WriteMessage(op byte, p []byte) error {
	return c.w.Write(func(b []byte) ([]byte, error) { return c.appendFrame(b, op, p) })
}

// QueueText appends one text message to the write buffer without
// writing it: the caller owes a Flush once it has nothing more to queue
// (see wire.ConnWriter.Queue). Safe for concurrent use.
func (c *Conn) QueueText(p []byte) error {
	return c.w.Queue(func(b []byte) ([]byte, error) { return c.appendFrame(b, OpText, p) })
}

// Flush writes everything queued in one Write under the configured
// deadline; with nothing queued it is free. Safe for concurrent use.
func (c *Conn) Flush() error { return c.w.Flush() }

// OnBatchWrite registers fn to be told, after each successful write
// that carried messages queued with QueueText, how many and how many
// bytes of them. Set it before the connection is shared.
func (c *Conn) OnBatchWrite(fn func(frames, bytes int)) { c.w.OnBatchWrite(fn) }

// appendFrame appends one unfragmented frame of p to dst: the header,
// then the payload, masked on the client side. A payload over
// MaxPayload is refused.
func (c *Conn) appendFrame(dst []byte, op byte, p []byte) ([]byte, error) {
	if len(p) > MaxPayload {
		return dst, fmt.Errorf("ws: message of %d bytes exceeds cap %d", len(p), MaxPayload)
	}
	var hdr [10]byte
	hdr[0] = 0x80 | op
	i := 2
	switch {
	case len(p) <= 125:
		hdr[1] = byte(len(p))
	case len(p) <= 0xffff:
		hdr[1] = 126
		binary.BigEndian.PutUint16(hdr[2:4], uint16(len(p)))
		i = 4
	default:
		hdr[1] = 127
		binary.BigEndian.PutUint64(hdr[2:10], uint64(len(p)))
		i = 10
	}
	if !c.client {
		return append(append(dst, hdr[:i]...), p...), nil
	}
	var mask [4]byte
	if _, err := rand.Read(mask[:]); err != nil {
		return dst, fmt.Errorf("ws: mask: %w", err)
	}
	hdr[1] |= 0x80
	dst = append(append(dst, hdr[:i]...), mask[:]...)
	off := len(dst)
	dst = append(dst, p...)
	for j := range p {
		dst[off+j] ^= mask[j%4]
	}
	return dst, nil
}

// writeClose sends the close frame once (1000: normal closure), and
// only if the write side is idle: a write stalled on a peer that stopped
// reading must not hold the close back until its deadline.
func (c *Conn) writeClose() {
	if c.closeSent.CompareAndSwap(false, true) {
		c.w.WriteIfIdle(func(b []byte) ([]byte, error) { return c.appendFrame(b, OpClose, []byte{0x03, 0xe8}) })
	}
}

// Close performs a best-effort closing handshake (close frame if the
// write side is idle, then the TCP close) and returns at once: a write
// in flight fails instead of holding Close until its deadline. Safe to
// call from any goroutine, including to unblock a reader or a writer.
func (c *Conn) Close() error {
	c.writeClose()
	return c.c.Close()
}
