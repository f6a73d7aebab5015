// Package ws is a minimal RFC 6455 WebSocket implementation — just the
// subset the drtreed subscriber front end needs: the server-side
// upgrade handshake over net/http's Hijacker, a client dialer for tests
// and tools, single- and multi-frame text/binary messages, and the
// control frames (close, ping/pong). No extensions, no compression, no
// subprotocols. The standard library has no WebSocket package and the
// repo takes no external dependencies, so the daemon carries its own.
//
// Concurrency contract: one goroutine owns the read side (ReadMessage),
// writes go through one reused buffer under an internal mutex with an
// optional deadline — the same discipline as transport.Conn (queue,
// then flush), so frames never interleave and a slow or dead peer fails
// its own connection without stalling others.
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
	"sync"
	"time"
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

	wmu          sync.Mutex
	writeTimeout time.Duration
	closeSent    bool
	wbuf         []byte // frames queued since the last write
	werr         error  // first write error; fails every later call

	// Messages queued by QueueText that the next write will carry, and
	// their frame bytes, reported to onBatch with that write.
	batchFrames, batchBytes int
	onBatch                 func(frames, bytes int)

	rbuf []byte // frame scratch, reused across reads
}

// flushHighWater is the size at which the write buffer is written out
// even though more frames are ready (see transport.Conn).
const flushHighWater = 32 << 10

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
	return &Conn{c: nc, br: brw.Reader}, nil
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
	return &Conn{c: nc, br: br, client: true}, nil
}

// SetWriteTimeout bounds every subsequent frame write; zero disables.
func (c *Conn) SetWriteTimeout(d time.Duration) {
	c.wmu.Lock()
	c.writeTimeout = d
	c.wmu.Unlock()
}

// SetReadDeadline bounds the next read.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.c.SetReadDeadline(t) }

// RemoteAddr names the peer.
func (c *Conn) RemoteAddr() net.Addr { return c.c.RemoteAddr() }

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
			c.writeFrame(OpPong, p) // best-effort; the read side reports errors
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
	if len(p) > MaxPayload {
		return fmt.Errorf("ws: message of %d bytes exceeds cap %d", len(p), MaxPayload)
	}
	return c.writeFrame(op, p)
}

// QueueText appends one text message to the write buffer without
// writing it: the caller owes a Flush once it has nothing more to
// queue. The buffer is written out early when it passes flushHighWater.
// Safe for concurrent use.
func (c *Conn) QueueText(p []byte) error {
	if len(p) > MaxPayload {
		return fmt.Errorf("ws: message of %d bytes exceeds cap %d", len(p), MaxPayload)
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	n, err := c.appendFrameLocked(OpText, p)
	if err != nil {
		return err
	}
	c.batchFrames++
	c.batchBytes += n
	if len(c.wbuf) >= flushHighWater {
		return c.flushLocked()
	}
	return nil
}

// Flush writes everything queued in one Write under the configured
// deadline; with nothing queued it is free. Safe for concurrent use.
func (c *Conn) Flush() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.flushLocked()
}

// OnBatchWrite registers fn to be told, after each successful write
// that carried messages queued with QueueText, how many and how many
// bytes of them. fn runs under the connection's write lock; set it
// before the connection is shared.
func (c *Conn) OnBatchWrite(fn func(frames, bytes int)) { c.onBatch = fn }

func (c *Conn) writeFrame(op byte, p []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.writeFrameLocked(op, p)
}

func (c *Conn) writeFrameLocked(op byte, p []byte) error {
	if _, err := c.appendFrameLocked(op, p); err != nil {
		return err
	}
	return c.flushLocked()
}

// appendFrameLocked appends one frame to the write buffer and returns
// its size.
func (c *Conn) appendFrameLocked(op byte, p []byte) (int, error) {
	if c.werr != nil {
		return 0, c.werr
	}
	var hdr [14]byte
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
	before := len(c.wbuf)
	if c.client {
		hdr[1] |= 0x80
		if _, err := rand.Read(hdr[i : i+4]); err != nil {
			return 0, fmt.Errorf("ws: mask: %w", err)
		}
		mask := hdr[i : i+4]
		c.wbuf = append(c.wbuf, hdr[:i+4]...)
		off := len(c.wbuf)
		c.wbuf = append(c.wbuf, p...)
		for j := range p {
			c.wbuf[off+j] ^= mask[j%4]
		}
	} else {
		c.wbuf = append(c.wbuf, hdr[:i]...)
		c.wbuf = append(c.wbuf, p...)
	}
	return len(c.wbuf) - before, nil
}

func (c *Conn) flushLocked() error {
	if c.werr != nil || len(c.wbuf) == 0 {
		return c.werr
	}
	if c.writeTimeout > 0 {
		c.c.SetWriteDeadline(time.Now().Add(c.writeTimeout))
	}
	_, c.werr = c.c.Write(c.wbuf)
	if cap(c.wbuf) > 2*flushHighWater {
		c.wbuf = nil // one oversize message must not pin its buffer
	}
	c.wbuf = c.wbuf[:0]
	if c.werr == nil && c.batchFrames > 0 && c.onBatch != nil {
		c.onBatch(c.batchFrames, c.batchBytes)
	}
	c.batchFrames, c.batchBytes = 0, 0
	return c.werr
}

// writeClose sends the close frame once (idempotent, best-effort).
func (c *Conn) writeClose() {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.closeSent {
		return
	}
	c.closeSent = true
	// 1000: normal closure.
	c.writeFrameLocked(OpClose, []byte{0x03, 0xe8})
}

// Close performs a best-effort closing handshake (close frame, then the
// TCP close). Safe to call from any goroutine, including to unblock a
// reader.
func (c *Conn) Close() error {
	c.writeClose()
	return c.c.Close()
}
