package transport

import (
	"fmt"
	"net"
	"time"

	"drtree/internal/simnet"
	"drtree/internal/wire"
)

// Conn is one framed connection: reads are single-consumer, writes go
// through the embedded wire.ConnWriter (Queue, Write, Flush,
// OnBatchWrite), so frames leave in the order they were queued and
// never interleave. The transport hands a Conn to OnClient for adopted
// client sessions, and DialClient returns one for the client side.
type Conn struct {
	c  net.Conn
	sr *wire.StreamReader
	*wire.ConnWriter
}

func newConn(c net.Conn, sr *wire.StreamReader, writeTimeout time.Duration) *Conn {
	return &Conn{c: c, sr: sr, ConnWriter: wire.NewConnWriter(c, writeTimeout)}
}

// ReadMessage blocks for the next frame. Not safe for concurrent use;
// one goroutine owns the read side.
func (c *Conn) ReadMessage() (simnet.Message, error) { return c.sr.ReadMessage() }

// FrameBuffered reports whether a whole frame is already buffered, so
// that the next ReadMessage returns without waiting on the peer. Read
// side only, like ReadMessage.
func (c *Conn) FrameBuffered() bool { return c.sr.FrameBuffered() }

// WriteMessage queues one message and writes everything queued, under
// the write deadline. Safe for concurrent use.
func (c *Conn) WriteMessage(m simnet.Message) error { return c.WriteMessages(m) }

// WriteMessages queues ms, in order, and writes everything queued in
// one write under the write deadline. Safe for concurrent use.
func (c *Conn) WriteMessages(ms ...simnet.Message) error {
	return c.Write(func(b []byte) ([]byte, error) {
		var err error
		for _, m := range ms {
			if b, err = wire.AppendFrame(b, m); err != nil {
				return nil, err
			}
		}
		return b, nil
	})
}

// RemoteAddr names the peer.
func (c *Conn) RemoteAddr() net.Addr { return c.c.RemoteAddr() }

// Close closes the underlying connection (unblocking any reader).
func (c *Conn) Close() error { return c.c.Close() }

// DialClient opens a client session against a daemon's transport
// listener: it dials, introduces itself with a negative Hello node, and
// returns the framed connection, which the daemon routes to its RPC
// front end.
func DialClient(addr string, timeout time.Duration) (*Conn, error) {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	c := newConn(nc, wire.NewStreamReader(nc), 5*time.Second)
	if err := c.WriteMessage(simnet.Message{Payload: wire.Hello{Node: -1, Proto: wire.ProtoVersion}}); err != nil {
		nc.Close()
		return nil, fmt.Errorf("transport: client hello: %w", err)
	}
	return c, nil
}
