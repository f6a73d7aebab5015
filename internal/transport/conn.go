package transport

import (
	"fmt"
	"net"
	"sync"
	"time"

	"drtree/internal/simnet"
	"drtree/internal/wire"
)

// flushHighWater is the size at which a write buffer is written out
// even though more frames are ready, so a burst cannot grow it without
// bound; one write of 32 KiB already amortizes the syscall ~1000x over
// a Notify frame.
const flushHighWater = 32 << 10

// Conn is one framed connection: reads are single-consumer, writes go
// through one reused buffer under an internal mutex, so frames leave in
// the order they were queued and never interleave. The transport hands
// a Conn to OnClient for adopted client sessions, and DialClient
// returns one for the client side.
type Conn struct {
	c  net.Conn
	sr *wire.StreamReader

	wmu          sync.Mutex
	writeTimeout time.Duration
	wbuf         []byte // frames queued since the last write
	werr         error  // first write error; fails every later call

	// Frames queued by QueueMessage that the next write will carry, and
	// their bytes, reported to onBatch with that write.
	batchFrames, batchBytes int
	onBatch                 func(frames, bytes int)
}

func newConn(c net.Conn, sr *wire.StreamReader, writeTimeout time.Duration) *Conn {
	if sr == nil {
		sr = wire.NewStreamReader(c)
	}
	return &Conn{c: c, sr: sr, writeTimeout: writeTimeout}
}

// ReadMessage blocks for the next frame. Not safe for concurrent use;
// one goroutine owns the read side.
func (c *Conn) ReadMessage() (simnet.Message, error) { return c.sr.ReadMessage() }

// WriteMessage queues one message and writes everything queued, under
// the write deadline. Safe for concurrent use.
func (c *Conn) WriteMessage(m simnet.Message) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if _, err := c.appendLocked(m); err != nil {
		return err
	}
	return c.flushLocked()
}

// QueueMessage appends one message to the write buffer without writing
// it: the caller owes a Flush once it has nothing more to queue. The
// buffer is written out early when it passes flushHighWater. Safe for
// concurrent use.
func (c *Conn) QueueMessage(m simnet.Message) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	n, err := c.appendLocked(m)
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

// Flush writes everything queued in one Write under the write deadline;
// with nothing queued it is free. Safe for concurrent use.
func (c *Conn) Flush() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.flushLocked()
}

// OnBatchWrite registers fn to be told, after each successful write
// that carried frames queued with QueueMessage, how many and how many
// bytes of them. fn runs under the connection's write lock; set it
// before the connection is shared.
func (c *Conn) OnBatchWrite(fn func(frames, bytes int)) { c.onBatch = fn }

func (c *Conn) appendLocked(m simnet.Message) (int, error) {
	if c.werr != nil {
		return 0, c.werr
	}
	before := len(c.wbuf)
	buf, err := wire.AppendFrame(c.wbuf, m)
	if err != nil {
		return 0, err
	}
	c.wbuf = buf
	return len(buf) - before, nil
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
		c.wbuf = nil // one oversize frame must not pin its buffer
	}
	c.wbuf = c.wbuf[:0]
	if c.werr == nil && c.batchFrames > 0 && c.onBatch != nil {
		c.onBatch(c.batchFrames, c.batchBytes)
	}
	c.batchFrames, c.batchBytes = 0, 0
	return c.werr
}

// SetReadDeadline bounds the next read.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.c.SetReadDeadline(t) }

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
	c := newConn(nc, nil, 5*time.Second)
	if err := c.WriteMessage(simnet.Message{Payload: wire.Hello{Node: -1, Proto: wire.ProtoVersion}}); err != nil {
		nc.Close()
		return nil, fmt.Errorf("transport: client hello: %w", err)
	}
	return c, nil
}
