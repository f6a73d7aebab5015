// Package wire is the binary codec for DR-tree messages on real
// networks. A frame is a 4-byte big-endian length prefix followed by a
// payload of
//
//	version(1) kind(1) varint(from) varint(to) body
//
// where body is the kind-specific encoding of the message payload. The
// codec is engine-agnostic: any payload type registered through Register
// can ride a frame, which is how the same framing carries both the
// overlay maintenance protocol (internal/proto registers its message
// set) and the Broker-level subscribe/publish RPCs defined in this
// package. internal/transport moves frames over TCP; internal/simnet
// stays the deterministic in-process twin, so a frame's logical content
// is exactly one simnet.Message. StreamReader and ConnWriter are the
// read and write sides of a framed socket; ConnWriter takes its framing
// from the caller, so WebSocket sessions write through it too.
//
// Decoding is hardened against adversarial input: every primitive is
// bounds-checked against the remaining frame bytes before allocating,
// unknown versions and kinds are errors, and a decoder must consume its
// body exactly (trailing bytes are an error). Malformed input can make
// Decode fail; it must never make it panic or over-allocate — see
// FuzzDecodeFrame.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"

	"drtree/internal/geom"
	"drtree/internal/simnet"
)

// Version is the codec version carried in every frame's first payload
// byte. Decoders reject frames with any other value.
const Version byte = 1

// MaxFrame is the largest accepted frame payload (excluding the 4-byte
// length prefix). Larger frames are rejected before any allocation.
const MaxFrame = 1 << 20

// lenSize is the byte width of the frame length prefix.
const lenSize = 4

// Decode errors. Errors returned by DecodeFrame and ReadMessage wrap
// one of these sentinels.
var (
	ErrTruncated     = errors.New("wire: truncated frame")
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")
	ErrBadVersion    = errors.New("wire: unknown codec version")
	ErrUnknownKind   = errors.New("wire: unknown payload kind")
	ErrTrailingBytes = errors.New("wire: trailing bytes after payload body")
	ErrBadValue      = errors.New("wire: malformed value")
)

// Writer appends primitive encodings to a byte slice. Used by payload
// codecs registered through Register; encoding never fails.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer appending to buf (which may be nil). Other
// packages (the state journal codec) use it to build records with the
// same primitives frames use.
func NewWriter(buf []byte) *Writer { return &Writer{buf: buf} }

// Bytes returns everything written so far.
func (w *Writer) Bytes() []byte { return w.buf }

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(u uint64) { w.buf = binary.AppendUvarint(w.buf, u) }

// Varint appends a zig-zag signed varint.
func (w *Writer) Varint(i int64) { w.buf = binary.AppendVarint(w.buf, i) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(b bool) {
	if b {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// Byte appends one raw byte.
func (w *Writer) Byte(b byte) { w.buf = append(w.buf, b) }

// F64 appends a float64 as 8 big-endian bytes of its IEEE-754 bits.
func (w *Writer) F64(f float64) {
	w.buf = binary.BigEndian.AppendUint64(w.buf, math.Float64bits(f))
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Rect appends a rectangle as dims followed by per-dimension (lo, hi)
// pairs. The empty rectangle encodes as dims = 0.
func (w *Writer) Rect(r geom.Rect) {
	d := r.Dims()
	w.Uvarint(uint64(d))
	for i := 0; i < d; i++ {
		w.F64(r.Lo(i))
		w.F64(r.Hi(i))
	}
}

// Point appends a point as dims followed by coordinates.
func (w *Writer) Point(p geom.Point) {
	w.Uvarint(uint64(len(p)))
	for _, v := range p {
		w.F64(v)
	}
}

// Reader decodes primitives from a byte slice with a sticky error:
// after the first failure every subsequent read returns a zero value,
// so payload codecs can decode straight-line and check Err once.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader decoding buf from the start.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err reports the first decode failure, or nil.
func (r *Reader) Err() error { return r.err }

// Fail records the first decode error (no-op if one is already set);
// payload decoders use it to report kind-specific validation failures.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Remaining reports the undecoded byte count (decoders use it to
// validate declared lengths before allocating).
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Uvarint decodes an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	u, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.Fail(fmt.Errorf("%w: bad uvarint", ErrTruncated))
		return 0
	}
	r.off += n
	return u
}

// Varint decodes a zig-zag signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	i, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.Fail(fmt.Errorf("%w: bad varint", ErrTruncated))
		return 0
	}
	r.off += n
	return i
}

// Bool decodes one byte as a boolean; any value other than 0 or 1 is an
// error, so a frame has exactly one encoding.
func (r *Reader) Bool() bool {
	b := r.Byte()
	switch b {
	case 0:
		return false
	case 1:
		return true
	default:
		r.Fail(fmt.Errorf("%w: bool byte %#x", ErrBadValue, b))
		return false
	}
}

// Byte decodes one raw byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.Remaining() < 1 {
		r.Fail(ErrTruncated)
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

// F64 decodes 8 big-endian bytes as a float64.
func (r *Reader) F64() float64 {
	if r.err != nil {
		return 0
	}
	if r.Remaining() < 8 {
		r.Fail(ErrTruncated)
		return 0
	}
	u := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return math.Float64frombits(u)
}

// String decodes a length-prefixed string. The length is validated
// against the remaining frame bytes before allocating.
func (r *Reader) String() string {
	n := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(r.Remaining()) {
		r.Fail(fmt.Errorf("%w: string length %d exceeds frame", ErrTruncated, n))
		return ""
	}
	s := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// Rect decodes a rectangle. dims is validated against the remaining
// bytes (16 per dimension) before allocating, and the bounds are
// re-validated through geom.NewRect so a corrupted frame cannot smuggle
// NaNs or inverted intervals into the overlay.
func (r *Reader) Rect() geom.Rect {
	d := r.Uvarint()
	if r.err != nil {
		return geom.Rect{}
	}
	if d == 0 {
		return geom.Rect{}
	}
	if d > uint64(r.Remaining())/16 {
		r.Fail(fmt.Errorf("%w: rect dims %d exceed frame", ErrTruncated, d))
		return geom.Rect{}
	}
	lo := make([]float64, d)
	hi := make([]float64, d)
	for i := range lo {
		lo[i] = r.F64()
		hi[i] = r.F64()
	}
	if r.err != nil {
		return geom.Rect{}
	}
	rect, err := geom.NewRect(lo, hi)
	if err != nil {
		r.Fail(fmt.Errorf("%w: %v", ErrBadValue, err))
		return geom.Rect{}
	}
	return rect
}

// Point decodes a point; dims validated against remaining bytes (8 per
// coordinate) before allocating.
func (r *Reader) Point() geom.Point {
	d := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if d == 0 {
		return nil
	}
	if d > uint64(r.Remaining())/8 {
		r.Fail(fmt.Errorf("%w: point dims %d exceed frame", ErrTruncated, d))
		return nil
	}
	p := make(geom.Point, d)
	for i := range p {
		p[i] = r.F64()
	}
	return p
}

// AppendFrame appends the complete frame (length prefix + payload) for
// one message to dst and returns the extended slice. The payload type
// must be registered.
func AppendFrame(dst []byte, m simnet.Message) ([]byte, error) {
	kind, ent, err := lookupPayload(m.Payload)
	if err != nil {
		return dst, err
	}
	start := len(dst)
	w := Writer{buf: appendHeader(dst, kind, m.From, m.To)}
	if err := ent.enc(&w, m.Payload); err != nil {
		return dst[:start], err
	}
	return endFrame(w.buf, start)
}

// appendHeader starts a frame: a zero length prefix (endFrame fills it
// in), the version, the kind and the addresses.
func appendHeader(dst []byte, kind byte, from, to simnet.NodeID) []byte {
	dst = append(dst, 0, 0, 0, 0, Version, kind)
	dst = binary.AppendVarint(dst, int64(from))
	return binary.AppendVarint(dst, int64(to))
}

// endFrame backfills the length prefix of the frame that starts at
// dst[start:], or drops the frame when it exceeds MaxFrame.
func endFrame(dst []byte, start int) ([]byte, error) {
	n := len(dst) - start - lenSize
	if n > MaxFrame {
		return dst[:start], fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(n))
	return dst, nil
}

// EncodeFrame is AppendFrame into a fresh slice.
func EncodeFrame(m simnet.Message) ([]byte, error) { return AppendFrame(nil, m) }

// DecodeFrame decodes one complete frame (length prefix + payload) from
// the front of data, returning the message and the number of bytes
// consumed. It never panics on malformed input and never allocates more
// than the declared (validated) payload length.
func DecodeFrame(data []byte) (simnet.Message, int, error) {
	if len(data) < lenSize {
		return simnet.Message{}, 0, fmt.Errorf("%w: short length prefix", ErrTruncated)
	}
	n := binary.BigEndian.Uint32(data)
	if n > MaxFrame {
		return simnet.Message{}, 0, fmt.Errorf("%w: declared %d bytes", ErrFrameTooLarge, n)
	}
	if uint32(len(data)-lenSize) < n {
		return simnet.Message{}, 0, fmt.Errorf("%w: declared %d bytes, have %d", ErrTruncated, n, len(data)-lenSize)
	}
	m, err := decodePayload(data[lenSize : lenSize+int(n)])
	if err != nil {
		return simnet.Message{}, 0, err
	}
	return m, lenSize + int(n), nil
}

// decodePayload decodes a frame payload (everything after the length
// prefix). The body must be consumed exactly.
func decodePayload(payload []byte) (simnet.Message, error) {
	if len(payload) < 2 {
		return simnet.Message{}, fmt.Errorf("%w: payload shorter than header", ErrTruncated)
	}
	if payload[0] != Version {
		return simnet.Message{}, fmt.Errorf("%w: %#x", ErrBadVersion, payload[0])
	}
	kind := payload[1]
	ent, ok := kindTable[kind]
	if !ok {
		return simnet.Message{}, fmt.Errorf("%w: %#x", ErrUnknownKind, kind)
	}
	r := &Reader{buf: payload, off: 2}
	from := r.Varint()
	to := r.Varint()
	body := ent.dec(r)
	if r.err != nil {
		return simnet.Message{}, fmt.Errorf("wire: decode %s: %w", ent.name, r.err)
	}
	if r.Remaining() != 0 {
		return simnet.Message{}, fmt.Errorf("%w: %d after %s body", ErrTrailingBytes, r.Remaining(), ent.name)
	}
	return simnet.Message{
		From:    simnet.NodeID(from),
		To:      simnet.NodeID(to),
		Payload: body,
	}, nil
}

// WriteMessage encodes m and writes the frame to w.
func WriteMessage(w io.Writer, m simnet.Message) error {
	buf, err := EncodeFrame(m)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// StreamReader decodes a sequence of frames from an io.Reader, reading
// through a bufio.Reader — a burst of small frames costs one read, not
// two per frame — and reusing one frame buffer across messages.
type StreamReader struct {
	r   *bufio.Reader
	hdr [lenSize]byte
	buf []byte
}

// NewStreamReader wraps r for frame-at-a-time decoding. A *bufio.Reader
// of at least the default size is used as it is; frames larger than the
// buffer bypass it.
func NewStreamReader(r io.Reader) *StreamReader { return &StreamReader{r: bufio.NewReader(r)} }

// FrameBuffered reports whether a whole frame is already buffered, so
// that the next ReadMessage returns without waiting on the stream. A
// frame split across reads, or larger than the buffer, is not.
func (s *StreamReader) FrameBuffered() bool {
	n := s.r.Buffered()
	if n < lenSize {
		return false
	}
	hdr, _ := s.r.Peek(lenSize)
	return uint64(binary.BigEndian.Uint32(hdr)) <= uint64(n-lenSize)
}

// ReadMessage reads and decodes the next frame. It returns io.EOF on a
// clean end of stream and io.ErrUnexpectedEOF when the stream dies
// mid-frame.
func (s *StreamReader) ReadMessage() (simnet.Message, error) {
	if _, err := io.ReadFull(s.r, s.hdr[:]); err != nil {
		return simnet.Message{}, err
	}
	n := binary.BigEndian.Uint32(s.hdr[:])
	if n > MaxFrame {
		return simnet.Message{}, fmt.Errorf("%w: declared %d bytes", ErrFrameTooLarge, n)
	}
	if uint32(cap(s.buf)) < n {
		s.buf = make([]byte, n)
	}
	s.buf = s.buf[:n]
	if _, err := io.ReadFull(s.r, s.buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return simnet.Message{}, err
	}
	return decodePayload(s.buf)
}

// flushHighWater is the size at which a ConnWriter writes its buffer
// out even though more frames are ready, so a burst cannot grow it
// without bound; one write of 32 KiB already amortizes the syscall
// ~1000x over a Notify frame.
const flushHighWater = 32 << 10

// ConnWriter is the write side of a framed connection, StreamReader's
// twin: frames are appended to one reused buffer under a mutex, so they
// leave in the order they were queued and never interleave, and the
// buffer goes out in one Write under the write deadline. The first
// write error is sticky: it fails every later call. The framing is the
// caller's — every call takes an appendFrame that appends one complete
// frame to the buffer it is given — so binary frames, WebSocket frames
// and peer links share one buffer discipline. Safe for concurrent use.
type ConnWriter struct {
	c net.Conn

	mu      sync.Mutex
	timeout time.Duration
	buf     []byte // frames queued since the last write
	err     error  // first write error

	// Frames queued by Queue that the next write will carry, and their
	// bytes, reported to onBatch with that write.
	frames, bytes int
	onBatch       func(frames, bytes int)
}

// NewConnWriter returns a writer for c; a positive timeout bounds each
// write.
func NewConnWriter(c net.Conn, timeout time.Duration) *ConnWriter {
	return &ConnWriter{c: c, timeout: timeout}
}

// Queue appends one frame without writing it: the caller owes a Flush
// once it has nothing more to queue. The buffer is written out early
// when it reaches flushHighWater, so a frame larger than that is written
// through.
func (w *ConnWriter) Queue(appendFrame func([]byte) ([]byte, error)) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := len(w.buf)
	if err := w.appendLocked(appendFrame); err != nil {
		return err
	}
	w.frames++
	w.bytes += len(w.buf) - n
	if len(w.buf) >= flushHighWater {
		return w.flushLocked()
	}
	return nil
}

// Write appends one frame behind everything queued and writes it all.
func (w *ConnWriter) Write(appendFrame func([]byte) ([]byte, error)) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.appendLocked(appendFrame); err != nil {
		return err
	}
	return w.flushLocked()
}

// WriteIfIdle is Write when no other call is using the writer and
// nothing otherwise: a best-effort frame (a WebSocket close) must not
// wait out the deadline of a write stalled on a peer that stopped
// reading.
func (w *ConnWriter) WriteIfIdle(appendFrame func([]byte) ([]byte, error)) {
	if w.mu.TryLock() {
		defer w.mu.Unlock()
		if w.appendLocked(appendFrame) == nil {
			w.flushLocked()
		}
	}
}

// Flush writes everything queued in one Write; with nothing queued it
// is free.
func (w *ConnWriter) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.flushLocked()
}

// SetTimeout bounds every later write; zero disables the deadline.
func (w *ConnWriter) SetTimeout(d time.Duration) {
	w.mu.Lock()
	w.timeout = d
	w.mu.Unlock()
}

// OnBatchWrite registers fn to be told, after each successful write
// that carried frames queued with Queue, how many and how many bytes of
// them. fn runs under the writer's lock; set it before the writer is
// shared.
func (w *ConnWriter) OnBatchWrite(fn func(frames, bytes int)) { w.onBatch = fn }

// appendLocked adds one frame; a frame that fails to append leaves the
// buffer as it was (appending never touches the bytes already queued).
func (w *ConnWriter) appendLocked(appendFrame func([]byte) ([]byte, error)) error {
	if w.err != nil {
		return w.err
	}
	buf, err := appendFrame(w.buf)
	if err != nil {
		return err
	}
	w.buf = buf
	return nil
}

func (w *ConnWriter) flushLocked() error {
	if w.err != nil || len(w.buf) == 0 {
		return w.err
	}
	if w.timeout > 0 {
		w.c.SetWriteDeadline(time.Now().Add(w.timeout))
	}
	_, w.err = w.c.Write(w.buf)
	if cap(w.buf) > 2*flushHighWater {
		w.buf = nil // one oversize frame must not pin its buffer
	}
	w.buf = w.buf[:0]
	if w.err == nil && w.frames > 0 && w.onBatch != nil {
		w.onBatch(w.frames, w.bytes)
	}
	w.frames, w.bytes = 0, 0
	return w.err
}
