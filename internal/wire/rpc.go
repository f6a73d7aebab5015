package wire

// Broker-level RPCs. These payloads prove the framing is
// engine-agnostic — the same codec that moves overlay maintenance
// messages between daemons also carries the subscriber-facing
// subscribe/publish protocol — and they are what drtreed's binary
// client speaks on a raw TCP connection. Frames carrying RPCs use
// From = To = 0: RPCs address a connection, not an overlay process.
//
// Every request carries a client-chosen Ref echoed by the Ack that
// answers it, so a client can pipeline requests on one connection.
// Events are encoded as parallel attribute/value slices (the schema's
// map form is rebuilt at the edges) to keep frames deterministic.

// ProtoVersion is the current major version of the RPC protocol,
// negotiated by the Hello that opens every connection. Version 0 (a
// Hello encoded before the field existed) is read as "speak the
// current protocol"; a peer announcing a major this build does not
// know is refused at accept time rather than misparsed mid-stream.
const ProtoVersion = 1

// Hello opens a connection: a negative Node introduces a subscriber
// client session, a non-negative Node introduces daemon Node's overlay
// peer link. Proto announces the sender's protocol major version.
type Hello struct {
	Node  int
	Proto int
}

// Subscribe asks the daemon to register subscriber ID with the filter
// expression Expr (internal/filter syntax). Matching events flow back
// as Notify frames on the same connection.
type Subscribe struct {
	Ref  uint64
	ID   int64
	Expr string
}

// Unsubscribe removes subscriber ID.
type Unsubscribe struct {
	Ref uint64
	ID  int64
}

// Publish injects one event from Producer (which must be a subscriber
// on this connection's daemon).
type Publish struct {
	Ref      uint64
	Producer int64
	Attrs    []string
	Values   []float64
}

// Notify delivers one matched event to Subscriber. Seq is the
// subscriber's delivery sequence number (Envelope.Seq).
type Notify struct {
	Subscriber int64
	Seq        uint64
	Attrs      []string
	Values     []float64
}

// Attach re-binds this session to subscriber ID's delivery stream
// without re-registering it: the subscription already exists —
// typically recovered from a durable daemon's journal after a restart —
// and its Notify frames flow on this connection from the ack on.
type Attach struct {
	Ref uint64
	ID  int64
}

// Ack answers the request with the same Ref; Err is empty on success.
type Ack struct {
	Ref uint64
	Err string
}

// encAttrs writes parallel attribute/value slices; lengths must match
// (enforced at decode by construction: one count prefixes both).
func encAttrs(w *Writer, attrs []string, values []float64) {
	n := len(attrs)
	if len(values) < n {
		n = len(values)
	}
	w.Uvarint(uint64(n))
	for i := 0; i < n; i++ {
		w.String(attrs[i])
		w.F64(values[i])
	}
}

// encNotify writes a Notify body.
func encNotify(w *Writer, sub int64, seq uint64, attrs []string, values []float64) {
	w.Varint(sub)
	w.Uvarint(seq)
	encAttrs(w, attrs, values)
}

// AppendNotify appends to dst the frame AppendFrame writes for
// Notify{sub, seq, attrs, values} (From = To = 0), byte for byte,
// without boxing the payload or looking its kind up: a delivery path
// that reuses dst and the two slices encodes a Notify with no
// allocation. The decoder is the registered one.
func AppendNotify(dst []byte, sub int64, seq uint64, attrs []string, values []float64) ([]byte, error) {
	start := len(dst)
	w := Writer{buf: appendHeader(dst, KindNotify, 0, 0)}
	encNotify(&w, sub, seq, attrs, values)
	return endFrame(w.buf, start)
}

func decAttrs(r *Reader) ([]string, []float64) {
	n := r.Uvarint()
	if r.err != nil || n == 0 {
		return nil, nil
	}
	// Each pair costs at least 1 (empty-string length) + 8 bytes.
	if n > uint64(r.Remaining())/9 {
		r.Fail(ErrTruncated)
		return nil, nil
	}
	attrs := make([]string, n)
	values := make([]float64, n)
	for i := range attrs {
		attrs[i] = r.String()
		values[i] = r.F64()
	}
	return attrs, values
}

func init() {
	Register(KindHello, Hello{},
		func(w *Writer, p any) error {
			m := p.(Hello)
			w.Varint(int64(m.Node))
			w.Varint(int64(m.Proto))
			return nil
		},
		func(r *Reader) any {
			m := Hello{Node: int(r.Varint())}
			// Pre-versioning Hellos end after Node; their Proto reads 0.
			if r.Remaining() > 0 {
				m.Proto = int(r.Varint())
			}
			return m
		})
	Register(KindSubscribe, Subscribe{},
		func(w *Writer, p any) error {
			m := p.(Subscribe)
			w.Uvarint(m.Ref)
			w.Varint(m.ID)
			w.String(m.Expr)
			return nil
		},
		func(r *Reader) any {
			return Subscribe{Ref: r.Uvarint(), ID: r.Varint(), Expr: r.String()}
		})
	Register(KindUnsubscribe, Unsubscribe{},
		func(w *Writer, p any) error {
			m := p.(Unsubscribe)
			w.Uvarint(m.Ref)
			w.Varint(m.ID)
			return nil
		},
		func(r *Reader) any {
			return Unsubscribe{Ref: r.Uvarint(), ID: r.Varint()}
		})
	Register(KindPublish, Publish{},
		func(w *Writer, p any) error {
			m := p.(Publish)
			w.Uvarint(m.Ref)
			w.Varint(m.Producer)
			encAttrs(w, m.Attrs, m.Values)
			return nil
		},
		func(r *Reader) any {
			m := Publish{Ref: r.Uvarint(), Producer: r.Varint()}
			m.Attrs, m.Values = decAttrs(r)
			return m
		})
	Register(KindNotify, Notify{},
		func(w *Writer, p any) error {
			m := p.(Notify)
			encNotify(w, m.Subscriber, m.Seq, m.Attrs, m.Values)
			return nil
		},
		func(r *Reader) any {
			m := Notify{Subscriber: r.Varint(), Seq: r.Uvarint()}
			m.Attrs, m.Values = decAttrs(r)
			return m
		})
	Register(KindAttach, Attach{},
		func(w *Writer, p any) error {
			m := p.(Attach)
			w.Uvarint(m.Ref)
			w.Varint(m.ID)
			return nil
		},
		func(r *Reader) any {
			return Attach{Ref: r.Uvarint(), ID: r.Varint()}
		})
	Register(KindAck, Ack{},
		func(w *Writer, p any) error {
			m := p.(Ack)
			w.Uvarint(m.Ref)
			w.String(m.Err)
			return nil
		},
		func(r *Reader) any {
			return Ack{Ref: r.Uvarint(), Err: r.String()}
		})
}
