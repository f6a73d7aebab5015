package drtreed

import (
	"encoding/json"
	"io"
	"testing"

	"drtree/internal/core"
	"drtree/internal/pubsub"
)

// FuzzWSRequest feeds arbitrary WebSocket payloads through a session's
// request path — decode, apply, ack — on a memory-only daemon. No
// payload may panic it, and each one is answered by exactly one reply,
// "ok" or "error", in the current protocol version. The session lives
// across inputs, so what one input subscribes a later one may publish
// to, or unsubscribe.
func FuzzWSRequest(f *testing.F) {
	f.Add([]byte(`{"v":1,"op":"subscribe","id":1,"filter":"price in [0, 50] && volume >= 0"}`))
	f.Add([]byte(`{"op":"publish","producer":1,"event":{"price":5,"volume":1}}`))
	f.Add([]byte(`{"v":1,"op":"attach","id":1}`))
	f.Add([]byte(`{"v":1,"op":"unsubscribe","id":1}`))
	f.Add([]byte(`{"v":1,"op":"launch"}`))
	f.Add([]byte(`[]`))
	d := startClusterOf(f, 1, 2, WithLogf(func(string, ...any) {}))[0]
	s := d.openSession(nopConn{"fuzz"}, &d.wsStats,
		func(core.ProcID, pubsub.Envelope) error { return nil }, func() error { return nil })
	if s == nil {
		f.Fatal("daemon refused the session")
	}
	f.Cleanup(s.close)
	f.Fuzz(func(t *testing.T, payload []byte) {
		var replies [][]byte
		read := false
		s.serve(func() (request, error) {
			if read {
				return request{}, io.EOF
			}
			read = true
			return wsDecode(payload), nil
		}, nil, func(acks []ack) error {
			for _, a := range acks {
				replies = append(replies, wsAck(a))
			}
			return nil
		})
		if len(replies) != 1 {
			t.Fatalf("%q got %d replies, want 1", payload, len(replies))
		}
		var rep wsReply
		if err := json.Unmarshal(replies[0], &rep); err != nil {
			t.Fatalf("%q: reply %q does not decode: %v", payload, replies[0], err)
		}
		if rep.V != WSProtoVersion || (rep.Op != "ok" && rep.Op != "error") || (rep.Op == "error") != (rep.Error != "") {
			t.Fatalf("%q: reply %+v, want v%d ok, or error with a reason", payload, rep, WSProtoVersion)
		}
	})
}
