package pubsub

// The hash pool's snapshot bytes are pinned against bytes recorded from
// the broker at c3db5b7, before its two pool modes became one: the
// benchmark's offline replay and any store a daemon already wrote read
// them, so a hash pool must checkpoint exactly as the fixed pool did.

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"drtree/internal/core"
	"drtree/internal/filter"
	"drtree/internal/state"
	"drtree/internal/wire"
)

// hashCheckpointBlob subscribes n subscribers on a durable hash pool of
// the given size — with an unsubscribe and two filter updates when the
// pool is shared — and returns the snapshot blob Checkpoint writes.
func hashCheckpointBlob(t *testing.T, gateways, n int) []byte {
	t.Helper()
	s := state.NewMem()
	b := newDurableBroker(t, s, WithGateways(gateways), WithSnapshotEvery(0))
	defer b.Close()
	for i := 1; i <= n; i++ {
		f := filter.Range("price", float64(i)/3, float64(i)+math.Pi).
			And(filter.Range("qty", -float64(i), math.Nextafter(float64(i*i), 0)))
		if err := b.Subscribe(core.ProcID(i), f); err != nil {
			t.Fatalf("subscribe %d: %v", i, err)
		}
	}
	if n > gateways {
		if err := b.Unsubscribe(2); err != nil {
			t.Fatal(err)
		}
		if err := b.UpdateFilter(3, filter.Range("qty", 0.1, 0.7)); err != nil {
			t.Fatal(err)
		}
		if err := b.UpdateFilter(4, filter.New(filter.Predicate{Attr: "price", Op: filter.OpGt, Value: 1e-300})); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var blob []byte
	if err := s.Replay(func(e state.Entry) error {
		if e.Snapshot {
			blob = bytes.Clone(e.Data)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if blob == nil {
		t.Fatal("Checkpoint left no snapshot")
	}
	return blob
}

// splitSnapshot cuts a snapshot blob into its header (version, pool
// offsets, count) and its per-subscriber records, the latter sorted: a
// gateway writes its subscribers in map order, so only the record set,
// not its order inside one gateway, is a property of the broker.
func splitSnapshot(t *testing.T, blob []byte) (head []byte, recs []string) {
	t.Helper()
	r := wire.NewReader(blob)
	pos := func() int { return len(blob) - r.Remaining() }
	r.Byte()
	for np := r.Uvarint(); np > 0; np-- {
		r.Uvarint()
	}
	n := r.Uvarint()
	head = blob[:pos()]
	for ; n > 0 && r.Err() == nil; n-- {
		start := pos()
		r.Varint()
		r.Uvarint()
		decodeFilter(r)
		recs = append(recs, string(blob[start:pos()]))
	}
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("snapshot does not parse: err %v, %d trailing bytes", r.Err(), r.Remaining())
	}
	slices.Sort(recs)
	return head, recs
}

func TestHashPoolCheckpointGolden(t *testing.T) {
	for _, tc := range []struct {
		name        string
		gateways, n int
		exact       bool // one subscriber per gateway: the blob's order is fixed too
	}{
		{"hash8x8", 8, 8, true},
		{"hash4x24", 4, 24, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := hashCheckpointBlob(t, tc.gateways, tc.n)
			want, err := os.ReadFile(filepath.Join("testdata", "checkpoint_"+tc.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if tc.exact && !bytes.Equal(got, want) {
				t.Fatalf("snapshot bytes differ from the recorded ones:\n got %x\nwant %x", got, want)
			}
			gotHead, gotRecs := splitSnapshot(t, got)
			wantHead, wantRecs := splitSnapshot(t, want)
			if !bytes.Equal(gotHead, wantHead) {
				t.Fatalf("snapshot header %x, recorded %x", gotHead, wantHead)
			}
			if !slices.Equal(gotRecs, wantRecs) {
				t.Fatalf("snapshot records differ from the recorded ones:\n got %x\nwant %x", gotRecs, wantRecs)
			}
		})
	}
}
