package state

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// TestSnapshotSuffixEquivalence is the store's core correctness
// property: for any interleaving of appends, snapshots, and compacts,
// replaying (snapshot + suffix) must reconstruct exactly the state that
// replaying the full uncompacted log would have. The reference model is
// a plain slice of every record ever appended plus the index at which
// the last snapshot was cut; the store under test is driven through a
// random op sequence and checked after every snapshot-affecting op and
// after a reopen.
func TestSnapshotSuffixEquivalence(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			w, err := OpenWAL(dir)
			if err != nil {
				t.Fatalf("OpenWAL: %v", err)
			}
			var cur Store = w
			mem := NewMem()

			// Reference model: full append history + snapshot cut point.
			var all [][]byte
			cut := -1 // index of last record covered by the snapshot
			snapped := false
			var snapState []byte

			check := func(label string) {
				t.Helper()
				for name, s := range map[string]Store{"wal": cur, "mem": mem} {
					snap, hasSnap, recs := collect(t, s)
					if hasSnap != snapped {
						t.Fatalf("%s/%s: hasSnap=%v want %v", label, name, hasSnap, snapped)
					}
					if snapped && !bytes.Equal(snap, snapState) {
						t.Fatalf("%s/%s: snapshot %q want %q", label, name, snap, snapState)
					}
					want := all[cut+1:]
					if len(recs) != len(want) {
						t.Fatalf("%s/%s: %d suffix records, want %d", label, name, len(recs), len(want))
					}
					for i := range want {
						if !bytes.Equal(recs[i], want[i]) {
							t.Fatalf("%s/%s: suffix record %d = %q want %q", label, name, i, recs[i], want[i])
						}
					}
				}
			}

			for op := 0; op < 200; op++ {
				switch r := rng.Intn(10); {
				case r < 6: // append
					rec := []byte(fmt.Sprintf("r%03d-%x", len(all), rng.Uint32()))
					if err := appendRec(cur, rec); err != nil {
						t.Fatalf("wal Append: %v", err)
					}
					if err := appendRec(mem, rec); err != nil {
						t.Fatalf("mem Append: %v", err)
					}
					all = append(all, rec)
				case r < 8: // snapshot: state summarizes the full history so far
					snapState = []byte(fmt.Sprintf("state-after-%d", len(all)))
					if err := snapshotAll(cur, snapState); err != nil {
						t.Fatalf("wal Snapshot: %v", err)
					}
					if err := snapshotAll(mem, snapState); err != nil {
						t.Fatalf("mem Snapshot: %v", err)
					}
					cut = len(all) - 1
					snapped = true
					check("snapshot")
				case r < 9: // compact
					if err := cur.Compact(); err != nil {
						t.Fatalf("wal Compact: %v", err)
					}
					if err := mem.Compact(); err != nil {
						t.Fatalf("mem Compact: %v", err)
					}
					check("compact")
				default: // crash/restart the WAL
					cur.Close()
					nw, err := OpenWAL(dir)
					if err != nil {
						t.Fatalf("reopen: %v", err)
					}
					cur = nw
					check("reopen")
				}
			}
			check("final")
			cur.Close()
		})
	}
}
