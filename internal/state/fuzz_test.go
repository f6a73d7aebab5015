package state

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReplay feeds arbitrary bytes to the WAL open/replay path as the
// log file's contents. Whatever the bytes, opening must never panic;
// when the input is a valid log prefix (possibly with a torn tail) the
// replay must be deterministic: replaying twice — and replaying after a
// close/reopen cycle — yields byte-identical histories.
func FuzzReplay(f *testing.F) {
	// Seed with real log shapes: empty, header-only, a few records, a
	// record with a torn tail, and plain garbage.
	f.Add([]byte{})
	f.Add(append([]byte(walMagic), walFormat))
	valid := append([]byte(walMagic), walFormat)
	valid = appendRecordFrame(valid, kindRecord, 1, []byte("alpha"))
	valid = appendRecordFrame(valid, kindRecord, 2, []byte("beta"))
	f.Add(valid)
	f.Add(append(append([]byte(nil), valid...), 0, 0, 0, 40, recVersion))
	f.Add([]byte("DRTSTATEgarbage that only starts like a log"))
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logName), raw, 0o644); err != nil {
			t.Skip()
		}
		w, err := OpenWAL(dir)
		if err != nil {
			return // rejected cleanly: bad magic / future format
		}
		var first [][]byte
		if err := w.Replay(func(e Entry) error {
			first = append(first, append([]byte(nil), e.Data...))
			return nil
		}); err != nil {
			t.Fatalf("Replay after successful open: %v", err)
		}
		var second [][]byte
		if err := w.Replay(func(e Entry) error {
			second = append(second, append([]byte(nil), e.Data...))
			return nil
		}); err != nil {
			t.Fatalf("second Replay: %v", err)
		}
		if len(first) != len(second) {
			t.Fatalf("replay not deterministic: %d vs %d records", len(first), len(second))
		}
		for i := range first {
			if !bytes.Equal(first[i], second[i]) {
				t.Fatalf("replay not deterministic at record %d", i)
			}
		}
		// The opened store must be writable regardless of input shape.
		if err := appendRec(w, []byte("probe")); err != nil {
			t.Fatalf("Append after open: %v", err)
		}
		w.Close()
		// Reopen replays the same prefix plus the probe record.
		w2, err := OpenWAL(dir)
		if err != nil {
			t.Fatalf("reopen after append: %v", err)
		}
		defer w2.Close()
		var third [][]byte
		if err := w2.Replay(func(e Entry) error {
			third = append(third, append([]byte(nil), e.Data...))
			return nil
		}); err != nil {
			t.Fatalf("Replay after reopen: %v", err)
		}
		if len(third) != len(first)+1 {
			t.Fatalf("reopen replayed %d records, want %d", len(third), len(first)+1)
		}
		for i := range first {
			if !bytes.Equal(third[i], first[i]) {
				t.Fatalf("reopen diverged at record %d", i)
			}
		}
		if string(third[len(third)-1]) != "probe" {
			t.Fatalf("probe record lost: %q", third[len(third)-1])
		}
	})
}
