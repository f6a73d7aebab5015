package state

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// collect replays s into a (snapshot, records) pair with copied data.
func collect(t *testing.T, s Store) (snap []byte, hasSnap bool, recs [][]byte) {
	t.Helper()
	err := s.Replay(func(e Entry) error {
		if e.Snapshot {
			if hasSnap || len(recs) > 0 {
				t.Fatalf("snapshot entry out of position")
			}
			hasSnap = true
			snap = append([]byte(nil), e.Data...)
			return nil
		}
		recs = append(recs, append([]byte(nil), e.Data...))
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return snap, hasSnap, recs
}

// appendRec adds one durable record the way every caller of the
// interface does: Write, then Sync.
func appendRec(s Store, rec []byte) error {
	seq, err := s.Write(rec)
	if err != nil {
		return err
	}
	return s.Sync(seq)
}

// snapshotAll installs a baseline covering everything written so far.
func snapshotAll(s Store, blob []byte) error { return s.Snapshot(blob, s.Written()) }

func testRecords(n int) [][]byte {
	recs := make([][]byte, n)
	for i := range recs {
		recs[i] = []byte(fmt.Sprintf("record-%04d", i))
	}
	return recs
}

// storeVariants runs a subtest against both implementations. The reopen
// func models a process restart: for WAL it closes and reopens the
// directory, for Mem it returns the same store (Close is a no-op).
func storeVariants(t *testing.T, run func(t *testing.T, s Store, reopen func() Store)) {
	t.Run("mem", func(t *testing.T) {
		m := NewMem()
		run(t, m, func() Store { m.Close(); return m })
	})
	t.Run("wal", func(t *testing.T) {
		dir := t.TempDir()
		w, err := OpenWAL(dir)
		if err != nil {
			t.Fatalf("OpenWAL: %v", err)
		}
		var cur Store = w
		run(t, w, func() Store {
			cur.Close()
			nw, err := OpenWAL(dir)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			cur = nw
			return nw
		})
	})
}

func TestAppendReplayRoundtrip(t *testing.T) {
	storeVariants(t, func(t *testing.T, s Store, reopen func() Store) {
		want := testRecords(25)
		for _, r := range want {
			if err := appendRec(s, r); err != nil {
				t.Fatalf("Append: %v", err)
			}
		}
		_, hasSnap, got := collect(t, s)
		if hasSnap {
			t.Fatalf("unexpected snapshot")
		}
		if len(got) != len(want) {
			t.Fatalf("got %d records, want %d", len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
			}
		}
		// Restart: the same history must replay.
		s2 := reopen()
		_, _, got2 := collect(t, s2)
		if len(got2) != len(want) {
			t.Fatalf("after reopen: %d records, want %d", len(got2), len(want))
		}
	})
}

func TestSnapshotCoversLog(t *testing.T) {
	storeVariants(t, func(t *testing.T, s Store, reopen func() Store) {
		for _, r := range testRecords(10) {
			if err := appendRec(s, r); err != nil {
				t.Fatalf("Append: %v", err)
			}
		}
		if err := snapshotAll(s, []byte("snap-state")); err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		if err := appendRec(s, []byte("after-snap")); err != nil {
			t.Fatalf("Append: %v", err)
		}
		snap, hasSnap, recs := collect(t, s)
		if !hasSnap || string(snap) != "snap-state" {
			t.Fatalf("snapshot = %q (present %v)", snap, hasSnap)
		}
		if len(recs) != 1 || string(recs[0]) != "after-snap" {
			t.Fatalf("post-snapshot records = %q", recs)
		}
		// Compact drops the covered prefix but changes nothing visible.
		if err := s.Compact(); err != nil {
			t.Fatalf("Compact: %v", err)
		}
		snap, hasSnap, recs = collect(t, s)
		if !hasSnap || string(snap) != "snap-state" || len(recs) != 1 {
			t.Fatalf("after compact: snapshot %q (present %v), records %q", snap, hasSnap, recs)
		}
		// And the whole state survives a restart.
		s2 := reopen()
		snap, hasSnap, recs = collect(t, s2)
		if !hasSnap || string(snap) != "snap-state" || len(recs) != 1 || string(recs[0]) != "after-snap" {
			t.Fatalf("after reopen: snapshot %q (present %v), records %q", snap, hasSnap, recs)
		}
	})
}

func TestCompactWithoutSnapshotIsNoop(t *testing.T) {
	storeVariants(t, func(t *testing.T, s Store, _ func() Store) {
		for _, r := range testRecords(5) {
			appendRec(s, r)
		}
		if err := s.Compact(); err != nil {
			t.Fatalf("Compact: %v", err)
		}
		_, _, recs := collect(t, s)
		if len(recs) != 5 {
			t.Fatalf("compact without snapshot dropped records: %d left", len(recs))
		}
	})
}

func TestReplayStopsOnCallbackError(t *testing.T) {
	storeVariants(t, func(t *testing.T, s Store, _ func() Store) {
		for _, r := range testRecords(5) {
			appendRec(s, r)
		}
		boom := errors.New("boom")
		calls := 0
		err := s.Replay(func(Entry) error {
			calls++
			if calls == 2 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) || calls != 2 {
			t.Fatalf("err=%v calls=%d, want boom at call 2", err, calls)
		}
	})
}

func TestConcurrentAppends(t *testing.T) {
	storeVariants(t, func(t *testing.T, s Store, reopen func() Store) {
		const writers, per = 8, 50
		var wg sync.WaitGroup
		for i := 0; i < writers; i++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				for j := 0; j < per; j++ {
					if err := appendRec(s, []byte(fmt.Sprintf("w%d-%d", id, j))); err != nil {
						t.Errorf("Append: %v", err)
						return
					}
				}
			}(i)
		}
		wg.Wait()
		_, _, recs := collect(t, reopen())
		if len(recs) != writers*per {
			t.Fatalf("replayed %d records, want %d", len(recs), writers*per)
		}
		// Per-writer order must be preserved even though writers interleave.
		next := make([]int, writers)
		for _, r := range recs {
			var id, j int
			if _, err := fmt.Sscanf(string(r), "w%d-%d", &id, &j); err != nil {
				t.Fatalf("bad record %q", r)
			}
			if j != next[id] {
				t.Fatalf("writer %d: got %d, want %d", id, j, next[id])
			}
			next[id]++
		}
	})
}

func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	want := testRecords(10)
	for _, r := range want {
		if err := appendRec(w, r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	w.Close()

	path := filepath.Join(dir, logName)
	for _, tc := range []struct {
		name string
		tear func(t *testing.T, full []byte) []byte
	}{
		{"garbage-appended", func(_ *testing.T, full []byte) []byte {
			return append(append([]byte(nil), full...), 0xde, 0xad, 0xbe, 0xef)
		}},
		{"half-record", func(_ *testing.T, full []byte) []byte {
			// A record header claiming more bytes than exist: the
			// classic crash-mid-append shape.
			torn := append([]byte(nil), full...)
			torn = append(torn, 0, 0, 0, 40, recVersion, kindRecord)
			return torn
		}},
		{"bitflip-last-record", func(t *testing.T, full []byte) []byte {
			torn := append([]byte(nil), full...)
			torn[len(torn)-1] ^= 0x40 // corrupt the last record's body → CRC must catch it
			return torn
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			full, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read log: %v", err)
			}
			if err := os.WriteFile(path, tc.tear(t, full), 0o644); err != nil {
				t.Fatalf("write torn log: %v", err)
			}
			w2, err := OpenWAL(dir)
			if err != nil {
				t.Fatalf("OpenWAL on torn log: %v", err)
			}
			defer w2.Close()
			if w2.Stats().TornBytes == 0 {
				t.Fatalf("TornBytes = 0, want > 0")
			}
			_, _, recs := collect(t, w2)
			// Everything but (at most) the final record survives.
			if len(recs) < len(want)-1 {
				t.Fatalf("torn open kept %d records, want >= %d", len(recs), len(want)-1)
			}
			for i, r := range recs {
				if !bytes.Equal(r, want[i]) {
					t.Fatalf("record %d = %q, want %q", i, r, want[i])
				}
			}
			// The store must accept new appends after repair.
			if err := appendRec(w2, []byte("post-repair")); err != nil {
				t.Fatalf("Append after repair: %v", err)
			}
			w2.Close()
			// Restore the intact log for the next case.
			if err := os.WriteFile(path, full, 0o644); err != nil {
				t.Fatalf("restore log: %v", err)
			}
		})
	}
}

func TestWALFutureFormatRefused(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	appendRec(w, []byte("x"))
	w.Close()
	path := filepath.Join(dir, logName)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	buf[len(walMagic)] = walFormat + 1
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := OpenWAL(dir); !errors.Is(err, ErrFutureFormat) {
		t.Fatalf("OpenWAL on future format: %v, want ErrFutureFormat", err)
	}
}

func TestWALBadMagicRefused(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, logName), []byte("not a wal at all"), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := OpenWAL(dir); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("OpenWAL on junk: %v, want ErrBadMagic", err)
	}
}

func TestWALClosedErrors(t *testing.T) {
	w, err := OpenWAL(t.TempDir())
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	w.Close()
	if err := appendRec(w, []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append on closed: %v", err)
	}
	if err := snapshotAll(w, []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Snapshot on closed: %v", err)
	}
	if err := w.Compact(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Compact on closed: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

func TestWALSnapshotSurvivesCrashMidInstall(t *testing.T) {
	// A leftover snapshot.tmp (crash between write and rename) must not
	// disturb the previous baseline.
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	appendRec(w, []byte("r1"))
	if err := snapshotAll(w, []byte("good")); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	w.Close()
	if err := os.WriteFile(filepath.Join(dir, snapName+".tmp"), []byte("torn half-written snapsho"), 0o644); err != nil {
		t.Fatalf("write tmp: %v", err)
	}
	w2, err := OpenWAL(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w2.Close()
	snap, hasSnap, _ := collect(t, w2)
	if !hasSnap || string(snap) != "good" {
		t.Fatalf("snapshot = %q (present %v), want %q", snap, hasSnap, "good")
	}
}

func TestWALCompactShrinksLog(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	defer w.Close()
	for _, r := range testRecords(100) {
		appendRec(w, r)
	}
	before, _ := os.Stat(filepath.Join(dir, logName))
	if err := snapshotAll(w, []byte("covered")); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if err := w.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	after, _ := os.Stat(filepath.Join(dir, logName))
	if after.Size() >= before.Size() {
		t.Fatalf("compact did not shrink log: %d -> %d bytes", before.Size(), after.Size())
	}
	// Appends after compaction land in the rewritten file.
	if err := appendRec(w, []byte("post-compact")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	snap, hasSnap, recs := collect(t, w)
	if !hasSnap || string(snap) != "covered" || len(recs) != 1 || string(recs[0]) != "post-compact" {
		t.Fatalf("after compact+append: snapshot %q (present %v), records %q", snap, hasSnap, recs)
	}
}

func TestWALEmptyDirThenReopen(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	w.Close()
	w2, err := OpenWAL(dir)
	if err != nil {
		t.Fatalf("reopen empty: %v", err)
	}
	defer w2.Close()
	snap, hasSnap, recs := collect(t, w2)
	if hasSnap || len(snap) != 0 || len(recs) != 0 {
		t.Fatalf("empty store replayed something: snap=%q recs=%d", snap, len(recs))
	}
}

func TestStats(t *testing.T) {
	storeVariants(t, func(t *testing.T, s Store, _ func() Store) {
		st, ok := s.(Stater)
		if !ok {
			t.Fatalf("store does not implement Stater")
		}
		for i := 0; i < 4; i++ {
			appendRec(s, []byte{byte(i)})
		}
		if got := st.Stats(); got.Records != 4 || got.Appended != 4 || got.HasSnapshot {
			t.Fatalf("stats after appends: %+v", got)
		}
		snapshotAll(s, []byte("s"))
		if got := st.Stats(); got.Records != 0 || !got.HasSnapshot || got.Snapshots != 1 {
			t.Fatalf("stats after snapshot: %+v", got)
		}
		appendRec(s, []byte("x"))
		s.Compact()
		if got := st.Stats(); got.Records != 1 || got.Compactions != 1 {
			t.Fatalf("stats after compact: %+v", got)
		}
	})
}

func TestRecordFrameRoundtrip(t *testing.T) {
	for _, data := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xab}, 4096)} {
		frame := appendRecordFrame(nil, kindRecord, 42, data)
		kind, seq, got, n, err := parseRecord(frame)
		if err != nil {
			t.Fatalf("parseRecord: %v", err)
		}
		if kind != kindRecord || seq != 42 || n != len(frame) || !bytes.Equal(got, data) {
			t.Fatalf("roundtrip kind=%#x seq=%d n=%d len=%d", kind, seq, n, len(frame))
		}
	}
}

func TestParseRecordRejectsOversizedLength(t *testing.T) {
	var hdr [lenSize]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(maxRecord+1024))
	if _, _, _, _, err := parseRecord(hdr[:]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized length: %v, want ErrCorrupt", err)
	}
}

// TestWriteFileSyncReportsWriteError: a snapshot or compacted log that
// cannot be written must not be reported as written, or the caller
// renames a short file into place. /dev/full refuses every write with
// ENOSPC.
func TestWriteFileSyncReportsWriteError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skipf("no /dev/full: %v", err)
	}
	if err := writeFileSync("/dev/full", []byte("snapshot")); err == nil {
		t.Fatal("writeFileSync to a full device returned nil")
	}
}

// TestWriteOrdersSyncCommits pins the two halves of adding a record:
// Write numbers records 1, 2, 3... in call order and Written follows it;
// one Sync on the highest number covers every record below it (one
// fsync, not one per record); and numbering continues across a compact
// and a reopen.
func TestWriteOrdersSyncCommits(t *testing.T) {
	storeVariants(t, func(t *testing.T, s Store, reopen func() Store) {
		if got := s.Written(); got != 0 {
			t.Fatalf("Written on an empty store = %d", got)
		}
		for i, r := range testRecords(5) {
			seq, err := s.Write(r)
			if err != nil || seq != uint64(i+1) {
				t.Fatalf("Write #%d = seq %d, %v", i+1, seq, err)
			}
		}
		if got := s.Written(); got != 5 {
			t.Fatalf("Written = %d, want 5", got)
		}
		before := s.(Stater).Stats().Syncs
		if err := s.Sync(5); err != nil {
			t.Fatalf("Sync: %v", err)
		}
		for seq := uint64(1); seq <= 5; seq++ {
			if err := s.Sync(seq); err != nil { // already durable: no disk
				t.Fatalf("Sync(%d): %v", seq, err)
			}
		}
		if _, isWAL := s.(*WAL); isWAL {
			if got := s.(Stater).Stats().Syncs - before; got != 1 {
				t.Fatalf("five writes, one Sync on the highest: %d fsyncs, want 1", got)
			}
		}
		if err := s.Snapshot([]byte("through-3"), 3); err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		if err := s.Compact(); err != nil {
			t.Fatalf("Compact: %v", err)
		}
		s = reopen()
		if got := s.Written(); got != 5 {
			t.Fatalf("Written after compact+reopen = %d, want 5", got)
		}
		if seq, err := s.Write([]byte("six")); err != nil || seq != 6 {
			t.Fatalf("Write after reopen = seq %d, %v", seq, err)
		}
	})
}

// TestSnapshotCoversOnlyWhatItSays: a baseline cut at seq 3 of 6 leaves
// records 4..6 in the recovery stream (the broker encodes its blob under
// its locks and writes it after releasing them, so records land in
// between); one claiming more than was written is refused; and one older
// than the installed baseline is dropped, whichever order two
// checkpoints finish in.
func TestSnapshotCoversOnlyWhatItSays(t *testing.T) {
	storeVariants(t, func(t *testing.T, s Store, reopen func() Store) {
		recs := testRecords(6)
		for _, r := range recs {
			if err := appendRec(s, r); err != nil {
				t.Fatalf("append: %v", err)
			}
		}
		if err := s.Snapshot([]byte("ahead"), 7); err == nil {
			t.Fatalf("snapshot covering an unwritten record accepted")
		}
		if err := s.Snapshot([]byte("through-3"), 3); err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		verify := func(label string, s Store) {
			t.Helper()
			snap, hasSnap, got := collect(t, s)
			if !hasSnap || string(snap) != "through-3" {
				t.Fatalf("%s: snapshot %q (present %v)", label, snap, hasSnap)
			}
			if len(got) != 3 || !bytes.Equal(got[0], recs[3]) || !bytes.Equal(got[2], recs[5]) {
				t.Fatalf("%s: suffix %q, want records 4..6", label, got)
			}
			if st := s.(Stater).Stats(); st.Records != 3 {
				t.Fatalf("%s: Records = %d, want 3", label, st.Records)
			}
		}
		verify("snapshot", s)
		if err := s.Snapshot([]byte("through-1, finished late"), 1); err != nil {
			t.Fatalf("stale Snapshot: %v", err)
		}
		verify("stale snapshot", s)
		if err := s.Compact(); err != nil {
			t.Fatalf("Compact: %v", err)
		}
		verify("compact", s)
		verify("reopen", reopen())
	})
}
