package state

// The file-backed Store: a directory holding an append-only log
// (wal.log) and at most one snapshot (snapshot.bin). Both files follow
// the internal/wire framing conventions — length-prefixed binary
// records, a version byte per record, bounds-checked decoding that
// never panics on corrupt input — plus a CRC-32C over each record so a
// torn or bit-flipped tail is detected and truncated on open rather
// than misparsed.
//
// File layout:
//
//	header  = magic "DRTSTATE" | format(1)
//	record  = len(4 BE) | version(1) | kind(1) | crc32c(4 BE) | seq(uvarint) | data
//
// where crc covers seq+data. wal.log is the header followed by data
// records with strictly increasing seq; snapshot.bin is the header
// followed by exactly one snapshot record whose seq is the highest log
// seq it covers and whose data is the state blob. Snapshots are
// written to a temp file, fsynced, and renamed into place, so a crash
// mid-snapshot leaves the previous baseline intact.
//
// Durability: Write hands the framed record to the OS under the write
// lock, which fixes its place in the log; Sync returns only after it is
// fsynced. Concurrent syncers share fsyncs through group commit — they
// join a sync cohort; one waiter issues the fsync that covers every
// record written before it started, and the rest observe the advanced
// synced-seq without touching the disk.
//
// Versioning: the header's format byte is the migration hook. Opening
// a directory written by an older format migrates it forward
// (migrate-on-open); a newer format is refused with a clear error so
// an old binary never scrambles a new log.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

const (
	walMagic  = "DRTSTATE"
	walFormat = byte(1) // current on-disk format; bump with a migration

	recVersion = byte(1)    // per-record version byte
	kindRecord = byte(0x01) // appended log record
	kindSnap   = byte(0x02) // snapshot baseline record

	logName  = "wal.log"
	snapName = "snapshot.bin"

	headerSize = len(walMagic) + 1
	lenSize    = 4

	// maxRecord bounds a single record's payload. Large enough for a
	// snapshot of millions of subscriptions, small enough that a
	// corrupt length prefix cannot trigger a giant allocation.
	maxRecord = 1 << 26
)

// WAL open/decode errors.
var (
	ErrBadMagic     = errors.New("state: not a DR-tree state directory")
	ErrFutureFormat = errors.New("state: log written by a newer format")
	ErrCorrupt      = errors.New("state: corrupt record")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// WAL is the file-backed Store. Open one with OpenWAL.
type WAL struct {
	dir string

	mu      sync.Mutex // guards log writes and all fields below
	log     *os.File   // wal.log, positioned at its end
	nextSeq uint64     // seq of the next appended record
	written uint64     // highest seq written to the OS (not yet durable)
	snapSeq uint64     // highest seq covered by snapshot.bin
	hasSnap bool
	live    int // records in wal.log with seq > snapSeq
	closed  bool
	stats   Stats

	syncMu   sync.Mutex // guards the group-commit cohort
	syncCond *sync.Cond
	syncing  bool
	synced   uint64 // highest seq known durable
	syncs    uint64 // fsyncs issued by Sync

	snapMu sync.Mutex // one snapshot install at a time
}

// OpenWAL opens (creating if needed) the store rooted at dir. A torn
// final record — the signature of a crash mid-append — is truncated
// away; any other corruption is an error.
func OpenWAL(dir string) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("state: open %s: %w", dir, err)
	}
	w := &WAL{dir: dir}
	w.syncCond = sync.NewCond(&w.syncMu)
	if err := w.openSnapshot(); err != nil {
		return nil, err
	}
	if err := w.openLog(); err != nil {
		return nil, err
	}
	// What the open found is on disk: the frontiers start level.
	w.written, w.synced = w.nextSeq-1, w.nextSeq-1
	return w, nil
}

// openSnapshot loads snapshot metadata (covered seq) if a snapshot
// exists. The blob itself is re-read lazily by Replay.
func (w *WAL) openSnapshot() error {
	seq, _, err := readSnapshotFile(filepath.Join(w.dir, snapName))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	w.snapSeq = seq
	w.hasSnap = true
	w.nextSeq = seq + 1
	return nil
}

// openLog validates wal.log's header, scans the valid record prefix,
// truncates any torn tail, and leaves the file positioned for appends.
func (w *WAL) openLog() error {
	path := filepath.Join(w.dir, logName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("state: open log: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("state: stat log: %w", err)
	}
	if info.Size() == 0 {
		// Fresh log: write the header and fsync it so the directory is
		// recognizable from the first record on.
		hdr := append([]byte(walMagic), walFormat)
		if _, err := f.Write(hdr); err == nil {
			err = f.Sync()
		}
		if err != nil {
			f.Close()
			return fmt.Errorf("state: init log: %w", err)
		}
		if err := syncDir(w.dir); err != nil {
			f.Close()
			return err
		}
		w.log = f
		if w.nextSeq == 0 {
			w.nextSeq = 1
		}
		return nil
	}
	buf, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return fmt.Errorf("state: read log: %w", err)
	}
	if err := checkHeader(buf); err != nil {
		f.Close()
		return fmt.Errorf("%w (%s)", err, path)
	}
	// Scan the valid prefix. Every well-formed record advances validEnd;
	// the first torn/corrupt one ends the scan and is truncated away.
	// Seqs must be strictly increasing but may start below snapSeq: a
	// snapshot taken without a Compact leaves covered records in place.
	validEnd := headerSize
	lastSeq := uint64(0)
	live := 0
	for validEnd < len(buf) {
		kind, seq, _, n, err := parseRecord(buf[validEnd:])
		if err != nil || kind != kindRecord || seq <= lastSeq {
			break
		}
		lastSeq = seq
		if seq > w.snapSeq {
			live++
		}
		validEnd += n
	}
	if torn := int64(len(buf) - validEnd); torn > 0 {
		w.stats.TornBytes = torn
		if err := f.Truncate(int64(validEnd)); err != nil {
			f.Close()
			return fmt.Errorf("state: truncate torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("state: sync after truncate: %w", err)
		}
	}
	if _, err := f.Seek(int64(validEnd), io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("state: seek log end: %w", err)
	}
	w.log = f
	w.live = live
	if lastSeq >= w.nextSeq {
		w.nextSeq = lastSeq + 1
	}
	if w.nextSeq == 0 {
		w.nextSeq = 1
	}
	return nil
}

// Write frames one record, gives it the next sequence number and hands
// it to the OS, all under the write lock: the order of Write calls is
// the order of records in the log. Not durable until a Sync covers it.
func (w *WAL) Write(rec []byte) (uint64, error) {
	if len(rec) > maxRecord {
		return 0, fmt.Errorf("state: record %d bytes exceeds max %d", len(rec), maxRecord)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrClosed
	}
	seq := w.nextSeq
	frame := appendRecordFrame(nil, kindRecord, seq, rec)
	if _, err := w.log.Write(frame); err != nil {
		return 0, fmt.Errorf("state: append: %w", err)
	}
	w.nextSeq++
	w.written = seq
	w.live++
	w.stats.Appended++
	return seq, nil
}

// Append durably adds one record: Write, then Sync. Nothing in the
// module calls it — the broker writes and syncs through Store — but the
// socket benchmark's raw-append probe does (bench/replay.go).
func (w *WAL) Append(rec []byte) error {
	seq, err := w.Write(rec)
	if err != nil {
		return err
	}
	return w.Sync(seq)
}

// Written returns the sequence number of the last record written.
func (w *WAL) Written() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.written
}

// Sync blocks until every record up to seq is durable, issuing at most
// one fsync per cohort of concurrent callers.
func (w *WAL) Sync(seq uint64) error {
	w.syncMu.Lock()
	for {
		if w.synced >= seq {
			w.syncMu.Unlock()
			return nil
		}
		if !w.syncing {
			break
		}
		w.syncCond.Wait()
	}
	w.syncing = true
	w.syncMu.Unlock()

	w.mu.Lock()
	target := w.written
	f := w.log
	closed := w.closed
	w.mu.Unlock()
	var err error
	if closed {
		err = ErrClosed
	} else {
		err = f.Sync()
	}

	w.syncMu.Lock()
	w.syncing = false
	if !closed {
		w.syncs++
	}
	if err == nil && target > w.synced {
		w.synced = target
	}
	durable := w.synced >= seq
	w.syncCond.Broadcast()
	w.syncMu.Unlock()
	if err != nil {
		// A concurrent Compact may have swapped and closed the handle
		// under this Sync; its rewrite already made the record durable,
		// which the advanced frontier records.
		if durable {
			return nil
		}
		return fmt.Errorf("state: fsync: %w", err)
	}
	return nil
}

// Snapshot atomically replaces the recovery baseline with one that
// covers the log up to covered: the blob is written to a temp file,
// fsynced, and renamed over snapshot.bin. A crash at any point leaves
// either the old or the new baseline, never a torn one. Installs are
// serialized, and one older than the installed baseline is dropped, so
// the file never falls behind what Compact trims by.
func (w *WAL) Snapshot(stateBlob []byte, covered uint64) error {
	if len(stateBlob) > maxRecord {
		return fmt.Errorf("state: snapshot %d bytes exceeds max %d", len(stateBlob), maxRecord)
	}
	w.snapMu.Lock()
	defer w.snapMu.Unlock()
	w.mu.Lock()
	closed, written := w.closed, w.written
	stale := w.hasSnap && covered < w.snapSeq
	w.mu.Unlock()
	switch {
	case closed:
		return ErrClosed
	case covered > written:
		return fmt.Errorf("state: snapshot covers seq %d, only %d written", covered, written)
	case stale:
		return nil
	}

	path := filepath.Join(w.dir, snapName)
	tmp := path + ".tmp"
	buf := append([]byte(walMagic), walFormat)
	buf = appendRecordFrame(buf, kindSnap, covered, stateBlob)
	if err := writeFileSync(tmp, buf); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("state: install snapshot: %w", err)
	}
	if err := syncDir(w.dir); err != nil {
		return err
	}

	w.mu.Lock()
	w.snapSeq = covered
	// Records written above covered stay live.
	w.live = int(w.written - covered)
	w.hasSnap = true
	w.stats.Snapshots++
	w.mu.Unlock()
	return nil
}

// Replay streams the snapshot (if any) followed by every log record it
// does not cover, in write order. Must not run concurrently with
// Write/Snapshot/Compact.
func (w *WAL) Replay(fn func(Entry) error) error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	snapSeq, hasSnap := w.snapSeq, w.hasSnap
	w.mu.Unlock()

	if hasSnap {
		_, blob, err := readSnapshotFile(filepath.Join(w.dir, snapName))
		if err != nil {
			return err
		}
		if err := fn(Entry{Snapshot: true, Data: blob}); err != nil {
			return err
		}
	}
	return scanLog(filepath.Join(w.dir, logName), snapSeq, func(_ uint64, data []byte) error {
		return fn(Entry{Data: data})
	})
}

// Compact rewrites wal.log keeping only records the snapshot does not
// cover. It takes w.mu, as Write does, and holds it across the rewrite,
// its fsyncs and the rename: a Write waits out the whole compaction.
func (w *WAL) Compact() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if !w.hasSnap {
		return nil
	}
	path := filepath.Join(w.dir, logName)
	buf := append([]byte(walMagic), walFormat)
	keep := 0
	err := scanLog(path, w.snapSeq, func(seq uint64, data []byte) error {
		buf = appendRecordFrame(buf, kindRecord, seq, data)
		keep++
		return nil
	})
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := writeFileSync(tmp, buf); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("state: install compacted log: %w", err)
	}
	if err := syncDir(w.dir); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("state: reopen compacted log: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return fmt.Errorf("state: seek compacted log: %w", err)
	}
	w.log.Close()
	w.log = f
	w.live = keep
	w.stats.Compactions++
	// Everything in the rewritten file was fsynced by writeFileSync, so
	// every written record is durable: advance the group-commit frontier
	// and wake any appender whose fsync raced the handle swap (its Sync
	// on the closed old handle fails; the advanced frontier tells it the
	// record is durable anyway — see syncTo).
	w.syncMu.Lock()
	if w.written > w.synced {
		w.synced = w.written
	}
	w.syncCond.Broadcast()
	w.syncMu.Unlock()
	return nil
}

// Close fsyncs and closes the log. Further operations fail ErrClosed.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	err := w.log.Sync()
	if cerr := w.log.Close(); err == nil {
		err = cerr
	}
	return err
}

// Stats reports the store's current shape.
func (w *WAL) Stats() Stats {
	w.mu.Lock()
	s := w.stats
	s.Records = w.live
	s.HasSnapshot = w.hasSnap
	w.mu.Unlock()
	w.syncMu.Lock()
	s.Syncs = w.syncs
	w.syncMu.Unlock()
	return s
}

// Dir returns the directory backing this store.
func (w *WAL) Dir() string { return w.dir }

// --- record framing ---------------------------------------------------

// appendRecordFrame appends one framed record to dst:
// len(4 BE) | version | kind | crc32c(4 BE) | seq(uvarint) | data.
func appendRecordFrame(dst []byte, kind byte, seq uint64, data []byte) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length backfilled
	dst = append(dst, recVersion, kind, 0, 0, 0, 0)
	crcOff := start + lenSize + 2
	body := len(dst)
	dst = binary.AppendUvarint(dst, seq)
	dst = append(dst, data...)
	crc := crc32.Checksum(dst[body:], crcTable)
	binary.BigEndian.PutUint32(dst[crcOff:], crc)
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-lenSize))
	return dst
}

// parseRecord decodes one framed record from the front of buf,
// returning the total bytes consumed. Any malformation — short prefix,
// oversized or truncated length, unknown version, CRC mismatch, bad
// seq varint — returns ErrCorrupt-wrapped errors and never panics.
func parseRecord(buf []byte) (kind byte, seq uint64, data []byte, n int, err error) {
	if len(buf) < lenSize {
		return 0, 0, nil, 0, fmt.Errorf("%w: short length prefix", ErrCorrupt)
	}
	plen := binary.BigEndian.Uint32(buf)
	if plen > maxRecord+16 {
		return 0, 0, nil, 0, fmt.Errorf("%w: declared %d bytes", ErrCorrupt, plen)
	}
	if uint64(len(buf)-lenSize) < uint64(plen) {
		return 0, 0, nil, 0, fmt.Errorf("%w: truncated record", ErrCorrupt)
	}
	p := buf[lenSize : lenSize+int(plen)]
	if len(p) < 6 {
		return 0, 0, nil, 0, fmt.Errorf("%w: record shorter than header", ErrCorrupt)
	}
	if p[0] != recVersion {
		return 0, 0, nil, 0, fmt.Errorf("%w: record version %#x", ErrCorrupt, p[0])
	}
	kind = p[1]
	if kind != kindRecord && kind != kindSnap {
		return 0, 0, nil, 0, fmt.Errorf("%w: record kind %#x", ErrCorrupt, kind)
	}
	crc := binary.BigEndian.Uint32(p[2:])
	body := p[6:]
	if crc32.Checksum(body, crcTable) != crc {
		return 0, 0, nil, 0, fmt.Errorf("%w: crc mismatch", ErrCorrupt)
	}
	seq, vn := binary.Uvarint(body)
	if vn <= 0 {
		return 0, 0, nil, 0, fmt.Errorf("%w: bad seq varint", ErrCorrupt)
	}
	if seq >= 1<<62 {
		// No legitimate store approaches seq 2^62; such a value is
		// corruption, and rejecting it keeps seq+1 arithmetic
		// overflow-free everywhere else. (Seq 0 stays valid: a snapshot
		// taken before any append covers nothing and records seq 0.)
		return 0, 0, nil, 0, fmt.Errorf("%w: seq %d out of range", ErrCorrupt, seq)
	}
	return kind, seq, body[vn:], lenSize + int(plen), nil
}

// checkHeader validates a file's magic and format byte, applying
// migrations for older formats (none exist yet at format 1).
func checkHeader(buf []byte) error {
	if len(buf) < headerSize || string(buf[:len(walMagic)]) != walMagic {
		return ErrBadMagic
	}
	format := buf[len(walMagic)]
	switch {
	case format == walFormat:
		return nil
	case format > walFormat:
		return fmt.Errorf("%w: format %d, this build reads up to %d", ErrFutureFormat, format, walFormat)
	default:
		// Migration hook: formats below the current one are upgraded
		// here as the on-disk layout evolves. Format 1 is the first.
		return fmt.Errorf("%w: unsupported historic format %d", ErrBadMagic, format)
	}
}

// scanLog streams every valid record with seq > after from the log at
// path. The scan stops silently at the first torn record (matching the
// open-time truncation rule) so a reader racing a crashed writer never
// misparses the tail.
func scanLog(path string, after uint64, fn func(seq uint64, data []byte) error) error {
	buf, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("state: read log: %w", err)
	}
	if err := checkHeader(buf); err != nil {
		return fmt.Errorf("%w (%s)", err, path)
	}
	off := headerSize
	last := uint64(0)
	for off < len(buf) {
		kind, seq, data, n, err := parseRecord(buf[off:])
		if err != nil || kind != kindRecord || seq <= last {
			return nil // torn tail: everything beyond is discarded
		}
		last = seq
		off += n
		if seq <= after {
			continue
		}
		if err := fn(seq, data); err != nil {
			return err
		}
	}
	return nil
}

// readSnapshotFile reads and validates snapshot.bin, returning the
// covered seq and the state blob.
func readSnapshotFile(path string) (uint64, []byte, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, err
	}
	if err := checkHeader(buf); err != nil {
		return 0, nil, fmt.Errorf("%w (%s)", err, path)
	}
	kind, seq, data, n, err := parseRecord(buf[headerSize:])
	if err != nil {
		return 0, nil, fmt.Errorf("state: snapshot: %w", err)
	}
	if kind != kindSnap {
		return 0, nil, fmt.Errorf("%w: snapshot holds kind %#x", ErrCorrupt, kind)
	}
	if headerSize+n != len(buf) {
		return 0, nil, fmt.Errorf("%w: trailing bytes after snapshot record", ErrCorrupt)
	}
	return seq, data, nil
}

// writeFileSync writes buf to path and fsyncs it before returning.
func writeFileSync(path string, buf []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("state: write %s: %w", filepath.Base(path), err)
	}
	if _, err = f.Write(buf); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("state: write %s: %w", filepath.Base(path), err)
	}
	return nil
}

// syncDir fsyncs a directory so renames and creations within it are
// durable. Sync refusals are tolerated — some filesystems reject
// directory fsync, and the renamed file's own fsync already happened.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("state: open dir: %w", err)
	}
	d.Sync()
	return d.Close()
}
