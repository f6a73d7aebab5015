// Package state is the durable control plane of the DR-tree system: an
// append-only write-ahead log with periodic snapshots, behind the
// deliberately narrow Store interface. The overlay itself self-repairs
// after crashes (the paper's whole point), but everything above it —
// which subscriber holds which filter, which gateway carries which
// MBR-union — was amnesiac: a daemon restart lost every subscription
// and triggered a resubscribe storm. Store fixes that layer.
//
// The interface deals in opaque byte records on purpose. The schema of
// what is logged (subscription ops, gateway unions) belongs to the
// layer that owns the state (internal/pubsub); the store owns only
// durability, ordering, and compaction. Keeping the seam this narrow —
// Write, Sync, Snapshot, Replay, Compact — means SQLite, a replicated
// log, or an object store can slot in later without the engines or the
// broker noticing.
//
// Two implementations ship: WAL (file-backed, internal/wire-style
// length-prefixed binary records with a version byte and a CRC each,
// group-commit fsync batching, torn-tail truncation on open, versioned
// migration-on-open) and Mem (pure in-memory, so engines and most
// tests never touch the filesystem).
package state

import "errors"

// ErrClosed reports an operation on a closed store.
var ErrClosed = errors.New("state: store closed")

// Entry is one element of the recovery stream: either the snapshot
// baseline (at most one, always first) or an appended record.
type Entry struct {
	// Snapshot marks the baseline entry: Data is the state blob passed
	// to Store.Snapshot, and every following entry is a record appended
	// after that snapshot was taken.
	Snapshot bool
	// Data is the record (or snapshot) payload, exactly as given to
	// Write (or Snapshot). Valid only for the duration of the Replay
	// callback; copy it to retain it.
	Data []byte
}

// Store is the narrow durability seam. Adding a record has two halves
// so that a caller can order it under a lock of its own and wait for
// the disk outside it: Write fixes the record's place in the log,
// Sync makes it survive a crash. Replay must observe a
// prefix-consistent history: the latest durable snapshot (if any)
// followed by the records it does not cover, in write order, up to some
// point no earlier than the last completed Sync, and nothing else.
//
// Write, Sync, Written, Snapshot and Compact are safe for concurrent
// use. Replay must not run concurrently with writes (callers replay
// once, on startup, before accepting operations).
type Store interface {
	// Write adds one record to the end of the log and returns its
	// sequence number. Sequence numbers start at 1 and rise by one per
	// record in log order. The record is not yet durable: a crash before
	// a Sync that covers it may lose it, together with every record
	// written after it.
	Write(rec []byte) (seq uint64, err error)
	// Sync returns once every record up to and including seq is
	// durable. Concurrent callers share the work (group commit).
	Sync(seq uint64) error
	// Written returns the sequence number of the last record written,
	// 0 when there is none.
	Written() uint64
	// Snapshot durably replaces the recovery baseline: state describes
	// the effect of every record up to and including covered, so a
	// subsequent Replay yields state first, then only the records above
	// covered. A baseline older than the installed one is dropped. The
	// log itself is not trimmed — call Compact for that.
	Snapshot(state []byte, covered uint64) error
	// Replay streams the recovery sequence into fn, stopping early on
	// the first error, which it returns.
	Replay(fn func(Entry) error) error
	// Compact discards log records already covered by the latest
	// snapshot. A no-op when there is no snapshot.
	Compact() error
	// Close releases the store's resources. For the file-backed store
	// further writes fail with ErrClosed; Mem stays replayable (it
	// models the disk, which outlives the process).
	Close() error
}

// Stats describes a store's current shape (observability and tests; a
// durable daemon serves it as /statsz "store").
type Stats struct {
	// Records is the number of log records a Replay would yield after
	// the snapshot baseline.
	Records int `json:"records"`
	// HasSnapshot reports whether a durable snapshot baseline exists.
	HasSnapshot bool `json:"has_snapshot"`
	// Appended counts records written over this store's lifetime (this
	// process only, for WAL).
	Appended uint64 `json:"appended"`
	// Syncs counts the fsyncs issued for written records; Appended over
	// Syncs is the group commit the store is getting (WAL only: Mem has
	// no disk to wait for).
	Syncs uint64 `json:"syncs"`
	// Snapshots counts Snapshot calls accepted.
	Snapshots uint64 `json:"snapshots"`
	// Compactions counts Compact calls that trimmed the log.
	Compactions uint64 `json:"compactions"`
	// TornBytes is the number of trailing bytes discarded on open
	// because the final record was torn by a crash (WAL only).
	TornBytes int64 `json:"torn_bytes"`
}

// A Stater reports store statistics; both built-in stores implement it.
type Stater interface {
	Stats() Stats
}
