package state

import (
	"fmt"
	"sync"
)

// Mem is the pure in-memory Store: engines and most tests journal into
// it without touching the filesystem. It models the disk, not the
// process — Close is deliberately a no-op, so a "restarted" component
// can keep using the same Mem and Replay what the previous incarnation
// wrote, exactly as a new process would reopen the same directory.
type Mem struct {
	mu      sync.Mutex
	snap    []byte
	hasSnap bool
	recs    [][]byte // recs[i] has sequence number base+i+1
	base    uint64   // records compacted away
	covered int      // recs[:covered] are included in snap
	stats   Stats
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem { return &Mem{} }

// lastSeq is the sequence number of the last record; m.mu held.
func (m *Mem) lastSeq() uint64 { return m.base + uint64(len(m.recs)) }

// Write adds one record. The slice is copied; the caller may reuse it.
func (m *Mem) Write(rec []byte) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.recs = append(m.recs, append([]byte(nil), rec...))
	m.stats.Appended++
	return m.lastSeq(), nil
}

// Sync returns at once: a record in memory is as durable as Mem gets.
func (m *Mem) Sync(uint64) error { return nil }

// Written returns the sequence number of the last record written.
func (m *Mem) Written() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastSeq()
}

// Snapshot replaces the recovery baseline with a copy of state. Records
// up to covered become covered (dropped by the next Compact, skipped by
// Replay); a baseline older than the installed one is dropped.
func (m *Mem) Snapshot(state []byte, covered uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if covered > m.lastSeq() {
		return fmt.Errorf("state: snapshot covers seq %d, only %d written", covered, m.lastSeq())
	}
	if m.hasSnap && covered < m.base+uint64(m.covered) {
		return nil
	}
	m.snap = append([]byte(nil), state...)
	m.hasSnap = true
	m.covered = int(covered - m.base)
	m.stats.Snapshots++
	return nil
}

// Replay streams the snapshot (if any) and the uncovered records.
func (m *Mem) Replay(fn func(Entry) error) error {
	m.mu.Lock()
	snap, hasSnap := m.snap, m.hasSnap
	recs := m.recs[m.covered:]
	m.mu.Unlock()
	if hasSnap {
		if err := fn(Entry{Snapshot: true, Data: snap}); err != nil {
			return err
		}
	}
	for _, rec := range recs {
		if err := fn(Entry{Data: rec}); err != nil {
			return err
		}
	}
	return nil
}

// Compact drops records covered by the latest snapshot.
func (m *Mem) Compact() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.covered == 0 {
		return nil
	}
	m.recs = append([][]byte(nil), m.recs[m.covered:]...)
	m.base += uint64(m.covered)
	m.covered = 0
	m.stats.Compactions++
	return nil
}

// Close is a no-op: Mem models the durable medium, which outlives the
// component that wrote it.
func (m *Mem) Close() error { return nil }

// Stats reports the store's current shape.
func (m *Mem) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.stats
	s.Records = len(m.recs) - m.covered
	s.HasSnapshot = m.hasSnap
	return s
}
