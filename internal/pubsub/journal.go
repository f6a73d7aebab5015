package pubsub

// The broker's durability layer over state.Store: Subscribe,
// Unsubscribe and UpdateFilter journal one record each; Checkpoint
// snapshots the whole subscription table and compacts the log; Recover
// rebuilds a fresh broker from snapshot + suffix.
//
// The rule is write before commit, sync before ack. A record is
// written (Store.Write: framed, numbered and handed to the OS) inside
// the same hold of the owning gateway's lock that commits the operation
// in memory — for Subscribe and UpdateFilter before the commit, so a
// failed Write leaves nothing changed; for Unsubscribe after it, the
// engine having already let the gateway go. It is made durable
// (Store.Sync, the fsync) only after that lock, and the pool lock, have
// been released, and the public call returns only after that. The two
// halves are Batch: operations applied to one are written as they go
// and made durable together by one Batch.Sync; the public calls are a
// Batch of one, and a client session batches a read burst
// (internal/drtreed). So:
//
//   - No gateway or pool lock is ever held across a disk wait. Matching
//     (NotifyPoint, Publish) takes gateway locks shared and used to
//     stand behind every fsync of a subscriber joining or leaving.
//   - The order of records in the log is the order of commits, per
//     gateway: Write is what fixes a record's place in the log, and a
//     gateway's Writes and its commits happen one pair per hold of
//     gw.mu. (Across gateways the log interleaves, as it always did; the
//     fold in Recover only needs per-subscriber order, and a subscriber
//     has one gateway at a time — moves are journaled under poolMu,
//     which excludes every other writer.)
//   - A call that returned nil is durable; so is every operation of a
//     Batch whose Sync returned nil.
//   - A registration is visible to matching for the length of one burst
//     — the batch's applies and one fsync — before it is durable. A
//     crash in that window forgets a Subscribe that was never
//     acknowledged, and resurrects an Unsubscribe that was never
//     acknowledged (a ghost: false positives, never a false negative).
//     A crash loses a suffix of the log, never a middle.
//   - When Sync fails, Batch.Sync alone decides the outcome, and every
//     operation of the batch is owed the error: Subscribe takes the
//     registration back through the normal remove path; Unsubscribe and
//     Fail stand (the engine has let go), meaning "durability is
//     behind"; UpdateFilter keeps the new filter in memory under the
//     same contract.
//
// Checkpoint follows the same rule: the blob is encoded and the log
// position it describes is read under the locks, the file is written
// after them.
//
// Records carry the subscriber ID and the *exact* predicate list —
// attribute, operator, and the raw float64 bits of the constant — via
// the internal/wire primitives. Filter.String() is deliberately not
// used: its %.4f rendering is lossy, and a recovered filter must
// compile to bit-identically the same rectangle as the original or the
// zero-false-negative guarantee dies on round-trip. Gateway unions are
// not journaled at all: Recover replays subscriptions through the
// normal Subscribe path against a fresh engine, which re-derives every
// gateway's MBR-union from scratch — the union is a pure function of
// the live subscription set, and rebuilding it is both simpler and
// tighter than trusting whatever (possibly loosened-by-failure) union
// the previous incarnation carried.
//
// Record layout (inside a state.Store record, which adds its own
// framing, CRC and seq), version 2:
//
//	subscribe/update: version(2) op(1) id(varint) gwOff(uvarint) npreds(uvarint) {attr(string) op(1) value(f64)}...
//	unsubscribe:      version(2) op(1) id(varint)
//	assign:           version(2) op(1) id(varint) gwOff(uvarint)
//	pool:             version(2) op(1) kind(1) gwOff(uvarint)
//
// gwOff is the owning gateway's stable pool offset; assign records pin
// a subscription that *moved* gateways after registration (a pool split
// or drain), and pool records track a fit pool's membership (grow /
// retire). A snapshot blob is version(2) poolCount(uvarint) {gwOff}...
// count(uvarint) {id gwOff predicate-list}... — poolCount is 0 for a
// hash pool, whose shape is configuration (as is any pool's with
// min == max), not state; a hash pool's Recover also ignores every
// gwOff and re-hashes. The leading version byte is the migration hook,
// independent of the store's on-disk format version; any other version
// is refused.

import (
	"cmp"
	"fmt"
	"slices"

	"drtree/internal/core"
	"drtree/internal/filter"
	"drtree/internal/state"
	"drtree/internal/wire"
)

// DefaultSnapshotEvery is the default checkpoint cadence of a durable
// broker: after this many journaled operations a background
// snapshot+compact bounds both log growth and recovery time.
const DefaultSnapshotEvery = 4096

const (
	journalVersion = byte(2)

	journalSubscribe   = byte(1)
	journalUnsubscribe = byte(2)
	journalUpdate      = byte(3)
	journalAssignOp    = byte(4)
	journalPoolOp      = byte(5)

	poolGrow   = byte(1)
	poolRetire = byte(2)
)

// journalWrite hands one subscription operation to the store and
// returns its sequence number (0 and nil on a memory-only broker). The
// record is ordered, not yet durable: the public entry point passes the
// number to journalSync once it holds no lock. Called with the owning
// gateway's lock held, which is what puts the record in the log where
// the commit is in the gateway's history.
func (b *Broker) journalWrite(op byte, id core.ProcID, f filter.Filter, gwOff int) (uint64, error) {
	if b.store == nil {
		return 0, nil
	}
	w := wire.NewWriter(make([]byte, 0, 64))
	w.Byte(journalVersion)
	w.Byte(op)
	w.Varint(int64(id))
	if op != journalUnsubscribe {
		w.Uvarint(uint64(gwOff))
		encodeFilter(w, f)
	}
	return b.writeRecord(w.Bytes())
}

// journalAssign records that subscriber id now lives on the gateway at
// pool offset gwOff — a move (split/drain), not a new registration.
// poolMu is held exclusively, and whoever holds it syncs before it
// returns (subscribeAt's caller on its Subscribe record, written after
// any move; removeUnsynced's on journalFrontier).
func (b *Broker) journalAssign(id core.ProcID, gwOff int) error {
	if b.store == nil {
		return nil
	}
	w := wire.NewWriter(make([]byte, 0, 16))
	w.Byte(journalVersion)
	w.Byte(journalAssignOp)
	w.Varint(int64(id))
	w.Uvarint(uint64(gwOff))
	_, err := b.writeRecord(w.Bytes())
	return err
}

// journalPoolOp records a fit pool's membership change, under poolMu
// like journalAssign.
func (b *Broker) journalPoolOp(kind byte, gwOff int) error {
	if b.store == nil {
		return nil
	}
	w := wire.NewWriter(make([]byte, 0, 8))
	w.Byte(journalVersion)
	w.Byte(journalPoolOp)
	w.Byte(kind)
	w.Uvarint(uint64(gwOff))
	_, err := b.writeRecord(w.Bytes())
	return err
}

// writeRecord writes one record and drives the checkpoint cadence.
func (b *Broker) writeRecord(rec []byte) (uint64, error) {
	seq, err := b.store.Write(rec)
	if err != nil {
		return 0, fmt.Errorf("pubsub: journal write: %w", err)
	}
	if b.snapEvery > 0 && b.sinceSnap.Add(1) >= uint64(b.snapEvery) {
		b.checkpointAsync()
	}
	return seq, nil
}

// journalSync returns once every record up to seq is durable. The
// caller holds no gateway lock and not the pool lock. Sequence number 0
// is "wrote nothing": a memory-only broker, or an operation that failed
// before its Write.
func (b *Broker) journalSync(seq uint64) error {
	if seq == 0 {
		return nil
	}
	if err := b.store.Sync(seq); err != nil {
		return fmt.Errorf("pubsub: journal sync: %w", err)
	}
	return nil
}

// Batch is a run of subscription operations applied ahead of their
// sync: each one commits in memory and writes its journal record as it
// is applied, and is visible to matching from then on; Sync then makes
// the whole run durable with one Store.Sync, for the highest record the
// run wrote. Subscribe, Unsubscribe, UpdateFilter and Fail are a Batch
// of one; a client session batches the requests its reader already
// holds (internal/drtreed). Not safe for concurrent use; reusable once
// Sync has returned.
type Batch struct {
	b    *Broker
	seq  uint64     // highest journal record the run wrote; 0: none
	subs []batchSub // the run's Subscribes, in order, owed a start or a rollback
}

// batchSub is one Subscribe of a Batch: its queue, if it has one, is
// drained from the Sync on, by h on ob (see startDelivery).
type batchSub struct {
	id   core.ProcID
	cons *consumer
	ob   *Outbox
	h    Handler
}

// NewBatch starts an empty run of operations on b.
func (b *Broker) NewBatch() *Batch { return &Batch{b: b} }

// Owed reports whether the run has written a journal record, that is
// whether Sync has a disk to wait for. Always false on a memory-only
// broker.
func (bt *Batch) Owed() bool { return bt.seq != 0 }

// wrote notes an applied operation's highest journal record.
func (bt *Batch) wrote(seq uint64) { bt.seq = max(bt.seq, seq) }

// subscribe applies one Subscribe ahead of its sync. A subscription
// with a queue whose record needs no sync (a memory-only broker) starts
// delivering at once; any other waits for Sync.
func (bt *Batch) subscribe(id core.ProcID, f filter.Filter, cons *consumer, ob *Outbox, h Handler) error {
	seq, err := bt.b.subscribeAt(id, f, cons, true, -1)
	if err != nil {
		return err
	}
	if seq == 0 {
		if cons != nil {
			startDelivery(ob, cons, h)
		}
		return nil
	}
	bt.wrote(seq)
	bt.subs = append(bt.subs, batchSub{id: id, cons: cons, ob: ob, h: h})
	return nil
}

// remove applies one departure (leave is the engine's Leave or Crash)
// ahead of its sync.
func (bt *Batch) remove(id core.ProcID, leave func(core.ProcID) error) error {
	seq, err := bt.b.removeUnsynced(id, leave, nil)
	bt.wrote(seq)
	return err
}

// Unsubscribe applies Broker.Unsubscribe ahead of its sync.
func (bt *Batch) Unsubscribe(id core.ProcID) error { return bt.remove(id, bt.b.eng.Leave) }

// updateFilter applies Broker.UpdateFilter ahead of its sync.
func (bt *Batch) updateFilter(id core.ProcID, f filter.Filter) error {
	rect, err := bt.b.space.Rect(f)
	if err != nil {
		return fmt.Errorf("pubsub: compiling filter: %w", err)
	}
	seq, err := bt.b.updateFilterUnsynced(id, f, rect)
	bt.wrote(seq)
	return err
}

// Sync returns once every record the run wrote is durable, and empties
// the run. It holds no gateway or pool lock across the disk wait. On
// success each queue-backed Subscribe of the run starts delivering. On
// failure the error is owed to every operation the run applied, and
// this is the one place the outcome is decided: each Subscribe is taken
// back, latest first, through the normal remove path, its queue closed
// (not durable, so not acknowledged); each Unsubscribe, Fail and
// UpdateFilter stands (the engine has let go, the new filter is in
// force) and the error says durability is behind.
func (bt *Batch) Sync() error {
	seq, subs := bt.seq, bt.subs
	bt.seq, bt.subs = 0, bt.subs[:0]
	defer clear(subs)
	if err := bt.b.journalSync(seq); err != nil {
		for i := len(subs) - 1; i >= 0; i-- {
			s := subs[i]
			// Best-effort: if the engine refuses the departure the
			// subscriber stays, as after any refused Unsubscribe, and
			// the caller has the sync error either way. A queue-backed
			// Subscribe takes back only the registration this run made:
			// an ID the run also unsubscribed may since be someone
			// else's.
			_, _ = bt.b.removeUnsynced(s.id, bt.b.eng.Leave, s.cons)
			if s.cons != nil {
				s.cons.q.Close()
			}
		}
		return err
	}
	for _, s := range subs {
		if s.cons != nil {
			startDelivery(s.ob, s.cons, s.h)
		}
	}
	return nil
}

// journalFrontier returns the sequence number of the last record
// written, 0 on a memory-only broker. Under an exclusive hold of
// poolMu, or under every gateway's lock, no one else is writing, so
// this is the caller's own highest record (or an older one, which is
// durable or about to be: syncing on it is harmless).
func (b *Broker) journalFrontier() uint64 {
	if b.store == nil {
		return 0
	}
	return b.store.Written()
}

// checkpointAsync runs Checkpoint in the background, one at a time.
func (b *Broker) checkpointAsync() {
	if !b.snapBusy.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer b.snapBusy.Store(false)
		// Best-effort: a failed background checkpoint leaves the log
		// longer than ideal; the next cadence trigger retries.
		_ = b.Checkpoint()
	}()
}

// Checkpoint snapshots the current subscription table (and, for a fit
// pool, the pool membership) into the store and compacts the
// journal. The cut — the blob, and the sequence number of the last
// record it reflects — is taken under the shared pool lock plus every
// gateway's read lock simultaneously, which excludes all journal writes
// (they run under a gateway write lock) and all pool reorganizations
// (they hold the pool lock exclusively), so the blob and the covered log
// prefix describe exactly the same history. The locks are released
// before the store is touched: writing the snapshot is a temp file, two
// fsyncs and a rename, and a Subscribe queued behind those read locks
// would park every later NotifyPoint behind itself for all of it.
// Records written meanwhile are above the cut and stay in the log. No-op
// on a memory-only broker.
func (b *Broker) Checkpoint() error {
	if b.store == nil {
		return nil
	}
	b.poolMu.RLock()
	gws := b.gws
	for _, gw := range gws {
		gw.mu.RLock()
	}
	w := wire.NewWriter(make([]byte, 0, 1024))
	w.Byte(journalVersion)
	var offs []int
	if !b.policy.fixedShape() {
		offs = b.poolOffsetsLocked()
	}
	w.Uvarint(uint64(len(offs)))
	for _, off := range offs {
		w.Uvarint(uint64(off))
	}
	w.Uvarint(uint64(len(b.assign)))
	for _, gw := range gws {
		for id, sub := range gw.subs {
			w.Varint(int64(id))
			w.Uvarint(uint64(gw.off))
			encodeFilter(w, sub.f)
		}
	}
	covered := b.journalFrontier()
	for _, gw := range gws {
		gw.mu.RUnlock()
	}
	b.poolMu.RUnlock()
	if err := b.store.Snapshot(w.Bytes(), covered); err != nil {
		return fmt.Errorf("pubsub: checkpoint: %w", err)
	}
	b.sinceSnap.Store(0)
	if err := b.store.Compact(); err != nil {
		return fmt.Errorf("pubsub: compact: %w", err)
	}
	return nil
}

// RecoverStats summarizes one Recover pass.
type RecoverStats struct {
	// Snapshot reports whether a snapshot baseline was replayed.
	Snapshot bool
	// Records is the number of journal records replayed after it.
	Records int
	// Subscribers is the size of the rebuilt subscription set.
	Subscribers int
}

// replaySub is one subscription folded out of the log: its filter and
// the pool offset of its last known gateway.
type replaySub struct {
	f   filter.Filter
	off int
}

// replayState is the fold target of one Replay pass.
type replayState struct {
	subs map[core.ProcID]replaySub
	// pool is the set of live pool offsets: the configured floor, then
	// grow minus retire, or a snapshot's offsets.
	pool   map[int]bool
	maxOff int
}

func (st *replayState) noteOff(off int) {
	if off > st.maxOff {
		st.maxOff = off
	}
}

// Recover rebuilds the subscription set from the broker's store: the
// snapshot baseline (if any) plus every journaled operation after it,
// re-applied through the normal subscribe path so subscriber shards,
// match-index R-trees and gateway MBR-unions are all re-derived and the
// gateways re-join the overlay. A fit pool first rebuilds its pre-crash
// shape from the journaled pool records, then pins every subscription to
// its journaled gateway, so the recovered assignment is the pre-crash
// assignment, not a re-derived one. A hash pool keeps the shape it was
// configured with and re-hashes every subscriber onto it. Recovered
// subscriptions are record-only — delivery queues cannot outlive a
// process — and their owners re-attach with AttachFunc/AttachChan. Call
// on a freshly constructed broker (it fails on one that already has
// subscribers), then Repair to drive the overlay to quiescence.
func (b *Broker) Recover() (RecoverStats, error) {
	var st RecoverStats
	if b.store == nil {
		return st, fmt.Errorf("pubsub: Recover needs a broker constructed WithStore")
	}
	if b.Len() != 0 {
		return st, fmt.Errorf("pubsub: Recover on a broker with live subscribers")
	}
	// The initial floor gateways predate any journal record.
	rs := replayState{subs: make(map[core.ProcID]replaySub), pool: make(map[int]bool)}
	for i := 0; i < b.policy.min; i++ {
		rs.pool[i] = true
		rs.noteOff(i)
	}
	err := b.store.Replay(func(e state.Entry) error {
		if e.Snapshot {
			st.Snapshot = true
			return decodeSnapshot(e.Data, &rs)
		}
		st.Records++
		return applyJournalRecord(e.Data, &rs)
	})
	if err != nil {
		return st, err
	}
	if !b.policy.fixedShape() {
		b.rebuildPool(&rs)
	}
	ids := make([]core.ProcID, 0, len(rs.subs))
	for id := range rs.subs {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, func(a, b core.ProcID) int { return cmp.Compare(a, b) })
	for _, id := range ids {
		if _, err := b.subscribeAt(id, rs.subs[id].f, nil, false, rs.subs[id].off); err != nil {
			return st, fmt.Errorf("pubsub: recovering subscriber %d: %w", id, err)
		}
	}
	st.Subscribers = len(ids)
	// A placement re-derived above journaled an assign record. Like the
	// write itself this is best-effort: unsynced, the next recovery
	// re-derives the placement once more.
	_ = b.journalSync(b.journalFrontier())
	// The replayed suffix counts toward the checkpoint cadence: a
	// broker that crashes repeatedly still converges on a snapshot.
	b.sinceSnap.Store(uint64(st.Records))
	return st, nil
}

// rebuildPool reshapes the virgin fit pool to the journaled
// membership before any subscription replays: every journaled offset
// gets an (empty, unjoined) gateway, in offset order.
func (b *Broker) rebuildPool(rs *replayState) {
	offs := make([]int, 0, len(rs.pool))
	for off := range rs.pool {
		offs = append(offs, off)
	}
	slices.Sort(offs)
	b.poolMu.Lock()
	defer b.poolMu.Unlock()
	b.gws = b.gws[:0]
	b.idle = b.idle[:0]
	clear(b.byProc)
	for _, off := range offs {
		gw := b.newGateway(off)
		b.gws = append(b.gws, gw)
		b.byProc[gw.procID] = gw
		b.idle = append(b.idle, gw)
	}
	b.nextOff = max(rs.maxOff+1, b.policy.min)
}

// encodeFilter appends a filter's exact predicate list.
func encodeFilter(w *wire.Writer, f filter.Filter) {
	preds := f.Predicates()
	w.Uvarint(uint64(len(preds)))
	for _, p := range preds {
		w.String(p.Attr)
		w.Byte(byte(p.Op))
		w.F64(p.Value)
	}
}

// decodeFilter reads a predicate list and rebuilds the filter.
func decodeFilter(r *wire.Reader) filter.Filter {
	n := r.Uvarint()
	if r.Err() != nil {
		return filter.Filter{}
	}
	// Each predicate is at least 1 (attr len) + 1 (op) + 8 (value).
	if n > uint64(r.Remaining())/10 {
		r.Fail(fmt.Errorf("pubsub: journal: %d predicates exceed record", n))
		return filter.Filter{}
	}
	preds := make([]filter.Predicate, n)
	for i := range preds {
		preds[i].Attr = r.String()
		op := filter.Op(r.Byte())
		if r.Err() == nil && (op < filter.OpEq || op > filter.OpGe) {
			r.Fail(fmt.Errorf("pubsub: journal: unknown predicate op %d", op))
		}
		preds[i].Op = op
		preds[i].Value = r.F64()
	}
	if r.Err() != nil {
		return filter.Filter{}
	}
	return filter.New(preds...)
}

// applyJournalRecord folds one journal record into the replay state.
func applyJournalRecord(rec []byte, rs *replayState) error {
	r := wire.NewReader(rec)
	v := r.Byte()
	if r.Err() == nil && v != journalVersion {
		return fmt.Errorf("pubsub: journal record version %d, this build reads %d", v, journalVersion)
	}
	op := r.Byte()
	if op == journalPoolOp {
		kind := r.Byte()
		off := int(r.Uvarint())
		if err := r.Err(); err != nil {
			return fmt.Errorf("pubsub: journal record: %w", err)
		}
		switch kind {
		case poolGrow:
			rs.pool[off] = true
			rs.noteOff(off)
		case poolRetire:
			delete(rs.pool, off)
			rs.noteOff(off)
		default:
			return fmt.Errorf("pubsub: journal pool record kind %d unknown", kind)
		}
		if r.Remaining() != 0 {
			return fmt.Errorf("pubsub: journal record: %d trailing bytes", r.Remaining())
		}
		return nil
	}
	id := core.ProcID(r.Varint())
	switch op {
	case journalSubscribe, journalUpdate:
		off := int(r.Uvarint())
		f := decodeFilter(r)
		if err := r.Err(); err != nil {
			return fmt.Errorf("pubsub: journal record: %w", err)
		}
		rs.noteOff(off)
		rs.subs[id] = replaySub{f: f, off: off}
	case journalUnsubscribe:
		if err := r.Err(); err != nil {
			return fmt.Errorf("pubsub: journal record: %w", err)
		}
		delete(rs.subs, id)
	case journalAssignOp:
		off := int(r.Uvarint())
		if err := r.Err(); err != nil {
			return fmt.Errorf("pubsub: journal record: %w", err)
		}
		rs.noteOff(off)
		// An assign for an id the fold no longer holds is a harmless
		// stale move record (its subscribe was compacted away after an
		// unsubscribe); placement at recovery handles the rest.
		if s, ok := rs.subs[id]; ok {
			s.off = off
			rs.subs[id] = s
		}
	default:
		if err := r.Err(); err != nil {
			return fmt.Errorf("pubsub: journal record: %w", err)
		}
		return fmt.Errorf("pubsub: journal record op %d unknown", op)
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("pubsub: journal record: %d trailing bytes", r.Remaining())
	}
	return nil
}

// decodeSnapshot folds a snapshot blob into the replay state, replacing
// whatever the fold held (a snapshot is a full baseline).
func decodeSnapshot(blob []byte, rs *replayState) error {
	r := wire.NewReader(blob)
	v := r.Byte()
	if r.Err() == nil && v != journalVersion {
		return fmt.Errorf("pubsub: snapshot version %d, this build reads %d", v, journalVersion)
	}
	clear(rs.subs)
	np := r.Uvarint()
	if err := r.Err(); err != nil {
		return fmt.Errorf("pubsub: snapshot: %w", err)
	}
	if np > uint64(r.Remaining()) {
		return fmt.Errorf("pubsub: snapshot: %d pool offsets exceed blob", np)
	}
	if np > 0 {
		clear(rs.pool)
		for i := uint64(0); i < np; i++ {
			off := int(r.Uvarint())
			rs.pool[off] = true
			rs.noteOff(off)
		}
	}
	n := r.Uvarint()
	if err := r.Err(); err != nil {
		return fmt.Errorf("pubsub: snapshot: %w", err)
	}
	// Each entry is at least id(1) + npreds(1).
	if n > uint64(r.Remaining())/2 {
		return fmt.Errorf("pubsub: snapshot: %d entries exceed blob", n)
	}
	for i := uint64(0); i < n; i++ {
		id := core.ProcID(r.Varint())
		off := int(r.Uvarint())
		rs.noteOff(off)
		f := decodeFilter(r)
		if err := r.Err(); err != nil {
			return fmt.Errorf("pubsub: snapshot entry %d: %w", i, err)
		}
		rs.subs[id] = replaySub{f: f, off: off}
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("pubsub: snapshot: %d trailing bytes", r.Remaining())
	}
	return nil
}
