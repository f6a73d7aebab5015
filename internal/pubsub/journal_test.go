package pubsub

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"drtree/internal/core"
	"drtree/internal/filter"
	"drtree/internal/proto"
	"drtree/internal/state"
)

// diskStore is a state.Store double that adds to Mem what a disk adds:
// a record survives a crash only once a Sync that covers it has
// completed. Sync can be made to park (gate) and to fail, Write to
// fail; nothing here touches a file.
type diskStore struct {
	*state.Mem

	mu       sync.Mutex
	durable  uint64 // highest sequence number a completed Sync covered
	fsyncs   int    // Syncs that had something left to do
	gate     chan struct{}
	writeErr error
	syncErr  error

	// entered announces each Sync call before it parks. Sized to the
	// handful of calls one test makes, so Sync never waits on the test.
	entered chan uint64
}

func newDiskStore() *diskStore {
	return &diskStore{Mem: state.NewMem(), entered: make(chan uint64, 64)}
}

// park makes every later Sync wait until the returned release is called
// (once; later calls do nothing, so a test can also defer it).
func (d *diskStore) park() (release func()) {
	gate := make(chan struct{})
	d.mu.Lock()
	d.gate = gate
	d.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			d.mu.Lock()
			d.gate = nil
			d.mu.Unlock()
			close(gate)
		})
	}
}

func (d *diskStore) fail(writeErr, syncErr error) {
	d.mu.Lock()
	d.writeErr, d.syncErr = writeErr, syncErr
	d.mu.Unlock()
}

func (d *diskStore) Write(rec []byte) (uint64, error) {
	d.mu.Lock()
	err := d.writeErr
	d.mu.Unlock()
	if err != nil {
		return 0, err
	}
	return d.Mem.Write(rec)
}

// Sync is a group commit, as the WAL's: whoever gets to the disk first
// covers everything written by then, the rest find their record durable.
func (d *diskStore) Sync(seq uint64) error {
	d.mu.Lock()
	gate := d.gate
	d.mu.Unlock()
	d.entered <- seq
	if gate != nil {
		<-gate
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.syncErr != nil {
		return d.syncErr
	}
	if d.durable < seq {
		d.durable = d.Mem.Written()
		d.fsyncs++
	}
	return nil
}

// crash returns the store a restarted process would open: the records a
// completed Sync covered, and none after them.
func (d *diskStore) crash(t *testing.T) *state.Mem {
	t.Helper()
	d.mu.Lock()
	durable := d.durable
	d.mu.Unlock()
	after := state.NewMem()
	n := uint64(0)
	err := d.Mem.Replay(func(e state.Entry) error {
		if e.Snapshot {
			t.Fatalf("diskStore.crash does not model snapshots")
		}
		if n++; n <= durable {
			_, err := after.Write(e.Data)
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatalf("replaying the crashed store: %v", err)
	}
	return after
}

// awaitSync waits for the next Sync call to reach the store.
func (d *diskStore) awaitSync(t *testing.T) uint64 {
	t.Helper()
	select {
	case seq := <-d.entered:
		return seq
	case <-time.After(10 * time.Second):
		t.Fatalf("no Sync reached the store")
		return 0
	}
}

// TestSubscribeDoesNotHoldGatewayAcrossSync: while one Subscribe waits
// for its fsync the gateway is free. Matching on that gateway delivers —
// to an older subscriber and to the one still waiting for its ack — a
// second Subscribe on it gets as far as its own fsync, and one fsync
// then acknowledges both. The second case is the daemon's composition:
// NotifyGateway runs on a live cluster's run loop (notifyHook), and the
// events published while a Subscribe is parked in its fsync keep
// arriving. When a Subscribe held gw.mu across the fsync, NotifyGateway
// waited behind it, and the run loop with it.
func TestSubscribeDoesNotHoldGatewayAcrossSync(t *testing.T) {
	t.Run("NotifyGateway", func(t *testing.T) {
		d := newDiskStore()
		b := newDurableBroker(t, d, WithGateways(1))
		defer b.Close()
		inRange := filter.Range("price", 0, 10)
		got := map[core.ProcID]chan uint64{1: make(chan uint64, 1), 2: make(chan uint64, 1)}
		handler := func(id core.ProcID) Handler {
			return func(e Envelope) error { got[id] <- e.Seq; return nil }
		}
		if err := b.SubscribeFunc(1, inRange, handler(1)); err != nil {
			t.Fatalf("subscribe 1: %v", err)
		}
		d.awaitSync(t)

		release := d.park()
		defer release() // a failed assertion must not leave Close behind a parked Subscribe
		acks := make(chan error, 2)
		go func() { acks <- b.SubscribeFunc(2, inRange, handler(2)) }()
		d.awaitSync(t) // 2 is registered and parked in its fsync

		matched := make(chan int, 1)
		go func() { matched <- b.NotifyGateway(b.GatewayOf(1), filter.Event{"price": 5, "qty": 1}) }()
		select {
		case n := <-matched:
			if n != 2 {
				t.Fatalf("NotifyGateway matched %d subscribers, want the older one and the parked one", n)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("NotifyGateway stood behind a Subscribe that is waiting for its fsync")
		}
		select {
		case <-got[1]:
		case <-time.After(10 * time.Second):
			t.Fatalf("the older subscriber was not delivered to")
		}

		go func() { acks <- b.Subscribe(3, filter.Range("price", 20, 30)) }()
		d.awaitSync(t) // 3 took the gateway lock, committed, and reached its own fsync
		if n := b.Len(); n != 3 {
			t.Fatalf("Len() = %d with two Subscribes parked, want 3 (visible before durable)", n)
		}
		select {
		case err := <-acks:
			t.Fatalf("a Subscribe returned (%v) before its fsync did", err)
		default:
		}

		d.mu.Lock()
		before := d.fsyncs
		d.mu.Unlock()
		release()
		for i := 0; i < 2; i++ {
			if err := <-acks; err != nil {
				t.Fatalf("parked Subscribe: %v", err)
			}
		}
		d.mu.Lock()
		fsyncs := d.fsyncs - before
		d.mu.Unlock()
		if fsyncs != 1 {
			t.Fatalf("two parked Subscribes cost %d fsyncs, want 1", fsyncs)
		}
		// What matched while 2 was parked sat in its queue; acknowledged, it
		// drains.
		select {
		case <-got[2]:
		case <-time.After(10 * time.Second):
			t.Fatalf("the event matched while subscriber 2 was parked never reached its handler")
		}
	})
	t.Run("run loop", func(t *testing.T) {
		d := newDiskStore()
		lc, err := proto.NewLiveCluster(proto.Config{MinFanout: 2, MaxFanout: 4})
		if err != nil {
			t.Fatal(err)
		}
		space := filter.MustSpace("price", "qty")
		b, err := New(space, lc, WithStore(d), WithGateways(1))
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		lc.SetEventHook(notifyHook(b))
		inRange := filter.Range("price", 0, 10)
		got := map[core.ProcID]chan uint64{1: make(chan uint64, 16), 2: make(chan uint64, 16)}
		handler := func(id core.ProcID) Handler {
			return func(e Envelope) error { got[id] <- e.Seq; return nil }
		}
		if err := b.SubscribeFunc(1, inRange, handler(1)); err != nil {
			t.Fatalf("subscribe 1: %v", err)
		}
		d.awaitSync(t)

		release := d.park()
		defer release()
		acked := make(chan error, 1)
		go func() { acked <- b.SubscribeFunc(2, inRange, handler(2)) }()
		d.awaitSync(t) // 2 is registered and parked in its fsync

		const events = 5
		for i := range events {
			if err := b.PublishAsync(1, filter.Event{"price": 5, "qty": 1}); err != nil {
				t.Fatalf("publish %d: %v", i, err)
			}
			select {
			case <-got[1]:
			case <-time.After(10 * time.Second):
				t.Fatalf("event %d never reached subscriber 1 while subscriber 2 was parked in its fsync", i)
			}
		}
		select {
		case err := <-acked:
			t.Fatalf("Subscribe returned (%v) before its fsync did", err)
		default:
		}
		release()
		if err := <-acked; err != nil {
			t.Fatalf("parked Subscribe: %v", err)
		}
		for i := range events {
			select {
			case <-got[2]:
			case <-time.After(10 * time.Second):
				t.Fatalf("event %d, matched while subscriber 2 was parked, never reached its handler", i)
			}
		}
	})
}

// TestJournalFailureOutcomes pins what each operation leaves behind when
// the journal fails at either half: a failed Write leaves Subscribe and
// UpdateFilter untouched (nothing was committed yet); a failed Sync
// rolls a Subscribe back (not durable, so not acknowledged); an
// Unsubscribe stands either way (the engine has let go) and an
// UpdateFilter whose Sync failed keeps the new filter — both return the
// error to say durability is behind. A Batch whose one Sync fails owes
// that error to every operation in it, under the same rule per
// operation.
func TestJournalFailureOutcomes(t *testing.T) {
	boom := errors.New("disk on fire")
	low, high := filter.Range("price", 0, 10), filter.Range("price", 20, 30)
	const lowAt, highAt = 5, 25
	for _, tc := range []struct {
		name     string
		op       func(b *Broker) error
		writeErr error
		syncErr  error
		wantLen  int
		wantLow  []core.ProcID // Interested at price 5
		wantHigh []core.ProcID // Interested at price 25
	}{
		{name: "subscribe/write fails: untouched", writeErr: boom,
			op:      func(b *Broker) error { return b.Subscribe(3, high) },
			wantLen: 2, wantLow: []core.ProcID{1, 2}},
		{name: "subscribe/sync fails: rolled back", syncErr: boom,
			op:      func(b *Broker) error { return b.Subscribe(3, high) },
			wantLen: 2, wantLow: []core.ProcID{1, 2}},
		{name: "unsubscribe/write fails: stands", writeErr: boom,
			op:      func(b *Broker) error { return b.Unsubscribe(1) },
			wantLen: 1, wantLow: []core.ProcID{2}},
		{name: "unsubscribe/sync fails: stands", syncErr: boom,
			op:      func(b *Broker) error { return b.Unsubscribe(1) },
			wantLen: 1, wantLow: []core.ProcID{2}},
		{name: "update/write fails: untouched", writeErr: boom,
			op:      func(b *Broker) error { return b.UpdateFilter(1, high) },
			wantLen: 2, wantLow: []core.ProcID{1, 2}},
		{name: "update/sync fails: new filter stands", syncErr: boom,
			op:      func(b *Broker) error { return b.UpdateFilter(1, high) },
			wantLen: 2, wantLow: []core.ProcID{2}, wantHigh: []core.ProcID{1}},
		{name: "batch/sync fails: subscribes rolled back, unsubscribe stands", syncErr: boom,
			op: func(b *Broker) error {
				bt := b.NewBatch()
				for _, err := range []error{
					bt.subscribe(3, high, nil, nil, nil),
					bt.Unsubscribe(1),
					bt.subscribe(4, high, nil, nil, nil),
				} {
					if err != nil {
						return fmt.Errorf("applying ahead of the sync: %v", err)
					}
				}
				return bt.Sync()
			},
			wantLen: 1, wantLow: []core.ProcID{2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := newDiskStore()
			b := newDurableBroker(t, d, WithGateways(1))
			defer b.Close()
			for id := core.ProcID(1); id <= 2; id++ {
				if err := b.Subscribe(id, low); err != nil {
					t.Fatalf("subscribe %d: %v", id, err)
				}
			}
			d.fail(tc.writeErr, tc.syncErr)
			if err := tc.op(b); !errors.Is(err, boom) {
				t.Fatalf("operation returned %v, want the store's error", err)
			}
			d.fail(nil, nil)
			if n := b.Len(); n != tc.wantLen {
				t.Fatalf("Len() = %d, want %d", n, tc.wantLen)
			}
			for _, probe := range []struct {
				price float64
				want  []core.ProcID
			}{{lowAt, tc.wantLow}, {highAt, tc.wantHigh}} {
				note, err := b.Publish(2, filter.Event{"price": probe.price, "qty": 0})
				if err != nil {
					t.Fatalf("probe publish: %v", err)
				}
				if !slices.Equal(note.Interested, probe.want) || len(note.FalseNegatives) != 0 {
					t.Fatalf("price %v: interested %v (false negatives %v), want %v",
						probe.price, note.Interested, note.FalseNegatives, probe.want)
				}
			}
		})
	}
}

// TestCrashBeforeSyncLosesOnlyUnacked: a crash between an operation's
// Write and the end of its Sync — the window in which it is visible but
// not durable — can only undo operations that were never acknowledged.
// Every Subscribe that returned nil is recovered, and nothing whose
// Unsubscribe returned nil is.
func TestCrashBeforeSyncLosesOnlyUnacked(t *testing.T) {
	d := newDiskStore()
	b := newDurableBroker(t, d)
	f := func(id core.ProcID) filter.Filter { return filter.Range("price", float64(id), float64(id)+10) }
	for id := core.ProcID(1); id <= 6; id++ {
		if err := b.Subscribe(id, f(id)); err != nil {
			t.Fatalf("subscribe %d: %v", id, err)
		}
	}
	if err := b.Unsubscribe(2); err != nil {
		t.Fatalf("unsubscribe 2: %v", err)
	}

	release := d.park()
	defer release() // a failed assertion must not leave Close behind a parked Subscribe
	for len(d.entered) > 0 {
		<-d.entered
	}
	done := make(chan error, 2)
	go func() { done <- b.Subscribe(7, f(7)) }()
	d.awaitSync(t)
	go func() { done <- b.Unsubscribe(3) }()
	d.awaitSync(t)
	// Both are committed in memory and neither is acknowledged: the crash
	// happens here.
	if n := b.Len(); n != 5 {
		t.Fatalf("Len() = %d before the crash, want 5 (7 in, 3 out)", n)
	}
	after := d.crash(t)
	release()
	<-done
	<-done
	b.Close()

	b2 := newDurableBroker(t, after)
	defer b2.Close()
	if _, err := b2.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	got := subscriberSet(b2)
	for _, id := range []core.ProcID{1, 4, 5, 6} {
		if got[id] != f(id).String() {
			t.Errorf("acknowledged subscriber %d recovered as %q, want %q", id, got[id], f(id))
		}
	}
	if _, ghost := got[2]; ghost {
		t.Errorf("subscriber 2 recovered after its Unsubscribe was acknowledged")
	}
	// What the crash may change is the unacknowledged pair, and only
	// towards the state before them: 7 forgotten, 3 resurrected.
	if _, kept := got[7]; kept {
		t.Errorf("subscriber 7 recovered though no Sync ever covered its record")
	}
	if got[3] != f(3).String() {
		t.Errorf("subscriber 3 recovered as %q; its Unsubscribe was never durable", got[3])
	}
	if len(got) != 5 {
		t.Errorf("recovered %d subscribers %v, want 5", len(got), got)
	}
}

// TestBatchOneSyncPerRun: operations applied to one Batch cost one
// fsync between them, are visible to matching before it, and a
// queue-backed Subscribe among them delivers only once it is durable.
func TestBatchOneSyncPerRun(t *testing.T) {
	d := newDiskStore()
	b := newDurableBroker(t, d, WithGateways(2))
	defer b.Close()
	all := filter.Range("price", 0, 100)
	if err := b.Subscribe(1, all); err != nil {
		t.Fatal(err)
	}
	d.awaitSync(t)
	ob := b.NewOutbox(nil)
	defer ob.Close()
	got := make(chan uint64, 8)
	bt := b.NewBatch()
	if err := ob.SubscribeFunc(bt, 2, all, func(e Envelope) error { got <- e.Seq; return nil }); err != nil {
		t.Fatal(err)
	}
	if err := bt.subscribe(3, all, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := bt.Unsubscribe(1); err != nil {
		t.Fatal(err)
	}
	if !bt.Owed() {
		t.Fatal("a run that journaled three records owes no sync")
	}
	if n := b.NotifyGateway(b.GatewayOf(2), filter.Event{"price": 5, "qty": 0}); n != 1 {
		t.Fatalf("NotifyGateway matched %d of subscriber 2's gateway ahead of the sync, want 1", n)
	}
	select {
	case seq := <-got:
		t.Fatalf("subscriber 2 was delivered event %d before its run was synced", seq)
	case <-time.After(20 * time.Millisecond):
	}
	d.mu.Lock()
	before := d.fsyncs
	d.mu.Unlock()
	if err := bt.Sync(); err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	fsyncs := d.fsyncs - before
	d.mu.Unlock()
	if fsyncs != 1 || bt.Owed() {
		t.Fatalf("a run of three operations cost %d fsyncs (owed after: %v), want 1", fsyncs, bt.Owed())
	}
	select {
	case <-got:
	case <-time.After(10 * time.Second):
		t.Fatal("the event matched ahead of the sync never reached subscriber 2")
	}
}

// TestBatchSyncFailureTakesBackResubscribe: Subscribe(X), Unsubscribe(X),
// Subscribe(X) in one run whose Sync fails leaves X unregistered and
// both of its queues closed; neither handler ever ran.
func TestBatchSyncFailureTakesBackResubscribe(t *testing.T) {
	boom := errors.New("disk on fire")
	d := newDiskStore()
	b := newDurableBroker(t, d, WithGateways(1))
	defer b.Close()
	ob := b.NewOutbox(nil)
	defer ob.Close()
	const x = core.ProcID(7)
	f := filter.Range("price", 0, 10)
	var ran atomic.Int64
	h := func(Envelope) error { ran.Add(1); return nil }
	queueOf := func() *consumer {
		t.Helper()
		gw := b.owner(x)
		if gw == nil {
			t.Fatalf("subscriber %d not registered ahead of the sync", x)
		}
		gw.mu.RLock()
		defer gw.mu.RUnlock()
		return gw.subs[x].cons
	}
	d.fail(nil, boom)
	bt := b.NewBatch()
	if err := ob.SubscribeFunc(bt, x, f, h); err != nil {
		t.Fatal(err)
	}
	first := queueOf()
	if err := bt.Unsubscribe(x); err != nil {
		t.Fatal(err)
	}
	if err := ob.SubscribeFunc(bt, x, f, h); err != nil {
		t.Fatal(err)
	}
	second := queueOf()
	b.NotifyGateway(b.GatewayOf(x), filter.Event{"price": 5, "qty": 0})
	if err := bt.Sync(); !errors.Is(err, boom) {
		t.Fatalf("Sync returned %v, want the store's error", err)
	}
	d.fail(nil, nil)
	if b.owner(x) != nil || b.Len() != 0 {
		t.Fatalf("subscriber %d still registered (Len %d) after its run's sync failed", x, b.Len())
	}
	for i, c := range []*consumer{first, second} {
		select {
		case <-c.q.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("queue %d of subscriber %d never closed", i+1, x)
		}
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("handlers ran %d times for a registration that was never durable", n)
	}
}

// TestCrashBeforeBatchSyncRecoversPriorSet: a crash after a run's
// Writes and before its Sync recovers exactly the set from before the
// run — Subscribe forgotten, Unsubscribe resurrected, UpdateFilter
// undone.
func TestCrashBeforeBatchSyncRecoversPriorSet(t *testing.T) {
	d := newDiskStore()
	b := newDurableBroker(t, d)
	f := func(id core.ProcID) filter.Filter { return filter.Range("price", float64(id), float64(id)+10) }
	for id := core.ProcID(1); id <= 4; id++ {
		if err := b.Subscribe(id, f(id)); err != nil {
			t.Fatalf("subscribe %d: %v", id, err)
		}
	}
	want := subscriberSet(b)
	bt := b.NewBatch()
	for _, err := range []error{
		bt.subscribe(5, f(5), nil, nil, nil),
		bt.Unsubscribe(2),
		bt.updateFilter(3, f(30)),
		bt.subscribe(6, f(6), nil, nil, nil),
	} {
		if err != nil {
			t.Fatalf("applying ahead of the sync: %v", err)
		}
	}
	after := d.crash(t)
	if err := bt.Sync(); err != nil {
		t.Fatal(err)
	}
	b.Close()

	b2 := newDurableBroker(t, after)
	defer b2.Close()
	if _, err := b2.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got := subscriberSet(b2); !maps.Equal(got, want) {
		t.Fatalf("recovered %v, want the set before the run %v", got, want)
	}
}
