package pubsub

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"drtree/internal/core"
	"drtree/internal/filter"
	"drtree/internal/state"
	"drtree/internal/wire"
)

// newDurableBroker builds a broker over a fresh sequential engine and
// the given store.
func newDurableBroker(t *testing.T, s state.Store, opts ...Option) *Broker {
	t.Helper()
	b, err := newCore(filter.MustSpace("price", "qty"), core.Params{MinFanout: 2, MaxFanout: 4},
		append([]Option{WithStore(s)}, opts...)...)
	if err != nil {
		t.Fatalf("newCore: %v", err)
	}
	return b
}

// subscriberSet snapshots id -> filter string for comparison.
func subscriberSet(b *Broker) map[core.ProcID]string {
	out := make(map[core.ProcID]string)
	for _, gw := range b.gws {
		gw.mu.RLock()
		for id, sub := range gw.subs {
			out[id] = sub.f.String()
		}
		gw.mu.RUnlock()
	}
	return out
}

func storesForRecovery(t *testing.T) map[string]func() (state.Store, func() state.Store) {
	return map[string]func() (state.Store, func() state.Store){
		"mem": func() (state.Store, func() state.Store) {
			m := state.NewMem()
			return m, func() state.Store { return m }
		},
		"wal": func() (state.Store, func() state.Store) {
			dir := t.TempDir()
			w, err := state.OpenWAL(dir)
			if err != nil {
				t.Fatalf("OpenWAL: %v", err)
			}
			return w, func() state.Store {
				w.Close()
				nw, err := state.OpenWAL(dir)
				if err != nil {
					t.Fatalf("reopen WAL: %v", err)
				}
				return nw
			}
		},
	}
}

func TestBrokerRecoverRebuildsSubscriptions(t *testing.T) {
	for name, mk := range storesForRecovery(t) {
		t.Run(name, func(t *testing.T) {
			s, reopen := mk()
			b := newDurableBroker(t, s)
			// A mix of plain, func and chan subscribers, plus churn.
			for i := 1; i <= 40; i++ {
				f := filter.Range("price", float64(i), float64(i+10))
				var err error
				switch i % 3 {
				case 0:
					err = b.Subscribe(core.ProcID(i), f)
				case 1:
					err = b.SubscribeFunc(core.ProcID(i), f, func(Envelope) error { return nil })
				default:
					_, err = b.SubscribeChan(core.ProcID(i), f)
				}
				if err != nil {
					t.Fatalf("subscribe %d: %v", i, err)
				}
			}
			for i := 1; i <= 40; i += 4 {
				if err := b.Unsubscribe(core.ProcID(i)); err != nil {
					t.Fatalf("unsubscribe %d: %v", i, err)
				}
			}
			for i := 2; i <= 40; i += 8 {
				if err := b.UpdateFilter(core.ProcID(i), filter.Range("qty", 0, float64(i))); err != nil {
					t.Fatalf("update %d: %v", i, err)
				}
			}
			want := subscriberSet(b)
			b.Close()

			// "Restart": fresh engine + broker over the reopened store.
			b2 := newDurableBroker(t, reopen())
			st, err := b2.Recover()
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			defer b2.Close()
			b2.Repair()
			got := subscriberSet(b2)
			if len(got) != len(want) {
				t.Fatalf("recovered %d subscribers, want %d", len(got), len(want))
			}
			for id, f := range want {
				if got[id] != f {
					t.Fatalf("subscriber %d recovered filter %q, want %q", id, got[id], f)
				}
			}
			if st.Subscribers != len(want) {
				t.Fatalf("RecoverStats.Subscribers = %d, want %d", st.Subscribers, len(want))
			}
			// The recovered broker must route with zero false negatives.
			ev := filter.Event{"price": 15, "qty": 3}
			producer := core.ProcID(0)
			for id := range want {
				producer = id
				break
			}
			note, err := b2.Publish(producer, ev)
			if err != nil {
				t.Fatalf("Publish after recover: %v", err)
			}
			if len(note.FalseNegatives) != 0 {
				t.Fatalf("false negatives after recovery: %v", note.FalseNegatives)
			}
			if len(note.Interested) == 0 {
				t.Fatalf("nobody interested in %v — bad test setup", ev)
			}
		})
	}
}

func TestBrokerRecoverSnapshotPlusSuffix(t *testing.T) {
	for name, mk := range storesForRecovery(t) {
		t.Run(name, func(t *testing.T) {
			s, reopen := mk()
			b := newDurableBroker(t, s)
			for i := 1; i <= 20; i++ {
				if err := b.Subscribe(core.ProcID(i), filter.Range("price", 0, float64(i))); err != nil {
					t.Fatalf("subscribe: %v", err)
				}
			}
			if err := b.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			// Suffix after the snapshot: adds, removes, updates.
			for i := 21; i <= 30; i++ {
				if err := b.Subscribe(core.ProcID(i), filter.Range("qty", 0, float64(i))); err != nil {
					t.Fatalf("subscribe: %v", err)
				}
			}
			b.Unsubscribe(5)
			b.UpdateFilter(7, filter.Range("qty", 1, 2))
			want := subscriberSet(b)
			b.Close()

			b2 := newDurableBroker(t, reopen())
			st, err := b2.Recover()
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			defer b2.Close()
			if !st.Snapshot {
				t.Fatalf("RecoverStats.Snapshot = false, want snapshot baseline")
			}
			got := subscriberSet(b2)
			if len(got) != len(want) {
				t.Fatalf("recovered %d subscribers, want %d", len(got), len(want))
			}
			for id, f := range want {
				if got[id] != f {
					t.Fatalf("subscriber %d: %q want %q", id, got[id], f)
				}
			}
		})
	}
}

// TestHashPoolRecoversUnderNewSize pins "a hash pool's shape and
// assignment are configuration": a durable 4-gateway broker (snapshot
// plus journal suffix) recovered as an 8-gateway one puts every
// subscriber on base + id mod 8 — the journaled offsets name the old
// pool — and routes a probe sweep with zero false negatives.
func TestHashPoolRecoversUnderNewSize(t *testing.T) {
	const base = 10
	for name, mk := range storesForRecovery(t) {
		t.Run(name, func(t *testing.T) {
			s, reopen := mk()
			b := newDurableBroker(t, s, WithGateways(4), WithGatewayBase(base))
			live := map[core.ProcID]filter.Filter{}
			sub := func(id core.ProcID, f filter.Filter) {
				if err := b.Subscribe(id, f); err != nil {
					t.Fatalf("subscribe %d: %v", id, err)
				}
				live[id] = f
			}
			for i := 1; i <= 30; i++ {
				sub(core.ProcID(i), filter.Range("price", float64(i), float64(i+10)).And(filter.Range("qty", 0, float64(i))))
			}
			if err := b.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			for i := 31; i <= 45; i++ {
				sub(core.ProcID(i), filter.Range("qty", float64(i), float64(i+5)))
			}
			for _, id := range []core.ProcID{3, 17, 33} {
				if err := b.Unsubscribe(id); err != nil {
					t.Fatal(err)
				}
				delete(live, id)
			}
			for _, id := range []core.ProcID{8, 40} {
				f := filter.Range("price", 60, 70)
				if err := b.UpdateFilter(id, f); err != nil {
					t.Fatal(err)
				}
				live[id] = f
			}
			b.Close()

			b2 := newDurableBroker(t, reopen(), WithGateways(8), WithGatewayBase(base))
			defer b2.Close()
			st, err := b2.Recover()
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			if !st.Snapshot || st.Subscribers != len(live) {
				t.Fatalf("RecoverStats %+v, want a snapshot and %d subscribers", st, len(live))
			}
			b2.Repair()
			if b2.Gateways() != 8 {
				t.Fatalf("recovered pool has %d gateways, want the configured 8", b2.Gateways())
			}
			for id := range live {
				if got, want := b2.GatewayOf(id), core.ProcID(base+int(id)%8); got != want {
					t.Fatalf("subscriber %d recovered onto gateway %d, want %d", id, got, want)
				}
			}
			for id, f := range live {
				plo, phi, _ := f.Interval("price")
				qlo, qhi, _ := f.Interval("qty")
				ev := filter.Event{"price": (max(plo, -50) + min(phi, 150)) / 2, "qty": (max(qlo, -50) + min(qhi, 150)) / 2}
				note, err := b2.Publish(id, ev)
				if err != nil {
					t.Fatalf("publish from %d: %v", id, err)
				}
				if len(note.FalseNegatives) != 0 || !slices.Contains(note.Interested, id) {
					t.Fatalf("probe inside %d's filter: interested %v, false negatives %v", id, note.Interested, note.FalseNegatives)
				}
			}
		})
	}
}

func TestBrokerRecoverExactFloatRoundtrip(t *testing.T) {
	// Filter.String() rounds to 4 decimals; the journal must not. A
	// constant that %.4f destroys must survive recovery bit-exactly, or
	// an event on the boundary becomes a post-restart false negative.
	s := state.NewMem()
	b := newDurableBroker(t, s)
	exact := 0.12345678901234568
	f := filter.New(
		filter.Predicate{Attr: "price", Op: filter.OpGe, Value: exact},
		filter.Predicate{Attr: "price", Op: filter.OpLe, Value: exact},
	)
	if err := b.Subscribe(1, f); err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	b.Close()

	b2 := newDurableBroker(t, s)
	if _, err := b2.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer b2.Close()
	gw := b2.owner(1)
	gw.mu.RLock()
	preds := gw.subs[1].f.Predicates()
	gw.mu.RUnlock()
	if len(preds) != 2 {
		t.Fatalf("recovered %d predicates, want 2", len(preds))
	}
	for _, p := range preds {
		if p.Value != exact {
			t.Fatalf("recovered constant %v, want %v bit-exact", p.Value, exact)
		}
	}
	note, err := b2.Publish(1, filter.Event{"price": exact, "qty": 0})
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if len(note.Interested) != 1 || len(note.FalseNegatives) != 0 {
		t.Fatalf("boundary event: interested=%v falseNegatives=%v", note.Interested, note.FalseNegatives)
	}
}

func TestBrokerRecoverOnNonEmptyBrokerFails(t *testing.T) {
	s := state.NewMem()
	b := newDurableBroker(t, s)
	defer b.Close()
	if err := b.Subscribe(1, filter.Range("price", 0, 1)); err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	if _, err := b.Recover(); err == nil || !strings.Contains(err.Error(), "live subscribers") {
		t.Fatalf("Recover on live broker: %v, want live-subscribers error", err)
	}
	b2, err := newCore(filter.MustSpace("price"), core.Params{MinFanout: 2, MaxFanout: 4})
	if err != nil {
		t.Fatalf("newCore: %v", err)
	}
	defer b2.Close()
	if _, err := b2.Recover(); err == nil || !strings.Contains(err.Error(), "WithStore") {
		t.Fatalf("Recover without store: %v, want WithStore error", err)
	}
}

// TestBrokerRecoverRefusesJournalV1 is the golden for the one journal
// format: a version-1 subscribe record (no gateway offset) and a
// version-1 snapshot blob (no pool section) are each refused with the
// version error, and the broker is left empty.
func TestBrokerRecoverRefusesJournalV1(t *testing.T) {
	// The predicate list is encoded the same way in both versions.
	pred := wire.NewWriter(nil)
	encodeFilter(pred, filter.Range("price", 10, 20))
	record := append([]byte{1, journalSubscribe, 2 /* id 1, zigzag */}, pred.Bytes()...)
	snapshot := append([]byte{1, 1 /* count */, 2 /* id 1 */}, pred.Bytes()...)
	for name, seed := range map[string]func(state.Store) error{
		"record":   func(s state.Store) error { _, err := s.Write(record); return err },
		"snapshot": func(s state.Store) error { return s.Snapshot(snapshot, 0) },
	} {
		t.Run(name, func(t *testing.T) {
			s := state.NewMem()
			if err := seed(s); err != nil {
				t.Fatal(err)
			}
			b := newDurableBroker(t, s)
			defer b.Close()
			_, err := b.Recover()
			if err == nil || !strings.Contains(err.Error(), "version 1, this build reads 2") {
				t.Fatalf("Recover over a v1 %s: %v, want the version error", name, err)
			}
			if b.Len() != 0 || b.Engine().Len() != 0 {
				t.Fatalf("refused recovery left %d subscribers, %d overlay members", b.Len(), b.Engine().Len())
			}
		})
	}
}

func TestBrokerAttachAfterRecover(t *testing.T) {
	s := state.NewMem()
	b := newDurableBroker(t, s)
	if _, err := b.SubscribeChan(7, filter.Range("price", 10, 20)); err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	if err := b.Subscribe(8, filter.Range("price", 10, 20)); err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	b.Close()

	b2 := newDurableBroker(t, s)
	if _, err := b2.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer b2.Close()
	// Recovered subscriptions are record-only: attach succeeds once.
	ch, err := b2.AttachChan(7)
	if err != nil {
		t.Fatalf("AttachChan: %v", err)
	}
	if _, err := b2.AttachChan(7); err == nil {
		t.Fatalf("second attach succeeded, want already-attached error")
	}
	if err := b2.AttachFunc(99, func(Envelope) error { return nil }); err == nil {
		t.Fatalf("attach to unknown subscriber succeeded")
	}
	if _, err := b2.Publish(8, filter.Event{"price": 15, "qty": 1}); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	select {
	case e := <-ch:
		if e.Event["price"] != 15 {
			t.Fatalf("delivered %v", e.Event)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("no delivery to re-attached subscriber")
	}
}

func TestBrokerAutoCheckpoint(t *testing.T) {
	s := state.NewMem()
	b := newDurableBroker(t, s, WithSnapshotEvery(16))
	defer b.Close()
	for i := 1; i <= 64; i++ {
		if err := b.Subscribe(core.ProcID(i), filter.Range("price", 0, float64(i))); err != nil {
			t.Fatalf("subscribe: %v", err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s.Stats().Snapshots > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no automatic checkpoint after 64 ops with cadence 16: %+v", s.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestBrokerDeliveryDefaultsFromConstructor(t *testing.T) {
	// A DeliveryOption passed to New becomes the broker-wide default,
	// overridable per subscription.
	b, err := newCore(filter.MustSpace("price"), core.Params{MinFanout: 2, MaxFanout: 4},
		WithQueueDepth(3), WithOverflowPolicy(CoalesceByFilter))
	if err != nil {
		t.Fatalf("newCore with delivery defaults: %v", err)
	}
	defer b.Close()
	if _, err := b.SubscribeChan(1, filter.Range("price", 0, 100)); err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	if _, err := b.SubscribeChan(2, filter.Range("price", 0, 100), WithQueueDepth(9)); err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	st1, _ := b.DeliveryStatsOf(1)
	st2, _ := b.DeliveryStatsOf(2)
	if st1.Capacity != 3 || st1.Policy != CoalesceByFilter {
		t.Fatalf("subscriber 1 stats %+v, want broker defaults depth=3 coalesce", st1)
	}
	if st2.Capacity != 9 || st2.Policy != CoalesceByFilter {
		t.Fatalf("subscriber 2 stats %+v, want override depth=9, default coalesce", st2)
	}
	// Invalid combination is rejected at construction.
	if _, err := newCore(filter.MustSpace("price"), core.Params{MinFanout: 2, MaxFanout: 4},
		WithQueueDepth(0)); err == nil {
		t.Fatalf("newCore accepted queue depth 0")
	}
}

func TestUpdateFilterMemoryOnly(t *testing.T) {
	// UpdateFilter works without a store too (memory-only broker).
	b, err := newCore(filter.MustSpace("price", "qty"), core.Params{MinFanout: 2, MaxFanout: 4})
	if err != nil {
		t.Fatalf("newCore: %v", err)
	}
	defer b.Close()
	ch, err := b.SubscribeChan(1, filter.Range("price", 0, 10))
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	if err := b.Subscribe(2, filter.Range("price", 90, 100)); err != nil {
		t.Fatalf("subscribe producer: %v", err)
	}
	if err := b.UpdateFilter(1, filter.Range("price", 50, 60)); err != nil {
		t.Fatalf("UpdateFilter: %v", err)
	}
	if err := b.UpdateFilter(99, filter.Range("price", 0, 1)); err == nil {
		t.Fatalf("UpdateFilter on unknown id succeeded")
	}
	note, err := b.Publish(2, filter.Event{"price": 55, "qty": 1})
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if len(note.Interested) != 1 || note.Interested[0] != 1 {
		t.Fatalf("interested = %v, want [1] (new filter)", note.Interested)
	}
	select {
	case e := <-ch:
		if e.Event["price"] != 55 {
			t.Fatalf("delivered %v", e.Event)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("no delivery after filter update")
	}
	// The old filter must no longer match.
	note, err = b.Publish(2, filter.Event{"price": 5, "qty": 1})
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if len(note.Interested) != 0 {
		t.Fatalf("interested = %v after moving away, want none", note.Interested)
	}
}

func BenchmarkRecover100k(b *testing.B) {
	// Recovery time from a 100k-subscription log: the EXPERIMENTS.md
	// numbers. Run with -benchtime=1x: each iteration builds a fresh
	// broker from the same store. Cold replay (pure log) vs snapshot.
	for _, mode := range []string{"cold-log", "snapshot"} {
		b.Run(mode, func(b *testing.B) {
			dir := b.TempDir()
			w, err := state.OpenWAL(dir)
			if err != nil {
				b.Fatalf("OpenWAL: %v", err)
			}
			seedBroker, err := newCore(filter.MustSpace("price", "qty"), core.Params{MinFanout: 4, MaxFanout: 16},
				WithStore(w), WithGateways(64), WithSnapshotEvery(0))
			if err != nil {
				b.Fatalf("newCore: %v", err)
			}
			for i := 1; i <= 100_000; i++ {
				lo := float64(i % 1000)
				if err := seedBroker.Subscribe(core.ProcID(i), filter.Range("price", lo, lo+10)); err != nil {
					b.Fatalf("subscribe %d: %v", i, err)
				}
			}
			if mode == "snapshot" {
				if err := seedBroker.Checkpoint(); err != nil {
					b.Fatalf("Checkpoint: %v", err)
				}
			}
			seedBroker.Close()
			w.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rw, err := state.OpenWAL(dir)
				if err != nil {
					b.Fatalf("reopen: %v", err)
				}
				nb, err := newCore(filter.MustSpace("price", "qty"), core.Params{MinFanout: 4, MaxFanout: 16},
					WithStore(rw), WithGateways(64), WithSnapshotEvery(0))
				if err != nil {
					b.Fatalf("newCore: %v", err)
				}
				st, err := nb.Recover()
				if err != nil {
					b.Fatalf("Recover: %v", err)
				}
				if st.Subscribers != 100_000 {
					b.Fatalf("recovered %d, want 100000", st.Subscribers)
				}
				b.StopTimer()
				nb.Close()
				rw.Close()
				b.StartTimer()
			}
		})
	}
}

func TestBrokerRecoverTornWAL(t *testing.T) {
	// A daemon crash can tear the final journal record mid-write. The
	// store truncates the torn tail on reopen; the broker must recover
	// every fully-written subscription and route without false
	// negatives — losing only the op whose Write never returned.
	dir := t.TempDir()
	w, err := state.OpenWAL(dir)
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	b := newDurableBroker(t, w)
	for i := 1; i <= 25; i++ {
		if err := b.Subscribe(core.ProcID(i), filter.Range("price", float64(i), float64(i+5))); err != nil {
			t.Fatalf("subscribe %d: %v", i, err)
		}
	}
	want := subscriberSet(b)
	b.Close()
	w.Close()

	// Tear the log: a record header promising more bytes than follow,
	// exactly what a crash mid-write leaves behind.
	f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatalf("open log for tearing: %v", err)
	}
	if _, err := f.Write([]byte{0x00, 0x00, 0x00, 0x40, 0x01, 0x01, 0xde, 0xad}); err != nil {
		t.Fatalf("tear: %v", err)
	}
	f.Close()

	rw, err := state.OpenWAL(dir)
	if err != nil {
		t.Fatalf("reopen torn WAL: %v", err)
	}
	if torn := rw.Stats().TornBytes; torn == 0 {
		t.Fatalf("reopen did not report torn bytes")
	}
	b2 := newDurableBroker(t, rw)
	st, err := b2.Recover()
	if err != nil {
		t.Fatalf("Recover over torn log: %v", err)
	}
	defer b2.Close()
	defer rw.Close()
	if st.Subscribers != len(want) {
		t.Fatalf("recovered %d subscribers from torn log, want %d", st.Subscribers, len(want))
	}
	got := subscriberSet(b2)
	for id, fs := range want {
		if got[id] != fs {
			t.Fatalf("subscriber %d: %q want %q", id, got[id], fs)
		}
	}
	note, err := b2.Publish(3, filter.Event{"price": 10, "qty": 0})
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if len(note.FalseNegatives) != 0 {
		t.Fatalf("false negatives after torn-tail recovery: %v", note.FalseNegatives)
	}
}
