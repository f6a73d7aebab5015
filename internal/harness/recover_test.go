package harness

import (
	"fmt"
	"testing"

	"drtree/internal/pubsub"
	"drtree/internal/state"
)

// recoveryOpeners builds the two store shapes CertifyRecovery is run
// against: the in-memory model disk, and a real WAL directory whose
// handle is closed and reopened across each simulated crash.
func recoveryOpeners(t *testing.T) map[string]StoreOpener {
	t.Helper()
	mem := state.NewMem()
	dir := t.TempDir()
	var w *state.WAL
	t.Cleanup(func() {
		if w != nil {
			w.Close()
		}
	})
	return map[string]StoreOpener{
		"mem": func() (state.Store, error) { return mem, nil },
		"wal": func() (state.Store, error) {
			if w != nil {
				w.Close()
			}
			var err error
			w, err = state.OpenWAL(dir)
			return w, err
		},
	}
}

// TestCertifyRecoveryHandWritten drives a deterministic schedule that
// touches every durable control-plane transition: subscribe, re-join
// (filter update), controlled unsubscribe, uncontrolled failure, and
// in-flight publishes, with overlay-only ops interleaved to pin the
// skip accounting.
func TestCertifyRecoveryHandWritten(t *testing.T) {
	sched := &Schedule{
		Seed: 9, MinFanout: 2, MaxFanout: 4, Probes: 6,
		Steps: []Step{
			{Op: OpJoin, ID: 1, Rect: []float64{0, 0, 100, 100}},
			{Op: OpJoin, ID: 2, Rect: []float64{50, 50, 150, 150}},
			{Op: OpJoin, ID: 3, Rect: []float64{200, 200, 260, 260}},
			{Op: OpJoin, ID: 4, Rect: []float64{10, 300, 90, 380}},
			{Op: OpJoin, ID: 5, Rect: []float64{400, 0, 500, 60}},
			{Op: OpLeave, ID: 2},
			{Op: OpCrash, ID: 3},
			{Op: OpCorruptParent, ID: 1, Parent: 4}, // overlay-only: skipped
			{Op: OpSettle},
			{Op: OpJoin, ID: 1, Rect: []float64{20, 20, 80, 80}}, // re-join: filter update
			{Op: OpJoin, ID: 6, Rect: []float64{60, 60, 70, 70}},
			{Op: OpPublish, ID: 5, Point: []float64{65, 65}},
			{Op: OpDropRate, Rate: 0.1}, // network-only: skipped
			{Op: OpSettle},
			{Op: OpLeave, ID: 5},
			{Op: OpLeave, ID: 4},
			{Op: OpSettle},
		},
	}
	for name, open := range recoveryOpeners(t) {
		t.Run(name, func(t *testing.T) {
			rep, err := CertifyRecovery(sched, open)
			if err != nil {
				t.Fatalf("CertifyRecovery: %v (report %v)", err, rep)
			}
			if rep.Crashes != 3 {
				t.Errorf("Crashes = %d, want 3", rep.Crashes)
			}
			// Settles 0 and 2 checkpoint before the kill, so at least
			// those two recoveries start from a snapshot baseline.
			if rep.Snapshots < 2 {
				t.Errorf("Snapshots = %d, want >= 2", rep.Snapshots)
			}
			if rep.Probes == 0 {
				t.Error("no certification probes ran")
			}
			if rep.Skipped[OpCorruptParent] != 1 || rep.Skipped[OpDropRate] != 1 {
				t.Errorf("Skipped = %v, want corrupt-parent and drop-rate counted", rep.Skipped)
			}
		})
	}
}

// TestCertifyRecoveryGenerated runs the certifier over randomized
// adversarial schedules on both store shapes.
func TestCertifyRecoveryGenerated(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		sched := Generate(seed, GenConfig{})
		settles := sched.Counts()[OpSettle]
		for name, open := range recoveryOpeners(t) {
			t.Run(fmt.Sprintf("seed=%d/%s", seed, name), func(t *testing.T) {
				rep, err := CertifyRecovery(sched, open)
				if err != nil {
					t.Fatalf("CertifyRecovery: %v (report %v)", err, rep)
				}
				if rep.Crashes != settles {
					t.Errorf("Crashes = %d, want one per settle (%d)", rep.Crashes, settles)
				}
				if rep.Probes == 0 {
					t.Error("no certification probes ran")
				}
			})
		}
	}
}

// TestCertifyRecoveryAdaptivePool runs the certifier with the adaptive
// gateway tier: a low split target forces pool growth (and drains on
// departures) between crashes, so every settle window certifies that
// the recovered pool size and per-subscriber gateway assignment match
// the pre-crash broker exactly.
func TestCertifyRecoveryAdaptivePool(t *testing.T) {
	for _, seed := range []uint64{2, 13} {
		sched := Generate(seed, GenConfig{})
		for name, open := range recoveryOpeners(t) {
			t.Run(fmt.Sprintf("seed=%d/%s", seed, name), func(t *testing.T) {
				rep, err := CertifyRecovery(sched, open, pubsub.WithGatewayPolicy(3, 1, 32))
				if err != nil {
					t.Fatalf("CertifyRecovery: %v (report %v)", err, rep)
				}
				if rep.Probes == 0 {
					t.Error("no certification probes ran")
				}
			})
		}
	}
}

// amnesiacStore wraps a Store and silently drops every write after the
// first `allow` records — the lie a broken durability layer would tell.
// CertifyRecovery exists to catch exactly this.
type amnesiacStore struct {
	state.Store
	allow int
	seen  int
}

func (a *amnesiacStore) Write(rec []byte) (uint64, error) {
	a.seen++
	if a.seen > a.allow {
		return a.Store.Written(), nil // claims a place in the log, writes nothing
	}
	return a.Store.Write(rec)
}

func (a *amnesiacStore) Sync(uint64) error { return nil } // and claims it durable

func (a *amnesiacStore) Snapshot([]byte, uint64) error { return nil }

func TestCertifyRecoveryCatchesLostSubscriptions(t *testing.T) {
	sched := &Schedule{
		Seed: 3, MinFanout: 2, MaxFanout: 4,
		Steps: []Step{
			{Op: OpJoin, ID: 1, Rect: []float64{0, 0, 10, 10}},
			{Op: OpJoin, ID: 2, Rect: []float64{0, 0, 20, 20}},
			{Op: OpJoin, ID: 3, Rect: []float64{0, 0, 30, 30}},
			{Op: OpJoin, ID: 4, Rect: []float64{0, 0, 40, 40}},
			{Op: OpJoin, ID: 5, Rect: []float64{0, 0, 50, 50}},
			{Op: OpSettle},
		},
	}
	lossy := &amnesiacStore{Store: state.NewMem(), allow: 3}
	_, err := CertifyRecovery(sched, func() (state.Store, error) { return lossy, nil })
	v, ok := AsViolation(err)
	if !ok {
		t.Fatalf("CertifyRecovery over an amnesiac store returned %v, want a Violation", err)
	}
	if v.Kind != "recovery" || v.Engine != "durable" {
		t.Fatalf("violation %v, want kind=recovery engine=durable", v)
	}
}
