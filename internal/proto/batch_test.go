package proto

import (
	"math/rand/v2"
	"slices"
	"testing"

	"drtree/internal/core"
	"drtree/internal/geom"
)

// buildStableCluster grows and stabilizes a seeded round-based cluster.
func buildStableCluster(t *testing.T, n int, seed uint64) *Cluster {
	t.Helper()
	cl, err := NewCluster(Config{MinFanout: 2, MaxFanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(seed, 17))
	for i := 1; i <= n; i++ {
		x, y := rng.Float64()*200, rng.Float64()*200
		if err := cl.Join(core.ProcID(i), geom.R2(x, y, x+20, y+20)); err != nil {
			t.Fatal(err)
		}
		cl.Step(false)
	}
	if st := cl.Stabilize(); !st.Converged {
		t.Fatalf("cluster did not stabilize: %v", cl.CheckLegal())
	}
	return cl
}

// TestClusterPublishBatchMatchesSequential publishes the same seeded
// event stream sequentially on one cluster and as one batch on a twin,
// requiring identical receiver sets, classification and per-event
// message counts — the shared round budget may only change Rounds.
func TestClusterPublishBatchMatchesSequential(t *testing.T) {
	const n, events = 60, 24
	rng := rand.New(rand.NewPCG(6, 66))
	batch := make([]core.Publication, events)
	for k := range batch {
		batch[k] = core.Publication{
			Producer: core.ProcID(1 + rng.IntN(n)),
			Event:    geom.Point{rng.Float64() * 220, rng.Float64() * 220},
		}
	}

	seq := buildStableCluster(t, n, 3)
	var want []core.Delivery
	var seqRounds int
	for _, pb := range batch {
		d, err := seq.Publish(pb.Producer, pb.Event)
		if err != nil {
			t.Fatal(err)
		}
		seqRounds += d.Rounds
		want = append(want, d)
	}

	cl := buildStableCluster(t, n, 3)
	got, err := cl.PublishBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != events {
		t.Fatalf("batch returned %d deliveries, want %d", len(got), events)
	}
	batchRounds := got[0].Rounds
	for k := range got {
		if !slices.Equal(got[k].Received, want[k].Received) {
			t.Errorf("event %d: received %v, sequential %v", k, got[k].Received, want[k].Received)
		}
		if !slices.Equal(got[k].TruePositives, want[k].TruePositives) {
			t.Errorf("event %d: true positives %v, sequential %v", k, got[k].TruePositives, want[k].TruePositives)
		}
		if !slices.Equal(got[k].FalsePositives, want[k].FalsePositives) {
			t.Errorf("event %d: false positives %v, sequential %v", k, got[k].FalsePositives, want[k].FalsePositives)
		}
		if got[k].Messages != want[k].Messages {
			t.Errorf("event %d: %d messages, sequential %d", k, got[k].Messages, want[k].Messages)
		}
		if got[k].Rounds != batchRounds {
			t.Errorf("event %d: Rounds %d, want the shared batch drain %d", k, got[k].Rounds, batchRounds)
		}
	}
	// The point of the batch: the disseminations overlap, so the whole
	// batch drains in far fewer rounds than the sequential sum.
	if batchRounds >= seqRounds {
		t.Errorf("batch drained in %d rounds, sequential publishes took %d — no pipelining", batchRounds, seqRounds)
	}
}

// TestClusterPublishBatchValidation covers the batch entry's error paths.
func TestClusterPublishBatchValidation(t *testing.T) {
	cl := buildStableCluster(t, 8, 9)
	if ds, err := cl.PublishBatch(nil); err != nil || len(ds) != 0 {
		t.Errorf("empty batch: %v, %v", ds, err)
	}
	if _, err := cl.PublishBatch([]core.Publication{
		{Producer: 1, Event: geom.Point{1, 1}},
		{Producer: 404, Event: geom.Point{1, 1}},
	}); err == nil {
		t.Error("unknown producer must error")
	}
}

// TestLivePublishBatch runs a batch through the live runtime and
// checks exact ground-truth delivery per event plus per-event message
// attribution (messages must be positive for any multi-process
// delivery and the tracking map must not leak).
func TestLivePublishBatch(t *testing.T) {
	lc, err := NewLiveCluster(Config{MinFanout: 2, MaxFanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	rng := rand.New(rand.NewPCG(11, 7))
	const n = 20
	for i := 1; i <= n; i++ {
		x, y := rng.Float64()*100, rng.Float64()*100
		if err := lc.Join(core.ProcID(i), geom.R2(x, y, x+25, y+25)); err != nil {
			t.Fatal(err)
		}
	}
	if st := lc.Stabilize(); !st.Converged {
		t.Fatalf("live cluster did not stabilize: %v", lc.CheckLegal())
	}
	batch := make([]core.Publication, 8)
	for k := range batch {
		batch[k] = core.Publication{
			Producer: core.ProcID(1 + rng.IntN(n)),
			Event:    geom.Point{rng.Float64() * 120, rng.Float64() * 120},
		}
	}
	ds, err := lc.PublishBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	for k, d := range ds {
		var truth []core.ProcID
		for _, id := range lc.ProcIDs() {
			if f, ok := lc.Filter(id); ok && f.ContainsPoint(batch[k].Event) {
				truth = append(truth, id)
			}
		}
		if !slices.Equal(d.TruePositives, truth) {
			t.Errorf("event %d: true positives %v, want %v", k, d.TruePositives, truth)
		}
	}
	lc.mu.Lock()
	leaked := len(lc.msgsByEvent)
	lc.mu.Unlock()
	if leaked != 0 {
		t.Errorf("msgsByEvent leaked %d entries after the batch", leaked)
	}
}
