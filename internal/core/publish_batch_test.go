package core

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"drtree/internal/geom"
)

// buildBatchTree grows a seeded tree for the batch tests.
func buildBatchTree(t *testing.T, n int, seed uint64) *Tree {
	t.Helper()
	return buildBatchTreeWith(t, Params{MinFanout: 2, MaxFanout: 4}, n, seed)
}

func buildBatchTreeWith(t *testing.T, params Params, n int, seed uint64) *Tree {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed))
	tr := MustNew(params)
	for i := 1; i <= n; i++ {
		x, y := rng.Float64()*200, rng.Float64()*200
		if err := tr.Join(ProcID(i), geom.R2(x, y, x+20, y+20)); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// TestPublishBatchMatchesSequential runs the same seeded event stream
// through Publish and PublishBatch on twin trees and requires identical
// Deliveries — receivers, classification, message and visit counts — and
// identical per-process delivery counters and per-instance
// reorganization counters afterwards. Every batch is followed by one
// single Publish on both twins, so the generation stamps the two entry
// points share must stay coherent.
func TestPublishBatchMatchesSequential(t *testing.T) {
	cases := []struct {
		name    string
		reorg   bool  // Params.TrackReorgStats
		churned bool  // leaves, a crash + Stabilize and late joins before publishing
		sizes   []int // consecutive batch sizes
	}{
		{name: "fresh/b64", sizes: []int{64}},
		{name: "churned/b1", churned: true, sizes: []int{1}},
		{name: "churned/b16", churned: true, sizes: []int{16}},
		{name: "churned/b256", churned: true, sizes: []int{256}},
		{name: "interleaved", churned: true, sizes: []int{24, 24, 24, 24, 24, 24}},
		{name: "reorgstats", reorg: true, sizes: []int{32, 32}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const n = 120
			build := func() *Tree {
				tr := buildBatchTreeWith(t, Params{MinFanout: 2, MaxFanout: 4, TrackReorgStats: tc.reorg}, n, 9)
				if !tc.churned {
					return tr
				}
				for id := ProcID(5); id <= 40; id += 7 {
					if err := tr.Leave(id); err != nil {
						t.Fatal(err)
					}
				}
				if err := tr.Crash(50); err != nil {
					t.Fatal(err)
				}
				tr.Stabilize()
				for id := ProcID(n + 1); id <= n+10; id++ {
					x := float64(id%17) * 11
					if err := tr.Join(id, geom.R2(x, x, x+20, x+20)); err != nil {
						t.Fatal(err)
					}
				}
				return tr
			}
			seq, bat := build(), build()
			ids := seq.ProcIDs()
			rng := rand.New(rand.NewPCG(3, 33))
			draw := func() Publication {
				return Publication{
					Producer: ids[rng.IntN(len(ids))],
					Event:    geom.Point{rng.Float64() * 220, rng.Float64() * 220},
				}
			}
			for round, size := range tc.sizes {
				batch := make([]Publication, size)
				for k := range batch {
					batch[k] = draw()
				}
				batch = append(batch, draw()) // the interleaved single Publish
				want := make([]Delivery, len(batch))
				for k, pb := range batch {
					d, err := seq.Publish(pb.Producer, pb.Event)
					if err != nil {
						t.Fatal(err)
					}
					want[k] = d
				}
				got, err := bat.PublishBatch(batch[:size])
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != size {
					t.Fatalf("round %d: batch returned %d deliveries, want %d", round, len(got), size)
				}
				single, err := bat.Publish(batch[size].Producer, batch[size].Event)
				if err != nil {
					t.Fatal(err)
				}
				for k, d := range append(got, single) {
					if !reflect.DeepEqual(d, want[k]) {
						t.Errorf("round %d event %d: batch %+v, sequential %+v", round, k, d, want[k])
					}
				}
			}

			seen := 0
			for _, id := range ids {
				sp, bp := seq.Proc(id), bat.Proc(id)
				if sp.Delivered != bp.Delivered || sp.FalsePos != bp.FalsePos {
					t.Errorf("process %d: batch counted %d delivered / %d false positives, sequential %d / %d",
						id, bp.Delivered, bp.FalsePos, sp.Delivered, sp.FalsePos)
				}
				for h := 1; h <= sp.Top; h++ {
					sx, bx := seq.at(id, h), bat.at(id, h)
					if seq.ar.seen[sx] != bat.ar.seen[bx] || seq.ar.selfFP[sx] != bat.ar.selfFP[bx] {
						t.Errorf("instance (%d,%d): reorg counters diverge", id, h)
					}
					seen += int(bat.ar.seen[bx])
				}
			}
			if tc.reorg == (seen == 0) {
				t.Errorf("TrackReorgStats=%v but PublishBatch left seen=%d", tc.reorg, seen)
			}
		})
	}
}

// TestPublishBatchValidation covers the batch entry's error paths: the
// whole batch is validated before any event disseminates.
func TestPublishBatchValidation(t *testing.T) {
	tr := buildBatchTree(t, 10, 4)
	if ds, err := tr.PublishBatch(nil); err != nil || len(ds) != 0 {
		t.Errorf("empty batch: %v, %v", ds, err)
	}
	before := tr.Proc(1).Delivered
	if _, err := tr.PublishBatch([]Publication{
		{Producer: 1, Event: geom.Point{1, 1}},
		{Producer: 999, Event: geom.Point{1, 1}},
	}); err == nil {
		t.Error("unknown producer must error")
	}
	if _, err := tr.PublishBatch([]Publication{
		{Producer: 1, Event: geom.Point{1, 1}},
		{Producer: 2, Event: geom.Point{1}},
	}); err == nil {
		t.Error("dimension mismatch must error")
	}
	if got := tr.Proc(1).Delivered; got != before {
		t.Errorf("failed validation must not deliver anything (Delivered %d -> %d)", before, got)
	}
}

// TestPublishBatchSharedArenas makes sure the per-event result slices
// cut from the shared arenas are independent: mutating one delivery's
// slices must not leak into another's.
func TestPublishBatchSharedArenas(t *testing.T) {
	tr := buildBatchTree(t, 40, 5)
	batch := []Publication{
		{Producer: 1, Event: geom.Point{50, 50}},
		{Producer: 2, Event: geom.Point{120, 120}},
		{Producer: 3, Event: geom.Point{80, 30}},
	}
	ds, err := tr.PublishBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := make([][]ProcID, len(ds))
	for i := range ds {
		snapshot[i] = append([]ProcID(nil), ds[i].Received...)
	}
	// Appending through one segment must not clobber its neighbours.
	for i := range ds {
		ds[i].Received = append(ds[i].Received, 9999)
		ds[i].TruePositives = append(ds[i].TruePositives, 9999)
		ds[i].FalsePositives = append(ds[i].FalsePositives, 9999)
	}
	for i := range ds {
		if !reflect.DeepEqual(ds[i].Received[:len(snapshot[i])], snapshot[i]) {
			t.Errorf("event %d: appending to a sibling delivery corrupted Received", i)
		}
	}
}
