// Package enginetest is the shared conformance suite for Engine
// implementations: one fixed, seeded schedule of joins, leaves, crashes,
// transient corruptions and probe publishes, replayed through any
// backend and certified at every checkpoint against independently
// computed ground truth — membership, root MBR = filter union, a legal
// configuration, zero false negatives, and exactly the ground-truth
// true-positive delivery sets. Because every engine is held to the same
// ground truth, any two conforming engines certify identical deliveries
// and legality verdicts; the cross-engine test compares the recorded
// transcripts directly as well.
//
// Adding a conformance row for a new engine is one Factory entry in the
// consuming test.
package enginetest

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"drtree/internal/core"
	"drtree/internal/engine"
	"drtree/internal/geom"
)

// Factory builds a fresh, empty engine for one suite run. The suite
// closes the engine when the test finishes.
type Factory func(t *testing.T) engine.Engine

// Checkpoint records the observable outcome of one quiescent window of
// the fixed schedule.
type Checkpoint struct {
	Label   string
	Members []core.ProcID
	RootMBR geom.Rect
	Legal   bool
	// Deliveries holds the true-positive receiver set of each probe
	// publish in the window, in schedule order.
	Deliveries [][]core.ProcID
	// BatchDeliveries holds the true-positive receiver sets of the same
	// probes re-published as one PublishBatch call; a conforming engine's
	// batch path delivers exactly like its sequential path.
	BatchDeliveries [][]core.ProcID
}

// Transcript is the full observable outcome of the schedule, built from
// what the engine reported (its ProcIDs, RootMBR, legality verdict and
// TruePositive delivery sets). Run fatally asserts each observation
// against ground truth, so two engines that both pass produce equal
// transcripts; the cross-engine Equal comparison is a redundant second
// certification layer (and the tool for comparing a not-yet-conforming
// engine's behaviour against a reference).
type Transcript struct {
	Checkpoints []Checkpoint
}

// Equal reports whether two transcripts agree checkpoint by checkpoint.
func (tr *Transcript) Equal(other *Transcript) error {
	if len(tr.Checkpoints) != len(other.Checkpoints) {
		return fmt.Errorf("checkpoint counts differ: %d vs %d", len(tr.Checkpoints), len(other.Checkpoints))
	}
	for i, a := range tr.Checkpoints {
		b := other.Checkpoints[i]
		if a.Legal != b.Legal {
			return fmt.Errorf("checkpoint %s: legality verdicts differ (%v vs %v)", a.Label, a.Legal, b.Legal)
		}
		if !slices.Equal(a.Members, b.Members) {
			return fmt.Errorf("checkpoint %s: memberships differ (%v vs %v)", a.Label, a.Members, b.Members)
		}
		if !a.RootMBR.Equal(b.RootMBR) {
			return fmt.Errorf("checkpoint %s: root MBRs differ (%v vs %v)", a.Label, a.RootMBR, b.RootMBR)
		}
		if len(a.Deliveries) != len(b.Deliveries) {
			return fmt.Errorf("checkpoint %s: probe counts differ", a.Label)
		}
		for k := range a.Deliveries {
			if !slices.Equal(a.Deliveries[k], b.Deliveries[k]) {
				return fmt.Errorf("checkpoint %s probe %d: deliveries differ (%v vs %v)",
					a.Label, k, a.Deliveries[k], b.Deliveries[k])
			}
		}
		if len(a.BatchDeliveries) != len(b.BatchDeliveries) {
			return fmt.Errorf("checkpoint %s: batch probe counts differ", a.Label)
		}
		for k := range a.BatchDeliveries {
			if !slices.Equal(a.BatchDeliveries[k], b.BatchDeliveries[k]) {
				return fmt.Errorf("checkpoint %s batch probe %d: deliveries differ (%v vs %v)",
					a.Label, k, a.BatchDeliveries[k], b.BatchDeliveries[k])
			}
		}
	}
	return nil
}

// suite drives the schedule and accumulates the transcript.
type suite struct {
	t    *testing.T
	eng  engine.Engine
	live map[core.ProcID]geom.Rect
	tr   *Transcript
}

// Run replays the fixed schedule through the engine built by mk,
// failing the test on any conformance violation and returning the
// transcript for cross-engine comparison.
func Run(t *testing.T, mk Factory) *Transcript {
	t.Helper()
	eng := mk(t)
	t.Cleanup(func() {
		if err := eng.Close(); err != nil {
			t.Errorf("enginetest: Close: %v", err)
		}
	})
	s := &suite{t: t, eng: eng, live: map[core.ProcID]geom.Rect{}, tr: &Transcript{}}

	// The schedule is seeded and fixed: every engine sees byte-identical
	// operations.
	rng := rand.New(rand.NewPCG(0xD27EE, 99))
	rect := func() geom.Rect {
		x, y := rng.Float64()*100, rng.Float64()*100
		return geom.R2(x, y, x+5+rng.Float64()*25, y+5+rng.Float64()*25)
	}
	probe := func() geom.Point { return geom.Point{rng.Float64() * 130, rng.Float64() * 130} }

	// Phase 1: population build-up.
	for i := 1; i <= 12; i++ {
		s.join(core.ProcID(i), rect())
	}
	probesA := []geom.Point{probe(), probe(), probe(), {20, 20}, {60, 60}}
	s.checkpoint("A/built", probesA)

	// Phase 2: controlled departures and crashes.
	s.leave(3)
	s.leave(7)
	s.crash(5)
	s.crash(11)
	probesB := []geom.Point{probe(), probe(), {40, 40}, probe()}
	s.checkpoint("B/churned", probesB)

	// Phase 3: transient state corruption (the paper's fault model) on
	// surviving processes, at height 0 (which every live process owns).
	s.corruptParent(2, 0, 9)
	s.corruptMBR(6, 0, geom.R2(0, 0, 1, 1))
	s.corruptParent(9, 0, 9)
	probesC := []geom.Point{probe(), {25, 75}, probe()}
	s.checkpoint("C/corrupted", probesC)

	// Phase 4: late arrivals, one through an explicit contact.
	s.join(21, rect())
	s.joinFrom(2, 22, rect())
	probesD := []geom.Point{probe(), probe(), {80, 30}}
	s.checkpoint("D/rejoined", probesD)

	// Phase 5: engine-level filter updates (Engine.UpdateFilter):
	// one filter grows, one shrinks to its lower quarter,
	// one moves to a disjoint region. The checkpoint then certifies
	// post-update legality, root MBR = union of the *updated* filters,
	// and zero false negatives — including probes aimed at the moved and
	// grown regions, which only deliver correctly if the MBR change
	// propagated all the way to the root.
	s.updateFilter(4, s.live[4].Union(geom.R2(100, 100, 120, 120)))
	old6 := s.live[6]
	s.updateFilter(6, geom.R2(old6.Lo(0), old6.Lo(1),
		(old6.Lo(0)+old6.Hi(0))/2, (old6.Lo(1)+old6.Hi(1))/2))
	s.updateFilter(10, geom.R2(140, 10, 160, 30))
	probesE := []geom.Point{{110, 110}, {150, 20}, old6.Center(), probe(), probe()}
	s.checkpoint("E/refiltered", probesE)

	return s.tr
}

func (s *suite) join(id core.ProcID, f geom.Rect) {
	s.t.Helper()
	if err := s.eng.Join(id, f); err != nil {
		s.t.Fatalf("enginetest: join %d: %v", id, err)
	}
	s.live[id] = f
}

func (s *suite) joinFrom(contact, id core.ProcID, f geom.Rect) {
	s.t.Helper()
	if err := s.eng.JoinFrom(contact, id, f); err != nil {
		s.t.Fatalf("enginetest: join %d from %d: %v", id, contact, err)
	}
	s.live[id] = f
}

func (s *suite) leave(id core.ProcID) {
	s.t.Helper()
	if err := s.eng.Leave(id); err != nil {
		s.t.Fatalf("enginetest: leave %d: %v", id, err)
	}
	delete(s.live, id)
}

func (s *suite) crash(id core.ProcID) {
	s.t.Helper()
	if err := s.eng.Crash(id); err != nil {
		s.t.Fatalf("enginetest: crash %d: %v", id, err)
	}
	delete(s.live, id)
}

func (s *suite) updateFilter(id core.ProcID, f geom.Rect) {
	s.t.Helper()
	if err := s.eng.UpdateFilter(id, f); err != nil {
		s.t.Fatalf("enginetest: update filter of %d: %v", id, err)
	}
	s.live[id] = f
}

func (s *suite) corruptParent(id core.ProcID, h int, parent core.ProcID) {
	s.t.Helper()
	if err := s.eng.CorruptParent(id, h, parent); err != nil {
		s.t.Fatalf("enginetest: corrupt parent (%d,%d): %v", id, h, err)
	}
}

func (s *suite) corruptMBR(id core.ProcID, h int, mbr geom.Rect) {
	s.t.Helper()
	if err := s.eng.CorruptMBR(id, h, mbr); err != nil {
		s.t.Fatalf("enginetest: corrupt MBR (%d,%d): %v", id, h, err)
	}
}

func (s *suite) members() []core.ProcID {
	ids := make([]core.ProcID, 0, len(s.live))
	for id := range s.live {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

func (s *suite) matching(ev geom.Point) []core.ProcID {
	var out []core.ProcID
	for _, id := range s.members() {
		if s.live[id].ContainsPoint(ev) {
			out = append(out, id)
		}
	}
	return out
}

// checkpoint drives the engine to quiescence and certifies the window:
// convergence, legality, membership, filters, root MBR = filter union,
// and ground-truth deliveries for every probe.
func (s *suite) checkpoint(label string, probes []geom.Point) {
	s.t.Helper()
	if st := s.eng.Stabilize(); !st.Converged {
		s.t.Fatalf("enginetest: %s: stabilization did not converge (%+v): %v", label, st, s.eng.CheckLegal())
	}
	err := s.eng.CheckLegal()
	if err != nil {
		s.t.Fatalf("enginetest: %s: illegal configuration: %v", label, err)
	}
	cp := Checkpoint{Label: label, Legal: err == nil}

	want := s.members()
	cp.Members = s.eng.ProcIDs()
	if !slices.Equal(cp.Members, want) {
		s.t.Fatalf("enginetest: %s: membership %v, want %v", label, cp.Members, want)
	}
	if n := s.eng.Len(); n != len(want) {
		s.t.Fatalf("enginetest: %s: Len %d, want %d", label, n, len(want))
	}
	var union geom.Rect
	for _, id := range want {
		f, ok := s.eng.Filter(id)
		if !ok || !f.Equal(s.live[id]) {
			s.t.Fatalf("enginetest: %s: filter of %d = %v (ok=%v), want %v", label, id, f, ok, s.live[id])
		}
		union = union.Union(s.live[id])
	}
	cp.RootMBR = s.eng.RootMBR()
	if len(want) > 0 && !cp.RootMBR.Equal(union) {
		s.t.Fatalf("enginetest: %s: root MBR %v, want filter union %v", label, cp.RootMBR, union)
	}
	if root, h := s.eng.Root(); len(want) > 0 && (root == core.NoProc || h < 0) {
		s.t.Fatalf("enginetest: %s: no root in a non-empty overlay", label)
	}

	for k, ev := range probes {
		producer := want[(k*5)%len(want)]
		d, err := s.eng.Publish(producer, ev)
		if err != nil {
			s.t.Fatalf("enginetest: %s probe %d: publish: %v", label, k, err)
		}
		truth := s.matching(ev)
		// TruePositives == ground truth certifies both zero false
		// negatives and exact delivery agreement across engines.
		if !slices.Equal(d.TruePositives, truth) {
			s.t.Fatalf("enginetest: %s probe %d (%v from %d): true positives %v, want %v",
				label, k, ev, producer, d.TruePositives, truth)
		}
		// Record what the engine reported, not the ground truth, so the
		// transcript is an observation of the engine under test.
		cp.Deliveries = append(cp.Deliveries, d.TruePositives)
	}

	// Batch certification: the same probes re-published as one
	// PublishBatch call must deliver exactly like the sequential publishes
	// above — the batch pipeline is an amortization, never a semantic
	// change.
	batch := make([]core.Publication, len(probes))
	for k, ev := range probes {
		batch[k] = core.Publication{Producer: want[(k*5)%len(want)], Event: ev}
	}
	ds, err := s.eng.PublishBatch(batch)
	if err != nil {
		s.t.Fatalf("enginetest: %s: publish batch: %v", label, err)
	}
	if len(ds) != len(probes) {
		s.t.Fatalf("enginetest: %s: batch returned %d deliveries for %d probes", label, len(ds), len(probes))
	}
	for k := range ds {
		truth := s.matching(probes[k])
		if !slices.Equal(ds[k].TruePositives, truth) {
			s.t.Fatalf("enginetest: %s batch probe %d (%v): true positives %v, want %v",
				label, k, probes[k], ds[k].TruePositives, truth)
		}
		if !slices.Equal(ds[k].TruePositives, cp.Deliveries[k]) {
			s.t.Fatalf("enginetest: %s batch probe %d: batch delivery %v diverges from sequential %v",
				label, k, ds[k].TruePositives, cp.Deliveries[k])
		}
		cp.BatchDeliveries = append(cp.BatchDeliveries, ds[k].TruePositives)
	}
	s.tr.Checkpoints = append(s.tr.Checkpoints, cp)
}
