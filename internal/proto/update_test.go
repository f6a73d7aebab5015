package proto

import (
	"math/rand/v2"
	"testing"

	"drtree/internal/core"
	"drtree/internal/geom"
)

// TestClusterUpdateFilter drives FILTER_UPDATEs (grow, shrink, move)
// through the round-based cluster and certifies that the periodic checks
// restabilize the overlay: legal configuration, root MBR = union of the
// updated filters, zero false negatives on probes.
func TestClusterUpdateFilter(t *testing.T) {
	cl, err := NewCluster(Config{MinFanout: 2, MaxFanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(5, 55))
	live := map[core.ProcID]geom.Rect{}
	for i := 1; i <= 40; i++ {
		x, y := rng.Float64()*400, rng.Float64()*400
		f := geom.R2(x, y, x+10+rng.Float64()*25, y+10+rng.Float64()*25)
		if err := cl.Join(core.ProcID(i), f); err != nil {
			t.Fatal(err)
		}
		cl.Step(false)
		live[core.ProcID(i)] = f
	}
	if st := cl.Stabilize(); !st.Converged {
		t.Fatalf("initial overlay did not stabilize: %v", cl.CheckLegal())
	}

	for k := 0; k < 12; k++ {
		id := core.ProcID(1 + rng.IntN(40))
		old := live[id]
		var f geom.Rect
		switch k % 3 {
		case 0:
			x, y := rng.Float64()*500, rng.Float64()*500
			f = old.Union(geom.R2(x, y, x+20, y+20))
		case 1:
			f = geom.R2(old.Lo(0), old.Lo(1),
				(old.Lo(0)+old.Hi(0))/2, (old.Lo(1)+old.Hi(1))/2)
		default:
			x, y := 600+rng.Float64()*100, 600+rng.Float64()*100
			f = geom.R2(x, y, x+15, y+15)
		}
		if err := cl.UpdateFilter(id, f); err != nil {
			t.Fatalf("update %d: %v", k, err)
		}
		live[id] = f
	}

	if st := cl.Stabilize(); !st.Converged {
		t.Fatalf("overlay did not restabilize after filter updates: %v", cl.CheckLegal())
	}
	if err := cl.CheckLegal(); err != nil {
		t.Fatalf("illegal after filter updates: %v", err)
	}
	var union geom.Rect
	for _, f := range live {
		union = union.Union(f)
	}
	if got := cl.RootMBR(); !got.Equal(union) {
		t.Fatalf("root MBR %v, want filter union %v", got, union)
	}
	for id, f := range live {
		got, ok := cl.Filter(id)
		if !ok || !got.Equal(f) {
			t.Fatalf("Filter(%d) = %v, %v, want %v", id, got, ok, f)
		}
	}
	for k := 0; k < 10; k++ {
		ev := geom.Point{rng.Float64() * 700, rng.Float64() * 700}
		d, err := cl.Publish(1, ev)
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[core.ProcID]bool, len(d.Received))
		for _, id := range d.Received {
			got[id] = true
		}
		for id, f := range live {
			if f.ContainsPoint(ev) && !got[id] {
				t.Fatalf("probe %d: false negative %d for %v", k, id, ev)
			}
		}
	}
}

// TestClusterUpdateFilterValidation covers the error paths.
func TestClusterUpdateFilterValidation(t *testing.T) {
	cl, err := NewCluster(Config{MinFanout: 2, MaxFanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.UpdateFilter(1, geom.R2(0, 0, 1, 1)); err == nil {
		t.Error("unknown process must error")
	}
	if err := cl.Join(1, geom.R2(0, 0, 10, 10)); err != nil {
		t.Fatal(err)
	}
	if err := cl.UpdateFilter(1, geom.Rect{}); err == nil {
		t.Error("empty filter must error")
	}
	if err := cl.UpdateFilter(1, geom.MustRect([]float64{0}, []float64{1})); err == nil {
		t.Error("dimension mismatch must error")
	}
}

// TestLiveUpdateFilter exercises the FilterUpdater capability on the
// live runtime: update a filter, await legality, publish.
func TestLiveUpdateFilter(t *testing.T) {
	lc, err := NewLiveCluster(Config{MinFanout: 2, MaxFanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	rng := rand.New(rand.NewPCG(9, 99))
	live := map[core.ProcID]geom.Rect{}
	for i := 1; i <= 12; i++ {
		x, y := rng.Float64()*200, rng.Float64()*200
		f := geom.R2(x, y, x+20, y+20)
		if err := lc.Join(core.ProcID(i), f); err != nil {
			t.Fatal(err)
		}
		live[core.ProcID(i)] = f
	}
	if st := lc.Stabilize(); !st.Converged {
		t.Fatalf("initial overlay did not stabilize: %v", lc.CheckLegal())
	}

	moved := geom.R2(300, 300, 340, 340)
	if err := lc.UpdateFilter(3, moved); err != nil {
		t.Fatal(err)
	}
	live[3] = moved
	grown := live[5].Union(geom.R2(250, 0, 280, 30))
	if err := lc.UpdateFilter(5, grown); err != nil {
		t.Fatal(err)
	}
	live[5] = grown

	if st := lc.Stabilize(); !st.Converged {
		t.Fatalf("overlay did not restabilize after filter updates: %v", lc.CheckLegal())
	}
	var union geom.Rect
	for _, f := range live {
		union = union.Union(f)
	}
	if got := lc.RootMBR(); !got.Equal(union) {
		t.Fatalf("root MBR %v, want filter union %v", got, union)
	}
	ev := geom.Point{320, 320}
	d, err := lc.Publish(1, ev)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[core.ProcID]bool, len(d.Received))
	for _, id := range d.Received {
		got[id] = true
	}
	for id, f := range live {
		if f.ContainsPoint(ev) && !got[id] {
			t.Fatalf("false negative %d for %v", id, ev)
		}
	}

	if err := lc.UpdateFilter(99, moved); err == nil {
		t.Error("unknown process must error")
	}
	if err := lc.UpdateFilter(1, geom.Rect{}); err == nil {
		t.Error("empty filter must error")
	}
	if err := lc.UpdateFilter(1, geom.MustRect([]float64{0}, []float64{1})); err == nil {
		t.Error("dimension mismatch must error")
	}
}
