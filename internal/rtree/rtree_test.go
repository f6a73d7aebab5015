package rtree

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"drtree/internal/geom"
	"drtree/internal/split"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 4, split.Quadratic{}); err == nil {
		t.Error("m=0 must be rejected")
	}
	if _, err := New(3, 5, split.Quadratic{}); err == nil {
		t.Error("M < 2m must be rejected")
	}
	if _, err := New(2, 4, nil); err == nil {
		t.Error("nil policy must be rejected")
	}
	tr, err := New(2, 4, split.Quadratic{})
	if err != nil {
		t.Fatal(err)
	}
	if m, M := tr.Params(); m != 2 || M != 4 {
		t.Fatalf("Params = (%d,%d)", m, M)
	}
}

func TestEmptyTree(t *testing.T) {
	tr := MustNew(2, 4, split.Quadratic{})
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Fatalf("fresh tree: Len=%d Height=%d", tr.Len(), tr.Height())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := tr.Search(geom.R2(0, 0, 100, 100)); len(got) != 0 {
		t.Fatalf("search on empty tree returned %v", got)
	}
	if !tr.RootMBR().IsEmpty() {
		t.Fatal("empty tree RootMBR must be empty")
	}
	if ok, err := tr.Delete(geom.R2(0, 0, 1, 1), "x"); err != nil || ok {
		t.Fatalf("delete on empty tree = %v, %v", ok, err)
	}
}

func TestInsertRejectsEmptyRect(t *testing.T) {
	tr := MustNew(2, 4, split.Quadratic{})
	if err := tr.Insert(geom.Rect{}, "x"); err == nil {
		t.Fatal("inserting empty rect must error")
	}
}

func TestInsertSearchSmall(t *testing.T) {
	tr := MustNew(2, 4, split.Quadratic{})
	boxes := map[string]geom.Rect{
		"a": geom.R2(0, 0, 10, 10),
		"b": geom.R2(20, 20, 30, 30),
		"c": geom.R2(5, 5, 15, 15),
		"d": geom.R2(40, 0, 50, 10),
	}
	for k, r := range boxes {
		if err := tr.Insert(r, k); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d", tr.Len())
	}
	got := tr.SearchPoint(geom.Point{7, 7})
	if !sameSet(got, "a", "c") {
		t.Fatalf("SearchPoint(7,7) = %v, want {a,c}", got)
	}
	got = tr.Search(geom.R2(25, 25, 45, 45))
	if !sameSet(got, "b") {
		t.Fatalf("Search = %v, want {b}", got)
	}
	got = tr.SearchContaining(geom.R2(6, 6, 9, 9))
	if !sameSet(got, "a", "c") {
		t.Fatalf("SearchContaining = %v, want {a,c}", got)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestGrowthAndHeight(t *testing.T) {
	tr := MustNew(2, 4, split.Quadratic{})
	n := 200
	rng := rand.New(rand.NewPCG(7, 7))
	for i := 0; i < n; i++ {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		if err := tr.Insert(geom.R2(x, y, x+5, y+5), i); err != nil {
			t.Fatal(err)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("after insert %d: %v", i, err)
		}
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	// Height bound: at least ceil(log_M n), at most ~log_m(n)+1.
	maxH := int(math.Ceil(math.Log(float64(n))/math.Log(float64(2)))) + 1
	if tr.Height() > maxH {
		t.Fatalf("height %d exceeds bound %d for n=%d", tr.Height(), maxH, n)
	}
}

func TestDeleteBasic(t *testing.T) {
	tr := MustNew(2, 4, split.Quadratic{})
	r := geom.R2(1, 1, 2, 2)
	if err := tr.Insert(r, "x"); err != nil {
		t.Fatal(err)
	}
	if ok, err := tr.Delete(r, "y"); err != nil || ok {
		t.Fatal("deleting wrong data must be a no-op")
	}
	ok, err := tr.Delete(r, "x")
	if err != nil || !ok {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	if tr.Len() != 0 {
		t.Fatalf("Len after delete = %d", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteManyKeepsInvariants(t *testing.T) {
	for _, pol := range split.All() {
		pol := pol
		t.Run(pol.Name(), func(t *testing.T) {
			tr := MustNew(2, 5, pol)
			rng := rand.New(rand.NewPCG(11, uint64(len(pol.Name()))))
			type rec struct {
				r geom.Rect
				d int
			}
			var recs []rec
			for i := 0; i < 150; i++ {
				x, y := rng.Float64()*500, rng.Float64()*500
				r := geom.R2(x, y, x+rng.Float64()*20, y+rng.Float64()*20)
				recs = append(recs, rec{r, i})
				if err := tr.Insert(r, i); err != nil {
					t.Fatal(err)
				}
			}
			// Delete in random order, checking invariants as we go.
			rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
			for i, rc := range recs {
				ok, err := tr.Delete(rc.r, rc.d)
				if err != nil {
					t.Fatalf("delete %d: %v", i, err)
				}
				if !ok {
					t.Fatalf("delete %d: entry not found", i)
				}
				if err := tr.CheckInvariants(); err != nil {
					t.Fatalf("after delete %d: %v", i, err)
				}
			}
			if tr.Len() != 0 {
				t.Fatalf("Len = %d after deleting everything", tr.Len())
			}
		})
	}
}

func TestSearchNoFalseNegatives(t *testing.T) {
	// Exhaustive oracle check: every stored rect containing the probe
	// point must be returned (the R-tree "no false negatives" property,
	// paper §2.3).
	tr := MustNew(2, 4, split.Linear{})
	rng := rand.New(rand.NewPCG(3, 9))
	var all []geom.Rect
	for i := 0; i < 120; i++ {
		x, y := rng.Float64()*100, rng.Float64()*100
		r := geom.R2(x, y, x+rng.Float64()*30, y+rng.Float64()*30)
		all = append(all, r)
		if err := tr.Insert(r, i); err != nil {
			t.Fatal(err)
		}
	}
	for probe := 0; probe < 200; probe++ {
		p := geom.Point{rng.Float64() * 100, rng.Float64() * 100}
		got := tr.SearchPoint(p)
		want := map[int]bool{}
		for i, r := range all {
			if r.ContainsPoint(p) {
				want[i] = true
			}
		}
		if len(got) != len(want) {
			t.Fatalf("probe %v: got %d matches, want %d", p, len(got), len(want))
		}
		for _, d := range got {
			if !want[d.(int)] {
				t.Fatalf("probe %v: unexpected match %v", p, d)
			}
		}
	}
}

func TestVisitCount(t *testing.T) {
	tr := MustNew(2, 4, split.Quadratic{})
	rng := rand.New(rand.NewPCG(5, 5))
	for i := 0; i < 100; i++ {
		x, y := rng.Float64()*100, rng.Float64()*100
		if err := tr.Insert(geom.R2(x, y, x+2, y+2), i); err != nil {
			t.Fatal(err)
		}
	}
	matches, visited := tr.VisitCount(geom.Point{50, 50})
	if visited < 1 {
		t.Fatal("VisitCount must visit at least the root")
	}
	if visited > 1+tr.ComputeStats().Nodes {
		t.Fatalf("visited %d exceeds node count", visited)
	}
	want := tr.SearchPoint(geom.Point{50, 50})
	if len(matches) != len(want) {
		t.Fatalf("VisitCount matches %d, SearchPoint %d", len(matches), len(want))
	}
}

// TestVisitAppendReusesStorage: VisitAppend appends after what dst
// holds, agrees with VisitCount, and allocates nothing once dst has room.
func TestVisitAppendReusesStorage(t *testing.T) {
	tr := MustNew(2, 4, split.Quadratic{})
	for i := 0; i < 100; i++ {
		x := float64(i % 10)
		if err := tr.Insert(geom.R2(x, 0, x+5, 5), i); err != nil {
			t.Fatal(err)
		}
	}
	p := geom.Point{7, 2}
	want, wantVisited := tr.VisitCount(p)
	got, visited := tr.VisitAppend(p, []any{"kept"})
	if visited != wantVisited || len(got) != 1+len(want) || got[0] != "kept" {
		t.Fatalf("VisitAppend = %d matches after the kept one, %d visited; VisitCount %d, %d", len(got)-1, visited, len(want), wantVisited)
	}
	for i, m := range want {
		if got[1+i] != m {
			t.Fatalf("match %d: VisitAppend %v, VisitCount %v", i, got[1+i], m)
		}
	}
	buf := make([]any, 0, len(want))
	if allocs := testing.AllocsPerRun(100, func() { buf, _ = tr.VisitAppend(p, buf[:0]) }); allocs != 0 {
		t.Fatalf("VisitAppend into room made %v allocations, want 0", allocs)
	}
}

// TestVisitFuncMatchesVisitCount certifies the allocation-free visitor
// against the slice-returning walk: same matches, same node count.
func TestVisitFuncMatchesVisitCount(t *testing.T) {
	tr := MustNew(2, 4, split.Quadratic{})
	rng := rand.New(rand.NewPCG(6, 6))
	for i := 0; i < 100; i++ {
		x, y := rng.Float64()*100, rng.Float64()*100
		if err := tr.Insert(geom.R2(x, y, x+3, y+3), i); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 20; k++ {
		p := geom.Point{rng.Float64() * 100, rng.Float64() * 100}
		matches, visited := tr.VisitCount(p)
		got := map[int]bool{}
		n := tr.VisitFunc(p, func(d any) { got[d.(int)] = true })
		if n != visited {
			t.Fatalf("probe %d: VisitFunc visited %d nodes, VisitCount %d", k, n, visited)
		}
		if len(got) != len(matches) {
			t.Fatalf("probe %d: VisitFunc matched %d, VisitCount %d", k, len(got), len(matches))
		}
		for _, m := range matches {
			if !got[m.(int)] {
				t.Fatalf("probe %d: VisitCount match %v missing from VisitFunc", k, m)
			}
		}
	}
}

// TestChooseEntries certifies the placement-candidate query: nil on an
// empty tree, the whole entry set while the root is a leaf, and on a
// multi-level tree exactly the leaf ChooseLeaf would descend to (every
// candidate a real entry, count bounded by M).
func TestChooseEntries(t *testing.T) {
	tr := MustNew(2, 4, split.Quadratic{})
	if got := tr.ChooseEntries(geom.R2(0, 0, 1, 1)); got != nil {
		t.Fatalf("empty tree: ChooseEntries = %v", got)
	}
	for i := 0; i < 3; i++ {
		x := float64(i * 10)
		if err := tr.Insert(geom.R2(x, 0, x+5, 5), i); err != nil {
			t.Fatal(err)
		}
	}
	if got := tr.ChooseEntries(geom.R2(0, 0, 1, 1)); len(got) != 3 {
		t.Fatalf("leaf root: %d candidates, want all 3", len(got))
	}
	rng := rand.New(rand.NewPCG(7, 7))
	for i := 3; i < 200; i++ {
		x, y := rng.Float64()*100, rng.Float64()*100
		if err := tr.Insert(geom.R2(x, y, x+2, y+2), i); err != nil {
			t.Fatal(err)
		}
	}
	all := map[any]bool{}
	for _, d := range tr.Search(geom.R2(-10, -10, 120, 120)) {
		all[d] = true
	}
	_, M := tr.Params()
	for k := 0; k < 20; k++ {
		q := geom.R2(rng.Float64()*100, rng.Float64()*100, rng.Float64()*100+100, rng.Float64()*100+100)
		got := tr.ChooseEntries(q)
		if len(got) == 0 || len(got) > M {
			t.Fatalf("probe %d: %d candidates, want 1..%d", k, len(got), M)
		}
		for _, d := range got {
			if !all[d] {
				t.Fatalf("probe %d: candidate %v is not a tree entry", k, d)
			}
		}
	}
}

func TestComputeStats(t *testing.T) {
	tr := MustNew(2, 4, split.Quadratic{})
	for i := 0; i < 30; i++ {
		x := float64(i * 10)
		if err := tr.Insert(geom.R2(x, 0, x+5, 5), i); err != nil {
			t.Fatal(err)
		}
	}
	s := tr.ComputeStats()
	if s.Entries != 30 || s.Height != tr.Height() || s.Nodes < 2 {
		t.Fatalf("Stats = %+v", s)
	}
	if s.TotalCoverage <= 0 {
		t.Fatal("coverage must be positive for a multi-level tree")
	}
}

func TestPropertyInvariantsUnderMixedWorkload(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 31))
		pol := split.All()[rng.IntN(3)]
		m := 2 + rng.IntN(2)
		tr := MustNew(m, 2*m+rng.IntN(3), pol)
		type rec struct {
			r geom.Rect
			d int
		}
		var live []rec
		next := 0
		for op := 0; op < 200; op++ {
			if len(live) == 0 || rng.Float64() < 0.65 {
				x, y := rng.Float64()*200, rng.Float64()*200
				r := geom.R2(x, y, x+rng.Float64()*10, y+rng.Float64()*10)
				if err := tr.Insert(r, next); err != nil {
					return false
				}
				live = append(live, rec{r, next})
				next++
			} else {
				k := rng.IntN(len(live))
				ok, err := tr.Delete(live[k].r, live[k].d)
				if err != nil || !ok {
					return false
				}
				live = append(live[:k], live[k+1:]...)
			}
			if tr.Len() != len(live) {
				return false
			}
			if err := tr.CheckInvariants(); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestHeightLogarithmic(t *testing.T) {
	// Lemma 3.1 shape on the centralized structure: height stays within
	// log_m(N) + 2 across sizes.
	for _, n := range []int{50, 200, 800} {
		tr := MustNew(4, 8, split.RStar{})
		rng := rand.New(rand.NewPCG(uint64(n), 1))
		for i := 0; i < n; i++ {
			x, y := rng.Float64()*1000, rng.Float64()*1000
			if err := tr.Insert(geom.R2(x, y, x+3, y+3), i); err != nil {
				t.Fatal(err)
			}
		}
		bound := math.Log(float64(n))/math.Log(4) + 2
		if float64(tr.Height()) > bound {
			t.Errorf("n=%d: height %d > bound %.1f", n, tr.Height(), bound)
		}
	}
}

func sameSet(got []any, want ...string) bool {
	if len(got) != len(want) {
		return false
	}
	set := map[string]bool{}
	for _, g := range got {
		set[fmt.Sprint(g)] = true
	}
	for _, w := range want {
		if !set[w] {
			return false
		}
	}
	return true
}
