package filter

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"drtree/internal/geom"
)

func TestOpString(t *testing.T) {
	tests := []struct {
		op   Op
		want string
	}{
		{OpEq, "="}, {OpLt, "<"}, {OpGt, ">"}, {OpLe, "<="}, {OpGe, ">="}, {Op(99), "Op(99)"},
	}
	for _, tt := range tests {
		if got := tt.op.String(); got != tt.want {
			t.Errorf("Op(%d).String() = %q, want %q", tt.op, got, tt.want)
		}
	}
}

func TestFilterMatch(t *testing.T) {
	f := New(
		Predicate{Attr: "price", Op: OpGe, Value: 10},
		Predicate{Attr: "price", Op: OpLt, Value: 20},
		Predicate{Attr: "qty", Op: OpEq, Value: 5},
	)
	tests := []struct {
		name string
		e    Event
		want bool
	}{
		{"inside", Event{"price": 15, "qty": 5}, true},
		{"lower edge inclusive", Event{"price": 10, "qty": 5}, true},
		{"upper edge strict", Event{"price": 20, "qty": 5}, false},
		{"wrong qty", Event{"price": 15, "qty": 6}, false},
		{"missing attr", Event{"price": 15}, false},
		{"extra attrs ok", Event{"price": 15, "qty": 5, "other": 1}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := f.Match(tt.e); got != tt.want {
				t.Fatalf("Match(%v) = %v, want %v", tt.e, got, tt.want)
			}
		})
	}
	if !(Filter{}).Match(Event{"anything": 1}) {
		t.Error("empty filter must match every event")
	}
}

func TestFilterInterval(t *testing.T) {
	f := MustParse("a >= 2 && a <= 8 && a < 6")
	lo, hi, ok := f.Interval("a")
	if !ok || lo != 2 || hi != 6 {
		t.Fatalf("Interval = [%g,%g] ok=%v, want [2,6] true", lo, hi, ok)
	}
	lo, hi, ok = f.Interval("unconstrained")
	if !ok || !math.IsInf(lo, -1) || !math.IsInf(hi, 1) {
		t.Fatalf("unconstrained Interval = [%g,%g] ok=%v", lo, hi, ok)
	}
	if _, _, ok := MustParse("a < 1 && a > 2").Interval("a"); ok {
		t.Fatal("unsatisfiable interval must report ok=false")
	}
	if lo, hi, ok := MustParse("a = 3").Interval("a"); !ok || lo != 3 || hi != 3 {
		t.Fatalf("equality Interval = [%g,%g] ok=%v, want [3,3]", lo, hi, ok)
	}
}

func TestFilterAndAttrsString(t *testing.T) {
	f := Range("x", 0, 10).And(Range("y", 5, 6))
	attrs := f.Attrs()
	if len(attrs) != 2 || attrs[0] != "x" || attrs[1] != "y" {
		t.Fatalf("Attrs = %v", attrs)
	}
	want := "x >= 0 && x <= 10 && y >= 5 && y <= 6"
	if got := f.String(); got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
	if got := (Filter{}).String(); got != "true" {
		t.Fatalf("empty filter String = %q", got)
	}
}

func TestPredicatesCopySemantics(t *testing.T) {
	preds := []Predicate{{Attr: "a", Op: OpEq, Value: 1}}
	f := New(preds...)
	preds[0].Value = 99
	if f.Predicates()[0].Value != 1 {
		t.Fatal("New must copy predicate slice at the boundary")
	}
	got := f.Predicates()
	got[0].Value = 42
	if f.Predicates()[0].Value != 1 {
		t.Fatal("Predicates must return a copy")
	}
}

func TestSpaceBasics(t *testing.T) {
	if _, err := NewSpace(); err == nil {
		t.Error("empty space must be rejected")
	}
	if _, err := NewSpace("a", "a"); err == nil {
		t.Error("duplicate attribute must be rejected")
	}
	s := MustSpace("x", "y")
	if s.Dims() != 2 {
		t.Fatalf("Dims = %d", s.Dims())
	}
	attrs := s.Attrs()
	attrs[0] = "mutated"
	if s.Attrs()[0] != "x" {
		t.Fatal("Attrs must return a copy")
	}
}

func TestSpaceRect(t *testing.T) {
	s := MustSpace("x", "y")
	r, err := s.Rect(MustParse("x in [0, 40] && y in [10, 50]"))
	if err != nil {
		t.Fatal(err)
	}
	if want := geom.R2(0, 10, 40, 50); !r.Equal(want) {
		t.Fatalf("Rect = %v, want %v", r, want)
	}

	// Unconstrained dimension becomes unbounded.
	r, err = s.Rect(MustParse("x in [1, 2]"))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(r.Lo(1), -1) || !math.IsInf(r.Hi(1), 1) {
		t.Fatalf("unconstrained dim not unbounded: %v", r)
	}

	if _, err := s.Rect(MustParse("z = 1")); err == nil {
		t.Error("attribute outside space must error")
	}
	if _, err := s.Rect(MustParse("x < 0 && x > 1")); err == nil {
		t.Error("unsatisfiable filter must error")
	}
}

func TestSpacePoint(t *testing.T) {
	s := MustSpace("x", "y")
	p, err := s.Point(Event{"x": 3, "y": 4, "ignored": 9})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Equal(geom.Point{3, 4}) {
		t.Fatalf("Point = %v", p)
	}
	if _, err := s.Point(Event{"x": 3}); err == nil {
		t.Error("event missing a space attribute must error")
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := s.Point(Event{"x": 3, "y": v}); err == nil {
			t.Errorf("event value %v must error: it lies in no rectangle or has no JSON form", v)
		}
	}
}

// TestSpaceAppendPoint: AppendPoint extends the caller's storage, leaves
// it unextended on error, and allocates nothing once it has room.
func TestSpaceAppendPoint(t *testing.T) {
	s := MustSpace("x", "y")
	dst := geom.Point{7}
	p, err := s.AppendPoint(dst, Event{"x": 3, "y": 4})
	if err != nil || !p.Equal(geom.Point{7, 3, 4}) {
		t.Fatalf("AppendPoint = %v, %v; want [7 3 4]", p, err)
	}
	if p, err := s.AppendPoint(dst, Event{"x": 3, "y": math.NaN()}); err == nil || !p.Equal(dst) {
		t.Fatalf("AppendPoint of NaN = %v, %v; want an error and %v", p, err, dst)
	}
	ev, buf := Event{"x": 1, "y": 2}, make(geom.Point, 0, 2)
	if allocs := testing.AllocsPerRun(100, func() { buf, _ = s.AppendPoint(buf[:0], ev) }); allocs != 0 {
		t.Fatalf("AppendPoint into room made %v allocations, want 0", allocs)
	}
}

// TestPointFilterAgreesWithMatch: a filter compiled against the space
// matches a point exactly when the source filter matches the event the
// point came from, strict and non-strict operators and both boundaries
// included.
func TestPointFilterAgreesWithMatch(t *testing.T) {
	s := MustSpace("x", "y", "z")
	if _, err := s.PointFilter(MustParse("w > 1")); err == nil {
		t.Error("an attribute outside the space must error")
	}
	rng := rand.New(rand.NewPCG(38, 4))
	ops := []Op{OpEq, OpLt, OpGt, OpLe, OpGe}
	for range 300 {
		var preds []Predicate
		for range 1 + rng.IntN(4) {
			preds = append(preds, Predicate{Attr: s.names[rng.IntN(3)], Op: ops[rng.IntN(len(ops))], Value: float64(rng.IntN(5))})
		}
		f := New(preds...)
		pf, err := s.PointFilter(f)
		if err != nil {
			t.Fatal(err)
		}
		for range 20 {
			e := Event{"x": float64(rng.IntN(5)), "y": float64(rng.IntN(5)), "z": float64(rng.IntN(5)), "extra": 1}
			p, err := s.Point(e)
			if err != nil {
				t.Fatal(err)
			}
			if pf.Match(p) != f.Match(e) {
				t.Fatalf("filter %v on %v: PointFilter %v, Match %v", f, e, pf.Match(p), f.Match(e))
			}
		}
	}
	if pf, _ := s.PointFilter(Filter{}); !pf.Match(geom.Point{1, 2, 3}) {
		t.Error("the empty conjunction must match every point")
	}
}

func TestSpaceContains(t *testing.T) {
	s := MustSpace("x", "y")
	outer := MustParse("x in [0, 100] && y in [0, 100]")
	inner := MustParse("x in [10, 20] && y in [10, 20]")
	if ok, err := s.Contains(outer, inner); err != nil || !ok {
		t.Fatalf("Contains(outer, inner) = %v, %v", ok, err)
	}
	if ok, err := s.Contains(inner, outer); err != nil || ok {
		t.Fatalf("Contains(inner, outer) = %v, %v; want false", ok, err)
	}
	// A filter leaving y free contains one that binds y to a subrange of x-range.
	free := MustParse("x in [0, 50]")
	bound := MustParse("x in [10, 20] && y in [1, 2]")
	if ok, _ := s.Contains(free, bound); !ok {
		t.Fatal("filter with unbounded dim must contain constrained sub-filter")
	}
	if _, err := s.Contains(MustParse("z = 1"), inner); err == nil {
		t.Error("bad attribute must surface an error")
	}
}

func TestEventCloneString(t *testing.T) {
	e := Event{"b": 2, "a": 1}
	c := e.Clone()
	c["a"] = 99
	if e["a"] != 1 {
		t.Fatal("Clone aliases original")
	}
	if got := e.String(); got != "{a=1, b=2}" {
		t.Fatalf("String = %q", got)
	}
}

func TestParseValid(t *testing.T) {
	tests := []struct {
		src   string
		event Event
		want  bool
	}{
		{"true", Event{"x": 1}, true},
		{"price >= 10 && price <= 20", Event{"price": 15}, true},
		{"price >= 10 && price <= 20", Event{"price": 25}, false},
		{"price>=10", Event{"price": 10}, true},
		{"x in [0, 5]", Event{"x": 5}, true},
		{"x in [0, 5]", Event{"x": 5.01}, false},
		{"x in [0,5] && y in [1,2]", Event{"x": 1, "y": 1.5}, true},
		{"qty == 3", Event{"qty": 3}, true},
		{"qty = 3", Event{"qty": 2}, false},
		{"a < 5", Event{"a": 4.999}, true},
		{"a < 5", Event{"a": 5}, false},
		{"a > -1.5", Event{"a": 0}, true},
	}
	for _, tt := range tests {
		t.Run(tt.src, func(t *testing.T) {
			f, err := Parse(tt.src)
			if err != nil {
				t.Fatalf("Parse(%q): %v", tt.src, err)
			}
			if got := f.Match(tt.event); got != tt.want {
				t.Fatalf("Parse(%q).Match(%v) = %v, want %v", tt.src, tt.event, got, tt.want)
			}
		})
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"   ",
		"x",
		"x >",
		"x ? 3",
		"x in [1, 2",
		"x in [1]",
		"x in [2, 1]",
		"x in [a, b]",
		"x = notanumber",
		"1x = 3",
		"x = 3 && ",
		"x = 3 extra",
		"&& x = 3",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	f := MustParse("x >= 1 && x <= 2 && y = 3")
	g, err := Parse(f.String())
	if err != nil {
		t.Fatal(err)
	}
	if f.String() != g.String() {
		t.Fatalf("round trip mismatch: %q vs %q", f.String(), g.String())
	}
}

func TestPropertyRectConsistentWithMatch(t *testing.T) {
	// For closed-range filters, geometric point containment must agree
	// exactly with predicate evaluation.
	s := MustSpace("x", "y")
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 7))
		x1, x2 := rng.Float64()*100, rng.Float64()*100
		y1, y2 := rng.Float64()*100, rng.Float64()*100
		if x1 > x2 {
			x1, x2 = x2, x1
		}
		if y1 > y2 {
			y1, y2 = y2, y1
		}
		fl := Range("x", x1, x2).And(Range("y", y1, y2))
		r, err := s.Rect(fl)
		if err != nil {
			return false
		}
		for i := 0; i < 20; i++ {
			e := Event{"x": rng.Float64() * 100, "y": rng.Float64() * 100}
			p, err := s.Point(e)
			if err != nil {
				return false
			}
			if fl.Match(e) != r.ContainsPoint(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyContainmentMatchesSubsetSemantics(t *testing.T) {
	// If Contains(f, g) then every event matching g matches f
	// (the definitional property of subscription containment, §2.1).
	s := MustSpace("x", "y")
	prop := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 8))
		f := Range("x", 10, 60).And(Range("y", 10, 60))
		gx1 := 10 + rng.Float64()*25
		gy1 := 10 + rng.Float64()*25
		g := Range("x", gx1, gx1+rng.Float64()*25).And(Range("y", gy1, gy1+rng.Float64()*25))
		ok, err := s.Contains(f, g)
		if err != nil || !ok {
			return false
		}
		for i := 0; i < 20; i++ {
			e := Event{"x": rng.Float64() * 100, "y": rng.Float64() * 100}
			if g.Match(e) && !f.Match(e) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
