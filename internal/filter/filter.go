// Package filter implements the content-based filter model of the paper's
// Section 2.1: subscriptions are conjunctions of predicates over named
// numeric attributes, events are attribute/value dictionaries.
//
// Geometrically a filter is a poly-space rectangle and an event is a
// point; package filter compiles both into package geom types given an
// attribute Space (an ordered set of attribute names that fixes the
// dimensions).
package filter

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"drtree/internal/geom"
)

// Op is a comparison operator usable in a predicate. The set matches the
// paper's basic numeric operators {=, <, >, <=, >=}.
type Op int

// Supported predicate operators.
const (
	OpEq Op = iota + 1
	OpLt
	OpGt
	OpLe
	OpGe
)

// String returns the source form of the operator.
func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpLt:
		return "<"
	case OpGt:
		return ">"
	case OpLe:
		return "<="
	case OpGe:
		return ">="
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// eval applies the operator to (attributeValue, constant).
func (o Op) eval(x, v float64) bool {
	switch o {
	case OpEq:
		return x == v
	case OpLt:
		return x < v
	case OpGt:
		return x > v
	case OpLe:
		return x <= v
	case OpGe:
		return x >= v
	default:
		return false
	}
}

// Predicate is a single comparison f_i = (n_i op_i v_i) from the paper:
// attribute name, operator, constant.
type Predicate struct {
	Attr  string
	Op    Op
	Value float64
}

// String renders the predicate in source form, e.g. "price >= 10".
func (p Predicate) String() string {
	return fmt.Sprintf("%s %s %s", p.Attr, p.Op, trimFloat(p.Value))
}

// Filter is a conjunction of predicates, S = f_1 ∧ ... ∧ f_j. The zero
// value matches every event (empty conjunction).
type Filter struct {
	preds []Predicate
}

// New builds a filter from predicates. Predicates are copied; the caller
// keeps ownership of the slice.
func New(preds ...Predicate) Filter {
	cp := make([]Predicate, len(preds))
	copy(cp, preds)
	return Filter{preds: cp}
}

// Range is a convenience constructor for the paper's common form
// (lo <= attr <= hi): a closed interval on one attribute.
func Range(attr string, lo, hi float64) Filter {
	return New(
		Predicate{Attr: attr, Op: OpGe, Value: lo},
		Predicate{Attr: attr, Op: OpLe, Value: hi},
	)
}

// And returns the conjunction of f and g.
func (f Filter) And(g Filter) Filter {
	out := make([]Predicate, 0, len(f.preds)+len(g.preds))
	out = append(out, f.preds...)
	out = append(out, g.preds...)
	return Filter{preds: out}
}

// Predicates returns a copy of the filter's predicates.
func (f Filter) Predicates() []Predicate {
	out := make([]Predicate, len(f.preds))
	copy(out, f.preds)
	return out
}

// Attrs returns the sorted set of attribute names the filter constrains.
func (f Filter) Attrs() []string {
	seen := make(map[string]bool, len(f.preds))
	var out []string
	for _, p := range f.preds {
		if !seen[p.Attr] {
			seen[p.Attr] = true
			out = append(out, p.Attr)
		}
	}
	slices.Sort(out)
	return out
}

// Match reports whether event e satisfies every predicate of f, using the
// exact operator semantics (strict inequalities stay strict). An event
// that does not define a constrained attribute does not match.
func (f Filter) Match(e Event) bool {
	for _, p := range f.preds {
		x, ok := e[p.Attr]
		if !ok || !p.Op.eval(x, p.Value) {
			return false
		}
	}
	return true
}

// Interval returns the closed interval [lo, hi] that f induces on attr;
// unconstrained sides are ±Inf. An unsatisfiable conjunction (e.g.
// a < 1 ∧ a > 2) yields ok == false.
func (f Filter) Interval(attr string) (lo, hi float64, ok bool) {
	lo, hi = math.Inf(-1), math.Inf(1)
	for _, p := range f.preds {
		if p.Attr != attr {
			continue
		}
		switch p.Op {
		case OpEq:
			lo = math.Max(lo, p.Value)
			hi = math.Min(hi, p.Value)
		case OpLt, OpLe:
			hi = math.Min(hi, p.Value)
		case OpGt, OpGe:
			lo = math.Max(lo, p.Value)
		}
	}
	if lo > hi {
		return 0, 0, false
	}
	return lo, hi, true
}

// String renders the filter in source form, predicates joined by " && ".
// The always-true filter renders as "true".
func (f Filter) String() string {
	if len(f.preds) == 0 {
		return "true"
	}
	parts := make([]string, len(f.preds))
	for i, p := range f.preds {
		parts[i] = p.String()
	}
	return strings.Join(parts, " && ")
}

// Event carries the attribute/value pairs of a published message
// ("messages sent by publishers contain a set of attributes with
// associated values").
type Event map[string]float64

// Clone returns an independent copy of the event.
func (e Event) Clone() Event {
	out := make(Event, len(e))
	for k, v := range e {
		out[k] = v
	}
	return out
}

// String renders the event deterministically (keys sorted).
func (e Event) String() string {
	keys := make([]string, 0, len(e))
	for k := range e {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%s", k, trimFloat(e[k]))
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Space is an ordered attribute schema fixing the dimensions of the
// geometric embedding. Attribute i of the space is dimension i of every
// compiled rectangle and point.
type Space struct {
	names []string
	index map[string]int
}

// NewSpace builds a space over the given attribute names, in order. It
// returns an error on duplicates or an empty list.
func NewSpace(attrs ...string) (*Space, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("filter: space needs at least one attribute")
	}
	s := &Space{names: make([]string, len(attrs)), index: make(map[string]int, len(attrs))}
	for i, a := range attrs {
		if _, dup := s.index[a]; dup {
			return nil, fmt.Errorf("filter: duplicate attribute %q", a)
		}
		s.names[i] = a
		s.index[a] = i
	}
	return s, nil
}

// MustSpace is NewSpace that panics on invalid input; for tests and
// constants.
func MustSpace(attrs ...string) *Space {
	s, err := NewSpace(attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// Dims returns the dimensionality of the space.
func (s *Space) Dims() int { return len(s.names) }

// Attrs returns the attribute names in dimension order.
func (s *Space) Attrs() []string {
	out := make([]string, len(s.names))
	copy(out, s.names)
	return out
}

// Rect compiles filter f into its poly-space rectangle in s. Dimensions
// the filter does not constrain are unbounded (paper: "if one attribute is
// undefined, then the corresponding rectangle is unbounded in the
// associated dimension"). It returns an error if f constrains an attribute
// outside the space or is unsatisfiable.
func (s *Space) Rect(f Filter) (geom.Rect, error) {
	for _, p := range f.preds {
		if _, ok := s.index[p.Attr]; !ok {
			return geom.Rect{}, fmt.Errorf("filter: attribute %q not in space %v", p.Attr, s.names)
		}
	}
	lo := make([]float64, len(s.names))
	hi := make([]float64, len(s.names))
	for i, name := range s.names {
		l, h, ok := f.Interval(name)
		if !ok {
			return geom.Rect{}, fmt.Errorf("filter: unsatisfiable constraints on %q", name)
		}
		lo[i], hi[i] = l, h
	}
	return geom.NewRect(lo, hi)
}

// Point compiles event e into a point of s. Every attribute of the space
// must be defined by the event, with a finite value: NaN lies in no
// rectangle and an infinity has no JSON form, so neither could reach
// every subscriber it matches.
func (s *Space) Point(e Event) (geom.Point, error) {
	return s.AppendPoint(make(geom.Point, 0, len(s.names)), e)
}

// AppendPoint is Point into dst's storage: it appends e's coordinates to
// dst, so a caller that reuses dst compiles events without allocating.
// On error dst is returned unextended.
func (s *Space) AppendPoint(dst geom.Point, e Event) (geom.Point, error) {
	n := len(dst)
	for _, name := range s.names {
		v, ok := e[name]
		if !ok {
			return dst[:n], fmt.Errorf("filter: event %v does not define attribute %q", e, name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return dst[:n], fmt.Errorf("filter: event attribute %q is %v, want a finite value", name, v)
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// Event is the inverse of Point: it rebuilds the attribute map of a
// point of s. Callers that observe events as raw overlay points (the
// network daemon's delivery hook) use it to recover the pub/sub view.
func (s *Space) Event(p geom.Point) (Event, error) {
	if len(p) != len(s.names) {
		return nil, fmt.Errorf("filter: point has %d dims, space %v has %d", len(p), s.names, len(s.names))
	}
	e := make(Event, len(s.names))
	for i, name := range s.names {
		e[name] = p[i]
	}
	return e, nil
}

// PointFilter is a Filter compiled against a Space: each predicate
// names its attribute by dimension, so it is tested on a point of the
// space with no attribute lookup. For every event e that Space.Point
// compiles to p, f.Match(p) equals the source filter's Match(e).
type PointFilter struct {
	preds []dimPredicate
}

// dimPredicate is one predicate with its attribute resolved to a
// dimension of the space.
type dimPredicate struct {
	dim int
	op  Op
	v   float64
}

// PointFilter compiles f for matching on points of s. It returns an
// error if f constrains an attribute outside the space.
func (s *Space) PointFilter(f Filter) (PointFilter, error) {
	preds := make([]dimPredicate, len(f.preds))
	for i, p := range f.preds {
		dim, ok := s.index[p.Attr]
		if !ok {
			return PointFilter{}, fmt.Errorf("filter: attribute %q not in space %v", p.Attr, s.names)
		}
		preds[i] = dimPredicate{dim: dim, op: p.Op, v: p.Value}
	}
	return PointFilter{preds: preds}, nil
}

// Match reports whether point p of the filter's space satisfies every
// predicate, with Filter.Match's exact operator semantics.
func (f PointFilter) Match(p geom.Point) bool {
	for _, pr := range f.preds {
		if !pr.op.eval(p[pr.dim], pr.v) {
			return false
		}
	}
	return true
}

// Contains reports subscription containment f ⊒ g within space s: every
// event matching g also matches f. It is decided geometrically on the
// compiled rectangles; closed-interval semantics are used, matching the
// paper's rectangle model.
func (s *Space) Contains(f, g Filter) (bool, error) {
	rf, err := s.Rect(f)
	if err != nil {
		return false, err
	}
	rg, err := s.Rect(g)
	if err != nil {
		return false, err
	}
	return rf.Contains(rg), nil
}

func trimFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+inf"
	case math.IsInf(v, -1):
		return "-inf"
	default:
		return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.4f", v), "0"), ".")
	}
}
