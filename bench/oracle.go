package main

import (
	"fmt"
	"math"
	"slices"
)

// oracle answers "which stable subscriptions must receive this event"
// without touching any code of the system under test: a uniform grid
// over the world, each cell listing the rectangles that overlap it,
// with the exact closed-interval test applied to the candidates.
type oracle struct {
	subs  []rect
	n     int     // cells per side
	cell  float64 // cell side
	cells [][]int32
}

func newOracle(subs []rect) *oracle {
	// About four rectangles per cell on average, capped so a huge
	// population of large rectangles cannot blow the index up.
	n := int(math.Sqrt(float64(len(subs)) / 4))
	n = min(max(n, 4), 256)
	o := &oracle{subs: subs, n: n, cell: world / float64(n), cells: make([][]int32, n*n)}
	for k, r := range subs {
		cx0, cx1 := o.col(r.x0), o.col(r.x1)
		cy0, cy1 := o.col(r.y0), o.col(r.y1)
		for cy := cy0; cy <= cy1; cy++ {
			for cx := cx0; cx <= cx1; cx++ {
				o.cells[cy*n+cx] = append(o.cells[cy*n+cx], int32(k))
			}
		}
	}
	return o
}

func (o *oracle) col(v float64) int {
	return min(max(int(v/o.cell), 0), o.n-1)
}

// match appends the indexes of the subscriptions containing e to dst,
// ascending (cells are filled in index order).
func (o *oracle) match(dst []int32, e event) []int32 {
	for _, k := range o.cells[o.col(e.y)*o.n+o.col(e.x)] {
		if o.subs[k].contains(e) {
			dst = append(dst, k)
		}
	}
	return dst
}

// bruteForce is the reference the grid is checked against.
func bruteForce(subs []rect, e event) []int32 {
	var out []int32
	for k, r := range subs {
		if r.contains(e) {
			out = append(out, int32(k))
		}
	}
	return out
}

// selfCheck compares the grid with brute force on up to n events spread
// evenly over the stream. It runs at every start-up: an oracle that is
// wrong would make every later verdict meaningless.
func (o *oracle) selfCheck(events []event, n int) error {
	if len(events) == 0 {
		return nil
	}
	step := max(len(events)/n, 1)
	var got []int32
	for i := 0; i < len(events); i += step {
		got = o.match(got[:0], events[i])
		if want := bruteForce(o.subs, events[i]); !slices.Equal(got, want) {
			return fmt.Errorf("oracle: event %d (%v, %v): grid says %v, brute force says %v",
				i, events[i].x, events[i].y, got, want)
		}
	}
	return nil
}

// expectAll precomputes the expected subscriber set of every event into
// one flat backing array.
func (o *oracle) expectAll(events []event) [][]int32 {
	exp := make([][]int32, len(events))
	var flat []int32
	for i, e := range events {
		start := len(flat)
		flat = o.match(flat, e)
		exp[i] = flat[start:len(flat):len(flat)]
	}
	return exp
}
