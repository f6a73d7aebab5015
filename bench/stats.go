package main

import (
	"math"
	"slices"
)

// pct returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice, NaN when it is empty.
func pct[T int64 | float64](sorted []T, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return float64(sorted[min(max(i, 0), len(sorted)-1)])
}

// median of an unsorted slice, NaN when empty. NaNs (slices without a
// sample) are skipped.
func median(vs []float64) float64 {
	vs = slices.DeleteFunc(slices.Clone(vs), math.IsNaN)
	if len(vs) == 0 {
		return math.NaN()
	}
	slices.Sort(vs)
	if n := len(vs); n%2 == 0 {
		return (vs[n/2-1] + vs[n/2]) / 2
	}
	return vs[len(vs)/2]
}

// quantile is the q-th quantile (0 <= q <= 1) of an unsorted slice,
// interpolated between neighbours; NaN when empty, NaNs skipped.
func quantile(vs []float64, q float64) float64 {
	vs = slices.DeleteFunc(slices.Clone(vs), math.IsNaN)
	if len(vs) == 0 {
		return math.NaN()
	}
	slices.Sort(vs)
	k := q * float64(len(vs)-1)
	lo := int(k)
	hi := min(lo+1, len(vs)-1)
	return vs[lo] + (vs[hi]-vs[lo])*(k-float64(lo))
}

// A run is cut into slices and a figure is taken per slice; what is
// reported is a quartile of those: the lower one for a latency, the
// upper one for a rate. Whatever else the host is doing comes and goes
// in bursts of seconds and only ever makes a slice slower, so the
// quieter quartile of a run repeats better than its median (measured
// over ten runs: notify_p90_us 13.6 % → 6.4 % on fanout-1d,
// capacity_events_s 11.3 % → 7.8 % on steady-3d), while a change to the
// program moves every slice and so moves the quartile just the same.
const (
	quietLow  = 0.25
	quietHigh = 0.75
)

// sliced holds latency samples cut into equal time slices. A reported
// percentile is the quiet quartile over the slices of each slice's
// percentile.
type sliced struct {
	slices [][]int64
}

func newSliced(n int) *sliced { return &sliced{slices: make([][]int64, n)} }

func (s *sliced) add(slice int, v int64) {
	if slice >= 0 && slice < len(s.slices) {
		s.slices[slice] = append(s.slices[slice], v)
	}
}

func (s *sliced) sort() {
	for _, sl := range s.slices {
		slices.Sort(sl)
	}
}

// pct is the quiet quartile, over the slices keep admits (nil admits
// all), of each slice's p-th percentile. Call sort first.
func (s *sliced) pct(p float64, keep func(slice int) bool) float64 {
	var per []float64
	for i, sl := range s.slices {
		if keep == nil || keep(i) {
			per = append(per, pct(sl, p))
		}
	}
	return quantile(per, quietLow)
}

func (s *sliced) count() int {
	n := 0
	for _, sl := range s.slices {
		n += len(sl)
	}
	return n
}

func (s *sliced) max() float64 {
	m := math.NaN()
	for _, sl := range s.slices {
		if len(sl) > 0 && !(float64(sl[len(sl)-1]) <= m) {
			m = float64(sl[len(sl)-1])
		}
	}
	return m
}
