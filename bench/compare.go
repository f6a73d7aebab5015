package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"text/tabwriter"
)

// benchmarkFile is BENCHMARK.json, as far as the bench reads it.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile() (*benchmarkFile, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	buf, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(buf, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

func readResults(path string) ([]*result, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []*result
	if err := json.Unmarshal(buf, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which
// is what the benchmark contract computes spreads with.
func quartiles(vs []float64) (q1, q3 float64) {
	s := slices.Clone(vs)
	slices.Sort(s)
	at := func(i int) float64 {
		pos := float64(i) * float64(len(s)+1) / 4 // 1-based
		j := min(max(int(pos), 1), len(s)-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spreadOf is the interquartile distance as a share of the median, NaN
// for fewer than two runs.
func spreadOf(vs []float64) float64 {
	if len(vs) < 2 {
		return math.NaN()
	}
	q1, q3 := quartiles(vs)
	return (q3 - q1) / median(vs)
}

// verdict applies the choosing-metrics rule to one (metric, workload)
// pairing: a is the parent's runs, b the change's.
func verdict(a, b []float64, better string, bound float64) (worse, spread float64, v string) {
	ma, mb := median(a), median(b)
	sign := 1.0
	if better == "higher" {
		sign = -1
	}
	worse = sign * (mb - ma) / ma
	for _, sp := range []float64{spreadOf(a), spreadOf(b)} {
		if sp > spread { // a NaN (single run) compares false and is skipped
			spread = sp
		}
	}
	if spread > bound {
		// Too noisy to call unchanged; only a clean sweep counts.
		sweep := slices.Max(b) < slices.Min(a)
		if better == "higher" {
			sweep = slices.Min(b) > slices.Max(a)
		}
		if sweep {
			return worse, spread, "ok"
		}
		return worse, spread, "unresolved"
	}
	if worse > bound {
		return worse, spread, "worse"
	}
	return worse, spread, "ok"
}

// compareMain prints, per (metric, workload), both medians, the spread,
// the bound from BENCHMARK.json and the verdict. It exits 1 when any
// end-to-end pairing is worse, so it can gate a script.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
		return 2
	}
	bf, err := readBenchmarkFile()
	var ra, rb []*result
	if err == nil {
		ra, err = readResults(args[0])
	}
	if err == nil {
		rb, err = readResults(args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	collect := func(rs []*result, workload, name string, trace bool) []float64 {
		var vs []float64
		for _, r := range rs {
			if m, ok := r.Metrics[name]; ok && r.Workload == workload && r.Trace == trace {
				vs = append(vs, m.Value)
			}
		}
		return vs
	}
	code := 0
	w := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(w, "workload\tmetric\tunit\tmedian a (n)\tmedian b (n)\tb worse by\tspread\tbound\tverdict")
	for _, wl := range bf.Workloads {
		for _, group := range []struct {
			specs []metricSpec
			trace bool
		}{{bf.EndToEnd, false}, {bf.PerLayer, true}} {
			for _, m := range group.specs {
				a, b := collect(ra, wl.Name, m.Name, group.trace), collect(rb, wl.Name, m.Name, group.trace)
				if len(a) == 0 || len(b) == 0 {
					continue
				}
				worse, spread, v := verdict(a, b, m.Better, m.Bound)
				bound := fmt.Sprintf("%.0f%%", m.Bound*100)
				if group.trace {
					// Per-layer metrics have no bound: they explain, they do not gate.
					bound, v = "-", "recorded"
				} else if v == "worse" {
					code = 1
				}
				fmt.Fprintf(w, "%s\t%s\t%s\t%.4g (%d)\t%.4g (%d)\t%+.1f%%\t%.1f%%\t%s\t%s\n",
					wl.Name, m.Name, m.Unit, median(a), len(a), median(b), len(b),
					worse*100, spread*100, bound, v)
			}
		}
	}
	w.Flush()
	for _, r := range append(ra, rb...) {
		if !r.Correct {
			fmt.Printf("! %s seed %d: %d of %d ops failed\n", r.Workload, r.Seed, r.Failed, r.Attempted)
			code = 1
		}
	}
	return code
}
