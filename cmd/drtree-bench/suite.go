package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strings"
)

// row is one recorded measurement, the shape every BENCH_*.json shares.
// Labels identify the workload (engine, population, batch size) and
// Counters are the deterministic results; both are compared exactly by
// the gate, in either direction — an improvement must be re-recorded so
// the committed baseline always states the current cost. A counter a
// row does not measure (allocs/event on the wire engine, whose grow-only
// actor state makes them non-constant) is simply absent. Info is
// wall-clock and byte volume: recorded, printed, never compared.
type row struct {
	Name     string             `json:"name"`
	Labels   map[string]string  `json:"labels,omitempty"`
	Counters map[string]float64 `json:"counters"`
	Info     map[string]float64 `json:"info,omitempty"`
}

// suite is one benchmark suite: what -bench-<name> records, and what
// -gate re-measures and compares against the committed baseline file.
type suite struct {
	name     string
	baseline string
	what     string // the -bench-<name> flag's help text
	measure  func() ([]row, error)
	// unmeasured names baseline rows this table's measure leaves out; the
	// gate skips them and still compares every other row.
	unmeasured []string
}

// suites returns the suite table. million selects whether the broker
// sweep builds its one-million-subscriber row (over a minute on its
// own): the -gate and -bench-broker commands do, the package's tests
// measure the other rows and assert the row's bounds on the committed
// baseline, which -gate pins to the measurement.
func suites(million bool) []suite {
	scale, unmeasured := scaleSizes, []string(nil)
	if !million {
		top := len(scaleSizes) - 1
		scale, unmeasured = scaleSizes[:top], []string{scaleRowName(scaleSizes[top])}
	}
	return []suite{
		{name: "core", baseline: "BENCH_core.json", what: "the core hot paths (join build-up, publish, arena churn)", measure: measureCore},
		{name: "proto", baseline: "BENCH_proto.json", what: "the wire protocol's dissemination costs", measure: measureProto},
		{name: "broker", baseline: "BENCH_broker.json", unmeasured: unmeasured,
			what:    "the batched broker pipeline (batch sizes, subscriber-scale sweep, drift/Zipf scenarios, frozen-consumer delivery)",
			measure: func() ([]row, error) { return measureBroker(scale) }},
	}
}

// writeRows writes rows to path as indented JSON with a trailing newline.
func writeRows(path string, rows []row) error {
	out, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// readRows decodes a baseline file, rejecting unknown fields so the
// committed baselines and the recorder cannot drift apart silently.
func readRows(path string) ([]row, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var rows []row
	if err := dec.Decode(&rows); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("%s: no rows", path)
	}
	return rows, nil
}

// compareRows is the one comparison against a baseline: it returns a
// message per difference between the measured rows and the baseline's,
// each naming the suite, the row and the label or counter. Rows must
// agree in name, order, labels and counters; Info never takes part.
// Baseline rows named in unmeasured are left out of the comparison.
func compareRows(suiteName string, got, want []row, unmeasured []string) []string {
	var out []string
	mismatch := func(format string, args ...any) {
		out = append(out, suiteName+" "+fmt.Sprintf(format, args...))
	}
	find := func(rows []row, name string) int {
		return slices.IndexFunc(rows, func(r row) bool { return r.Name == name })
	}
	last := -1 // the matched rows must appear in the baseline's order
	for _, w := range want {
		if slices.Contains(unmeasured, w.Name) {
			continue
		}
		i := find(got, w.Name)
		if i < 0 {
			mismatch("%s: row missing from the measurement", w.Name)
			continue
		}
		if i < last {
			mismatch("%s: row out of order", w.Name)
		}
		last = max(last, i)
		g := got[i]
		if !maps.Equal(g.Labels, w.Labels) {
			mismatch("%s: labels %v, baseline %v", w.Name, g.Labels, w.Labels)
		}
		for _, k := range unionKeys(g.Counters, w.Counters) {
			gv, measured := g.Counters[k]
			wv, recorded := w.Counters[k]
			switch {
			case !measured:
				mismatch("%s: counter %s not measured, baseline %v", w.Name, k, wv)
			case !recorded:
				mismatch("%s: counter %s = %v is not in the baseline", w.Name, k, gv)
			case gv != wv:
				mismatch("%s: %s = %v, baseline %v", w.Name, k, gv, wv)
			}
		}
	}
	for _, g := range got {
		if find(want, g.Name) < 0 {
			mismatch("%s: row is not in the baseline", g.Name)
		}
	}
	return out
}

// unionKeys returns the keys of either map, sorted.
func unionKeys(a, b map[string]float64) []string {
	keys := slices.AppendSeq(slices.Collect(maps.Keys(a)), maps.Keys(b))
	slices.Sort(keys)
	return slices.Compact(keys)
}

// runBench measures one suite and records its rows to path.
func runBench(s suite, path string, stdout, stderr io.Writer) int {
	rows, err := s.measure()
	if err == nil {
		err = writeRows(path, rows)
	}
	if err != nil {
		fmt.Fprintf(stderr, "drtree-bench: %s suite: %v\n", s.name, err)
		return 1
	}
	for _, r := range rows {
		fmt.Fprintf(stdout, "%-24s %v %v\n", r.Name, r.Counters, r.Info) // fmt sorts map keys
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	return 0
}

// runGate measures every suite of the table and compares it against its
// committed baseline in the current directory.
func runGate(ss []suite, stdout, stderr io.Writer) int {
	baselines := make([][]row, len(ss))
	for i, s := range ss {
		var err error
		if baselines[i], err = readRows(s.baseline); err != nil {
			fmt.Fprintf(stderr, "perf-gate: reading baseline: %v\n", err)
			return 1
		}
	}
	var violations, sizes []string
	for i, s := range ss {
		got, err := s.measure()
		if err != nil {
			fmt.Fprintf(stderr, "perf-gate: %s suite: %v\n", s.name, err)
			return 1
		}
		violations = append(violations, compareRows(s.name, got, baselines[i], s.unmeasured)...)
		sizes = append(sizes, fmt.Sprintf("%d %s", len(got), s.name))
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintf(stderr, "perf-gate: MISMATCH %s\n", v)
		}
		fmt.Fprintln(stderr, "perf-gate: deterministic counters drifted from the committed baselines. If the change is")
		fmt.Fprintln(stderr, "perf-gate: intended (a recorded win or an accepted cost), re-run drtree-bench -bench-<suite>")
		fmt.Fprintln(stderr, "perf-gate: BENCH_<suite>.json for each drifted suite and commit the refreshed baselines with it.")
		return 1
	}
	fmt.Fprintf(stdout, "perf-gate: OK — %s rows match the committed baselines\n", strings.Join(sizes, ", "))
	return 0
}
