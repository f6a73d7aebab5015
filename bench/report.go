package main

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
)

// report prints one run for a person: every metric by name with its
// unit, the op counts, the sample counts and the notes.
func report(w io.Writer, r *result) {
	mode := "tracing off, end-to-end"
	if r.Trace {
		mode = "traced, per-layer ledger"
	}
	fmt.Fprintf(w, "\n== %s  seed %d  %gs  (%s)  inputs %s\n", r.Workload, r.Seed, r.Seconds, mode, r.Inputs)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "  %-36s %14.4f %-9s", n, m.Value, m.Unit)
		if c, ok := r.Samples[n]; ok {
			fmt.Fprintf(w, " n=%d", c)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  ops attempted %d, failed %d, correct %v\n", r.Attempted, r.Failed, r.Correct)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  ! %s\n", n)
	}
}

// printContract writes the one-line JSON object the benchmark contract
// asks for as the last line of standard output.
func printContract(r *result) {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	ms := make(map[string]metric, len(defs))
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			// The contract wants every declared metric on every
			// workload; a layer this workload does not exercise reads 0
			// here and is absent from the report above and from -out.
			m = metric{0, d.Unit}
		}
		ms[d.Name] = m
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
	fmt.Println(string(line))
}
