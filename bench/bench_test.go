package main

import (
	"regexp"
	"testing"
)

// smokeSpec is small enough for a test: two daemons, so there is a
// remote hop, and every phase a second or less.
var smokeSpec = spec{
	Name: "smoke", Daemons: 2, Subs: 200, SideLo: 0.05, SideHi: 0.20,
	Rate: 300, Window: 8, ChurnIDs: 20,
}

func smokeRun(t *testing.T, trace bool) *result {
	t.Helper()
	if testing.Short() {
		t.Skip("spawns drtreed processes")
	}
	bin, build, err := buildDaemon()
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{spec: smokeSpec, seed: 1, seconds: 3, trace: trace, bin: bin, tag: "smoke"}
	if err := b.run(build.Seconds()); err != nil {
		t.Fatal(err)
	}
	if !b.res.Correct {
		t.Errorf("%d of %d ops failed: %v", b.res.Failed, b.res.Attempted, b.res.Notes)
	}
	return b.res
}

// Every end-to-end metric BENCHMARK.json names is emitted, with its
// unit, by an untraced run.
func TestSmokeEndToEnd(t *testing.T) {
	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	res := smokeRun(t, false)
	for _, m := range bf.EndToEnd {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s not emitted", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s emitted in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		case got.Value <= 0:
			t.Errorf("%s = %v", m.Name, got.Value)
		}
	}
	if got := res.Metrics["loadgen.delivery_ratio"].Value; got != 1 {
		t.Errorf("delivery ratio %v, want exactly 1", got)
	}
}

// A traced run fills the ledger: the per-path client-side spans and the
// replay rows of every layer.
func TestSmokeLedger(t *testing.T) {
	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	res := smokeRun(t, true)
	// Two daemons and no WebSocket share: these rows have nothing to
	// measure on the smoke spec.
	absent := map[string]bool{"drtreed.cpu_us_per_event_d2": true, "drtreed.ws_notify_p50_us": true}
	for _, m := range bf.PerLayer {
		got, ok := res.Metrics[m.Name]
		switch {
		case absent[m.Name]:
			if ok {
				t.Errorf("%s emitted (%v) on a workload that cannot measure it", m.Name, got.Value)
			}
		case !ok:
			t.Errorf("%s not emitted; notes: %v", m.Name, res.Notes)
		case got.Unit != m.Unit:
			t.Errorf("%s emitted in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
}

// BENCHMARK.json and the program agree on what is measured.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	wellFormed := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(kind string, specs []metricSpec, defs []metricDef) {
		if len(specs) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(specs), len(defs))
			return
		}
		for i, m := range specs {
			if !wellFormed.MatchString(m.Name) {
				t.Errorf("%s: malformed metric name %q", kind, m.Name)
			}
			if seen[m.Name] {
				t.Errorf("%s: metric name %q used twice", kind, m.Name)
			}
			seen[m.Name] = true
			if d := defs[i]; d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better {
				t.Errorf("%s[%d]: BENCHMARK.json says %+v, the program %+v", kind, i, m, d)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
	for _, m := range bf.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the program %q (%q)",
				i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
	}
}

func TestVerdictRule(t *testing.T) {
	tight := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"unchanged", tight, []float64{101, 100, 102, 99, 100}, "lower", "ok"},
		{"slower than the bound", tight, []float64{120, 121, 119, 122, 120}, "lower", "worse"},
		{"lower throughput", tight, []float64{80, 81, 79, 82, 80}, "higher", "worse"},
		{"noisy", []float64{100, 140, 80, 120, 60}, []float64{100, 130, 90, 110, 70}, "lower", "unresolved"},
		{"noisy but a clean sweep", []float64{100, 140, 90, 120, 160}, []float64{50, 70, 40, 60, 80}, "lower", "ok"},
	} {
		if _, _, got := verdict(c.a, c.b, c.better, 0.10); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	// The contract's spread is Python's statistics.quantiles(n=4).
	if q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; Python says 2.75, 8.25", q1, q3)
	}
}
