package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// The suites are expensive (the broker suite alone builds three
// 100k-subscriber brokers), so the test binary measures each at most
// once: every test below goes through sharedSuites, whose measure
// functions cache their first result, and TestMain fails the run if any
// suite was nevertheless measured twice. The table is suites(false): the
// one-million-subscriber row is left to `drtree-bench -gate` (CI's
// perf-gate job); TestScaleContractOnBaseline holds its bounds here.
var (
	measuredMu sync.Mutex
	measured   = map[string]int{} // suite name -> underlying measure calls
)

var sharedSuites = sync.OnceValue(func() []suite {
	ss := suites(false)
	for i := range ss {
		name, measure := ss[i].name, ss[i].measure
		ss[i].measure = sync.OnceValues(func() ([]row, error) {
			measuredMu.Lock()
			measured[name]++
			measuredMu.Unlock()
			return measure()
		})
	}
	return ss
})

func TestMain(m *testing.M) {
	code := m.Run()
	for name, n := range measured {
		if n > 1 {
			fmt.Fprintf(os.Stderr, "suite %s was measured %d times in one test binary\n", name, n)
			code = 1
		}
	}
	os.Exit(code)
}

// recordSuite runs the -bench-<name> path of one shared suite into a temp
// file and returns the rows read back, after requiring that they match
// the committed baseline under the gate's own comparison.
func recordSuite(t *testing.T, name string) []row {
	t.Helper()
	if testing.Short() {
		t.Skip("runs real benchmarks")
	}
	for _, s := range sharedSuites() {
		if s.name != name {
			continue
		}
		path := filepath.Join(t.TempDir(), "bench.json")
		var stderr bytes.Buffer
		if code := runBench(s, path, io.Discard, &stderr); code != 0 {
			t.Fatalf("runBench exited %d: %s", code, &stderr)
		}
		got, err := readRows(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range compareRows(s.name, got, baselineRows(t, s.baseline), s.unmeasured) {
			t.Error(v)
		}
		return got
	}
	t.Fatalf("no suite named %q", name)
	return nil
}

// baselineRows reads a committed baseline from the repository root.
func baselineRows(t *testing.T, file string) []row {
	t.Helper()
	rows, err := readRows(filepath.Join("..", "..", file))
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestBenchCoreSmoke records the core suite and, beyond the baseline
// comparison, checks what must hold of any run: positive costs, and
// arena books that balance (live + free slots account for the arena).
func TestBenchCoreSmoke(t *testing.T) {
	for _, r := range recordSuite(t, "core") {
		if r.Info["ns_per_op"] <= 0 || r.Info["bytes_per_op"] <= 0 || r.Counters["allocs_per_op"] <= 0 {
			t.Errorf("%s: non-positive measurement %+v", r.Name, r)
		}
		c := r.Counters
		if c["arena_cap"] <= 0 || c["arena_live"] <= 0 || c["arena_live"]+c["arena_free"] != c["arena_cap"] {
			t.Errorf("%s: arena books do not balance: %+v", r.Name, c)
		}
	}
}

// TestBenchProtoSmoke records the proto suite; the round scheduler and
// the pinned seeds make every value exact.
func TestBenchProtoSmoke(t *testing.T) {
	for _, r := range recordSuite(t, "proto") {
		for k, v := range r.Counters {
			if v <= 0 {
				t.Errorf("%s: non-positive %s", r.Name, k)
			}
		}
	}
}

// TestBenchBrokerSmoke records the broker suite (without the 1M row).
func TestBenchBrokerSmoke(t *testing.T) {
	got := recordSuite(t, "broker")
	for _, r := range got {
		if r.Info["ns_per_event"] <= 0 {
			t.Errorf("%s: non-positive wall measurement %+v", r.Name, r.Info)
		}
	}
	if i := slices.IndexFunc(got, func(r row) bool { return r.Name == scaleRowName(1_000_000) }); i >= 0 {
		t.Errorf("the test binary measured %s; that row belongs to drtree-bench -gate", got[i].Name)
	}
}

// TestFrozenDeliveryOnBaseline pins the delivery scenario's committed
// totals to the values that follow from its construction: three fast
// whole-domain consumers receive all 256 events each, the frozen
// consumer finishes the one event trapped in its handler plus the newest
// 32 survivors of its drop-oldest queue, and everything else is shed.
// (The measured row equals the baseline: TestBenchBrokerSmoke.)
func TestFrozenDeliveryOnBaseline(t *testing.T) {
	rows := baselineRows(t, "BENCH_broker.json")
	for _, r := range rows {
		_, hasDelivered := r.Counters["delivered_events"]
		if r.Name != "BrokerDeliveryFrozen" {
			if hasDelivered {
				t.Errorf("%s: delivery counters on a pipeline row", r.Name)
			}
			continue
		}
		if got, want := r.Counters["delivered_events"], float64(3*256+1+32); got != want {
			t.Errorf("frozen scenario delivered %v events, want %v", got, want)
		}
		if got, want := r.Counters["dropped_events"], float64(255-32); got != want {
			t.Errorf("frozen scenario dropped %v events, want %v", got, want)
		}
		return
	}
	t.Error("BrokerDeliveryFrozen row missing from BENCH_broker.json")
}

// TestScaleContractOnBaseline enforces the adaptive gateway tier's
// scaling contract on the committed subscriber-scale sweep, the
// one-million-subscriber row included (which only `drtree-bench -gate`
// re-measures): the per-event classification cost (routing-tree plus
// match-index nodes visited) must stay within 2x of the 1k-subscriber
// floor — nearly flat where the old global scan grew 100x/1000x — while
// the policy actually grows the pool, and the routing tree keeps the
// visited gateways per event far below it.
func TestScaleContractOnBaseline(t *testing.T) {
	byName := map[string]map[string]float64{}
	for _, r := range baselineRows(t, "BENCH_broker.json") {
		byName[r.Name] = r.Counters
	}
	lo := byName[scaleRowName(1_000)]
	if lo["scan_visited_per_event"] <= 0 {
		t.Fatalf("no scan cost recorded at n=1000: %+v", lo)
	}
	for _, n := range []int{100_000, 1_000_000} {
		name := scaleRowName(n)
		hi, ok := byName[name]
		if !ok {
			t.Fatalf("scale sweep row %s missing from BENCH_broker.json", name)
		}
		if hi["gateways"] <= lo["gateways"] {
			t.Fatalf("adaptive sweep pool did not grow: %v gateways at %s vs %v at n=1000", hi["gateways"], name, lo["gateways"])
		}
		if hi["gateway_visited_per_event"] > hi["gateways"]/4 {
			t.Errorf("routing tree barely prunes at %s: %.2f of %v gateways visited per event",
				name, hi["gateway_visited_per_event"], hi["gateways"])
		}
		if ratio := hi["scan_visited_per_event"] / lo["scan_visited_per_event"]; ratio > 2 {
			t.Errorf("match-scan cost grew %.2fx from 1k to %s (want <= 2x): %+v vs %+v", ratio, name, hi, lo)
		}
	}
}

// TestGateViolations exercises the one baseline comparison on synthetic
// rows: what must fail names the row and the counter, what must pass
// yields nothing.
func TestGateViolations(t *testing.T) {
	base := func() []row {
		return []row{
			{Name: "A", Labels: map[string]string{"engine": "core"}, Counters: map[string]float64{"allocs": 42, "msgs": 7.5}, Info: map[string]float64{"ns": 100}},
			{Name: "B", Labels: map[string]string{"engine": "proto"}, Counters: map[string]float64{"msgs": 6, "rounds": 4}},
			{Name: "C", Counters: map[string]float64{"msgs": 1}},
		}
	}
	for _, tc := range []struct {
		name       string
		mutate     func(got []row) []row
		unmeasured []string
		want       []string // substrings of the single expected message; none = must pass
	}{
		{name: "identical", mutate: func(g []row) []row { return g }},
		{name: "wall-clock only", mutate: func(g []row) []row {
			g[0].Info["ns"] = 9999
			g[1].Info = map[string]float64{"ns": 1}
			return g
		}},
		{name: "changed counter, an improvement included", mutate: func(g []row) []row {
			g[0].Counters["allocs"] = 41
			return g
		}, want: []string{"suite A", "allocs", "41", "42"}},
		{name: "changed label", mutate: func(g []row) []row {
			g[1].Labels["engine"] = "live"
			return g
		}, want: []string{"suite B", "engine", "live", "proto"}},
		{name: "missing row", mutate: func(g []row) []row { return slices.Delete(g, 1, 2) },
			want: []string{"suite B", "missing"}},
		{name: "extra row", mutate: func(g []row) []row {
			return append(g, row{Name: "D", Counters: map[string]float64{"msgs": 1}})
		}, want: []string{"suite D", "not in the baseline"}},
		{name: "reordered row", mutate: func(g []row) []row {
			g[0], g[1] = g[1], g[0]
			return g
		}, want: []string{"suite B", "out of order"}},
		{name: "renamed counter", mutate: func(g []row) []row {
			delete(g[2].Counters, "msgs")
			g[2].Counters["messages"] = 1
			return g
		}, want: []string{"suite C", "messages", "suite C", "msgs"}},
		{name: "unmeasured row is skipped, the rest still compared", mutate: func(g []row) []row {
			g = slices.Delete(g, 1, 2)
			g[1].Counters["msgs"] = 2
			return g
		}, unmeasured: []string{"B"}, want: []string{"suite C", "msgs", "2", "1"}},
		{name: "unmeasured row alone passes", mutate: func(g []row) []row { return slices.Delete(g, 1, 2) },
			unmeasured: []string{"B"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := strings.Join(compareRows("suite", tc.mutate(base()), base(), tc.unmeasured), "\n")
			if len(tc.want) == 0 {
				if got != "" {
					t.Fatalf("must pass, got:\n%s", got)
				}
				return
			}
			rest := got
			for _, w := range tc.want {
				i := strings.Index(rest, w)
				if i < 0 {
					t.Fatalf("want %q (in order %q) in:\n%s", w, tc.want, got)
				}
				rest = rest[i+len(w):]
			}
		})
	}
}

// TestGateEndToEnd runs the real perf gate from the repository root over
// the shared measurements: every suite must equal its committed baseline.
// `drtree-bench -gate` is this call with suites(true).
func TestGateEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all benchmark suites")
	}
	t.Chdir(filepath.Join("..", ".."))
	var stdout, stderr bytes.Buffer
	if code := runGate(sharedSuites(), &stdout, &stderr); code != 0 {
		t.Fatalf("runGate exited %d against the committed baselines:\n%s", code, &stderr)
	}
	if !strings.Contains(stdout.String(), "perf-gate: OK") {
		t.Fatalf("gate output: %q", &stdout)
	}
}

// TestGateMissingBaseline covers the gate's unreadable-baseline path; it
// must fail before measuring anything.
func TestGateMissingBaseline(t *testing.T) {
	t.Chdir(t.TempDir())
	ss := suites(true)
	for i := range ss {
		ss[i].measure = func() ([]row, error) { t.Error("measured without a baseline"); return nil, nil }
	}
	var stderr bytes.Buffer
	if code := runGate(ss, io.Discard, &stderr); code == 0 || !strings.Contains(stderr.String(), ss[0].baseline) {
		t.Fatalf("runGate without committed baselines: exit %d, %q", code, &stderr)
	}
}

// TestCLI covers flag handling that needs no measurement.
func TestCLI(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{[]string{"-h"}, 0, "-bench-broker"},
		{[]string{"-badflag"}, 2, ""},
		{[]string{"-exp", "E99"}, 1, `unknown experiment "E99" (valid: E1, E2,`},
		{[]string{"-exp", "E1,bogus"}, 1, `unknown experiment "BOGUS"`},
		{[]string{"-loadgen", "-loadgen-publishers", "0"}, 1, "bad count"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code || !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("run(%q) = %d, stderr %q; want %d containing %q", tc.args, code, &stderr, tc.code, tc.stderr)
		}
		if tc.code == 1 && stdout.Len() != 0 {
			t.Errorf("run(%q) printed results before refusing: %q", tc.args, &stdout)
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "e1", "-seed", "4"}, &stdout, &stderr); code != 0 || !strings.Contains(stdout.String(), "E1") {
		t.Errorf("run(-exp e1) = %d, stdout %q, stderr %q", code, &stdout, &stderr)
	}
}

// TestParseIntList covers the -loadgen-publishers parser.
func TestParseIntList(t *testing.T) {
	if got, err := parseIntList("1, 2,8"); err != nil || len(got) != 3 || got[2] != 8 {
		t.Errorf("parseIntList: %v, %v", got, err)
	}
	for _, bad := range []string{"", "0", "x", "-2"} {
		if _, err := parseIntList(bad); err == nil {
			t.Errorf("parseIntList(%q) must error", bad)
		}
	}
}

// TestLoadgenSmoke runs a tiny loadgen sweep end to end.
func TestLoadgenSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("publishes a real event load")
	}
	if code := runLoadgen([]int{1, 2}, 50, 4, 400, 16, io.Discard, io.Discard); code != 0 {
		t.Fatalf("runLoadgen exited %d", code)
	}
	if code := runLoadgen([]int{1}, 0, 1, 1, 1, io.Discard, io.Discard); code == 0 {
		t.Fatal("invalid sizes must fail")
	}
	if code := runLoadgen([]int{1}, 10, 0, 1, 1, io.Discard, io.Discard); code == 0 {
		t.Fatal("invalid gateway count must fail")
	}
}
