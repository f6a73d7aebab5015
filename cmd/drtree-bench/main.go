// Command drtree-bench regenerates the paper's quantitative artifacts
// (experiments E1-E10, see DESIGN.md §3 and EXPERIMENTS.md) and prints
// one paper-style table per experiment.
//
// It also owns the repository's deterministic benchmark suites (the
// table in suite.go): core (hot-path allocs and arena residency), proto
// (the wire protocol's rounds and messages per publish) and broker (the
// gateway Broker's batched pipeline over both engines, the 1k → 1M
// subscriber-scale sweep, the drift and Zipf scenarios, the
// frozen-consumer delivery totals). -bench-<suite> measures one suite
// into a JSON file (the committed BENCH_<suite>.json); -gate measures
// every suite and fails on any difference in names, labels or counters —
// never the wall-clock info — from those baselines, which is how the CI
// perf-gate job locks the recorded wins in.
//
// -loadgen drives the sharded Broker with concurrent publishers and
// reports wall-clock throughput (the EXPERIMENTS.md loadgen table).
//
// Usage:
//
//	drtree-bench [-seed N] [-exp E1,E5,E7]
//	drtree-bench -bench-core BENCH_core.json
//	drtree-bench -bench-proto BENCH_proto.json
//	drtree-bench -bench-broker BENCH_broker.json
//	drtree-bench -gate
//	drtree-bench -loadgen [-loadgen-publishers 1,2,4,8] [-loadgen-subs N] [-loadgen-events N] [-loadgen-batch K]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"drtree/internal/core"
	"drtree/internal/experiments"
	"drtree/internal/filter"
	"drtree/internal/pubsub"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("drtree-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 1, "random seed for all experiments")
	exp := fs.String("exp", "", "comma-separated experiment IDs (default: all)")
	ss := suites(true)
	benchPaths := make([]*string, len(ss))
	for i, s := range ss {
		benchPaths[i] = fs.String("bench-"+s.name, "", "measure "+s.what+" and write the rows to this JSON file")
	}
	gate := fs.Bool("gate", false, "measure every benchmark suite and fail if any label or deterministic counter differs from the committed BENCH_*.json")
	loadgen := fs.Bool("loadgen", false, "drive the sharded broker with concurrent publishers and report wall-clock throughput")
	lgPublishers := fs.String("loadgen-publishers", "1,2,4,8", "comma-separated publisher counts for -loadgen")
	lgSubs := fs.Int("loadgen-subs", 1000, "subscriber population for -loadgen")
	lgGateways := fs.Int("loadgen-gateways", 16, "gateway pool size for -loadgen (overlay processes shared by all subscribers)")
	lgEvents := fs.Int("loadgen-events", 20000, "events published per -loadgen row")
	lgBatch := fs.Int("loadgen-batch", 64, "events per PublishBatch call in -loadgen")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	for i, s := range ss {
		if *benchPaths[i] != "" {
			return runBench(s, *benchPaths[i], stdout, stderr)
		}
	}
	switch {
	case *gate:
		return runGate(ss, stdout, stderr)
	case *loadgen:
		pubs, err := parseIntList(*lgPublishers)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return runLoadgen(pubs, *lgSubs, *lgGateways, *lgEvents, *lgBatch, stdout, stderr)
	}

	runners := []struct {
		id  string
		run func() experiments.Result
	}{
		{"E1", experiments.RunE1},
		{"E2", func() experiments.Result { return experiments.RunE2(*seed, []int{100, 400, 1600}) }},
		{"E3", func() experiments.Result { return experiments.RunE3(*seed, []int{100, 400, 1600}) }},
		{"E4", func() experiments.Result { return experiments.RunE4(*seed, []int{100, 400}) }},
		{"E5", func() experiments.Result { return experiments.RunE5(*seed, 60, 20) }},
		{"E6", func() experiments.Result { return experiments.RunE6(*seed, 150, 300) }},
		{"E7", func() experiments.Result { return experiments.RunE7(*seed, 30, []float64{5, 15, 30, 60}) }},
		{"E8", func() experiments.Result { return experiments.RunE8(*seed, 200, 300) }},
		{"E9", func() experiments.Result { return experiments.RunE9(*seed, 120, 300) }},
		{"E10", func() experiments.Result { return experiments.RunE10(*seed, 100, 400) }},
	}
	valid := make([]string, len(runners))
	for i, r := range runners {
		valid[i] = r.id
	}
	want := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		e = strings.TrimSpace(strings.ToUpper(e))
		if e == "" {
			continue
		}
		if !slices.Contains(valid, e) {
			fmt.Fprintf(stderr, "drtree-bench: unknown experiment %q (valid: %s)\n", e, strings.Join(valid, ", "))
			return 1
		}
		want[e] = true
	}

	failures := 0
	for _, r := range runners {
		if len(want) > 0 && !want[r.id] {
			continue
		}
		res := r.run()
		fmt.Fprintln(stdout, res)
		if res.Err != nil {
			failures++
		}
	}
	if failures > 0 {
		fmt.Fprintf(stderr, "%d experiment(s) failed to reproduce\n", failures)
		return 1
	}
	return 0
}

// parseIntList parses a comma-separated list of positive integers.
func parseIntList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("drtree-bench: bad count %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("drtree-bench: empty count list %q", s)
	}
	return out, nil
}

// runLoadgen builds a gateway broker over the sequential engine and, for
// each publisher count, streams a fixed event load through PublishBatch
// from that many concurrent goroutines, printing the wall-clock
// throughput. The broker's per-gateway locks keep the match scans
// parallel; the overlay traversal serializes behind the engine mutex, so
// the scaling shows how much of the pipeline the gateway layer took off
// the critical path.
func runLoadgen(pubCounts []int, subs, gateways, events, batchSize int, stdout, stderr io.Writer) int {
	if subs < 1 || gateways < 1 || events < 1 || batchSize < 1 {
		fmt.Fprintln(stderr, "drtree-bench: -loadgen sizes must be positive")
		return 1
	}
	fmt.Fprintf(stdout, "loadgen: %d subscribers on %d gateways, %d events per row, batch size %d\n", subs, gateways, events, batchSize)
	fmt.Fprintf(stdout, "%-12s %12s %14s %14s\n", "publishers", "wall (ms)", "events/sec", "msgs/event")
	for _, p := range pubCounts {
		tree, err := core.New(core.Params{MinFanout: 2, MaxFanout: 4})
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		b, evs, err := brokerWorkload(tree, subs, pubsub.WithGateways(gateways))
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		var wg sync.WaitGroup
		msgs := make([]int64, p) // per publisher
		errs := make([]error, p)
		start := time.Now()
		for w := 0; w < p; w++ {
			// The remainder is spread so exactly `events` are published.
			perPub := events / p
			if w < events%p {
				perPub++
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				producer := core.ProcID(1 + w%subs)
				for done := 0; done < perPub && errs[w] == nil; {
					chunk := make([]filter.Event, min(batchSize, perPub-done))
					for i := range chunk {
						chunk[i] = evs[(done+i)%len(evs)]
					}
					var notes []pubsub.Notification
					notes, errs[w] = b.PublishBatch(producer, chunk)
					for _, note := range notes {
						msgs[w] += int64(note.Messages)
					}
					done += len(chunk)
				}
			}()
		}
		wg.Wait()
		wall := time.Since(start)
		if err := errors.Join(errs...); err != nil {
			fmt.Fprintf(stderr, "drtree-bench: loadgen publish failed: %v\n", err)
			return 1
		}
		var totalMsgs int64
		for _, m := range msgs {
			totalMsgs += m
		}
		fmt.Fprintf(stdout, "%-12d %12.1f %14.0f %14.2f\n", p, float64(wall.Microseconds())/1000,
			float64(events)/wall.Seconds(), float64(totalMsgs)/float64(events))
	}
	return 0
}
