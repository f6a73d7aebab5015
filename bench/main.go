// Command bench is the repo's socket-level benchmark: it builds
// ./cmd/drtreed from the working tree, runs real daemon processes on
// loopback, drives them over their binary RPC sockets, checks every
// delivery against an oracle of its own, and prints the metrics named
// in BENCHMARK.json. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 30, "length of the measured phases, shared between them")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: traced run, per-layer ledger")
		out      = flag.String("out", "", "write every run's result to this JSON file")
		repeat   = flag.Int("repeat", 1, "run each workload this many times")
		compare  = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		return compareMain(flag.Args())
	}
	var specs []spec
	if *workload == "all" {
		specs = workloads
	} else if s, ok := findSpec(*workload); ok {
		specs = []spec{s}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	// A signal kills the children and removes the data dirs before the
	// process ends; the deferred tear-down covers every other path.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		if c := running.Load(); c != nil {
			c.kill()
		}
		os.Exit(130)
	}()

	bin, buildTime, err := buildDaemon()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	var results []*result
	code := 0
	for _, s := range specs {
		for i := 0; i < *repeat; i++ {
			b := &bench{spec: s, seed: *seed, seconds: *seconds, trace: *trace == 1, bin: bin,
				tag: fmt.Sprintf("%s-%d", s.Name, os.Getpid())}
			if err := b.run(buildTime.Seconds()); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", s.Name, err)
				return 1
			}
			results = append(results, b.res)
			report(os.Stderr, b.res)
			if !b.res.Correct {
				code = 1
			}
			printContract(b.res)
		}
	}
	if *out != "" {
		buf, err := json.MarshalIndent(results, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return code
}
