// Package experiments regenerates every quantitative artifact of the
// paper (see DESIGN.md §3 for the experiment index E1-E10). Each RunE*
// function executes one experiment deterministically from a seed and
// returns both a paper-style table and the headline numbers the
// benchmarks assert on. cmd/drtree-bench prints the tables;
// bench_test.go reports the headline metrics.
package experiments

import (
	"fmt"
	"math/rand/v2"
	"strings"

	"drtree/internal/baseline"
	"drtree/internal/churn"
	"drtree/internal/core"
	"drtree/internal/geom"
	"drtree/internal/proto"
	"drtree/internal/rtree"
	"drtree/internal/split"
	"drtree/internal/stats"
	"drtree/internal/workload"
)

// Result is one experiment's outcome.
type Result struct {
	// ID is the experiment identifier (E1..E10).
	ID string
	// Title describes the paper artifact being regenerated.
	Title string
	// Table is the rendered result table.
	Table string
	// Metrics carries headline numbers for benchmark reporting.
	Metrics map[string]float64
	// Err reports a reproduction failure (a property that must hold did
	// not).
	Err error
}

func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n%s", r.ID, r.Title, r.Table)
	if r.Err != nil {
		fmt.Fprintf(&b, "REPRODUCTION FAILURE: %v\n", r.Err)
	}
	return b.String()
}

// buildUniform joins n subscribers from the given workload kind into a
// fresh tree.
func buildTree(rng *rand.Rand, p core.Params, kind workload.SubscriptionKind, n int) (*core.Tree, error) {
	tr, err := core.New(p)
	if err != nil {
		return nil, err
	}
	subs := workload.Subscriptions(rng, workload.DefaultWorld(), kind, n)
	for i, s := range subs {
		if err := tr.Join(core.ProcID(i+1), s); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// RunE1 regenerates the worked example of §3 / Figures 1-5: the canonical
// S1..S8 scenario, the containment graph, and the dissemination of events
// a..d. The paper's claim: event a published by S2 reaches exactly
// {S2, S3, S4} with 2 messages and no false positives.
func RunE1() Result {
	res := Result{
		ID:      "E1",
		Title:   "worked example (Figures 1-5): S1..S8, events a..d",
		Metrics: map[string]float64{},
	}
	fig := workload.NewFigure1()
	tr, err := core.New(core.Params{MinFanout: 1, MaxFanout: 3})
	if err != nil {
		res.Err = err
		return res
	}
	for i, r := range fig.Subs {
		if err := tr.Join(core.ProcID(i+1), r); err != nil {
			res.Err = err
			return res
		}
	}
	tb := stats.NewTable("event", "matching subs", "received", "messages", "falsepos")
	for _, name := range []string{"a", "b", "c", "d"} {
		ev := fig.Events[name]
		producer := core.ProcID(2) // S2 publishes, as in the paper
		d, err := tr.Publish(producer, ev)
		if err != nil {
			res.Err = err
			return res
		}
		tb.AddRow(name, strings.Join(fig.Matching(name), "+"), fmt.Sprint(d.Received),
			d.Messages, len(d.FalsePositives))
		if name == "a" {
			res.Metrics["a_messages"] = float64(d.Messages)
			res.Metrics["a_falsepos"] = float64(len(d.FalsePositives))
			if len(d.Received) != 3 || d.Messages != 2 || len(d.FalsePositives) != 0 {
				res.Err = fmt.Errorf("event a: received=%v messages=%d fp=%d, paper says {S2,S3,S4}, 2 messages, 0 FP",
					d.Received, d.Messages, len(d.FalsePositives))
			}
		}
	}
	res.Table = tb.String()
	return res
}

// RunE2 regenerates Lemma 3.1: height vs log_m(N) and per-process memory
// vs the O(M log^2 N / log m) bound, across population sizes.
func RunE2(seed uint64, sizes []int) Result {
	res := Result{
		ID:      "E2",
		Title:   "Lemma 3.1: height and memory vs N (m=4, M=8)",
		Metrics: map[string]float64{},
	}
	tb := stats.NewTable("N", "height", "log_m(N)", "maxlinks", "avglinks", "bound M*log2(N)^2/log2(m)")
	for _, n := range sizes {
		rng := rand.New(rand.NewPCG(seed, uint64(n)))
		tr, err := buildTree(rng, core.Params{MinFanout: 4, MaxFanout: 8}, workload.Uniform, n)
		if err != nil {
			res.Err = err
			return res
		}
		if err := tr.CheckLegal(); err != nil {
			res.Err = fmt.Errorf("n=%d: %w", n, err)
			return res
		}
		st := tr.ComputeStats()
		tb.AddRow(n, st.Height, st.HeightLog, st.MaxLinks, st.AvgLinks, st.MemoryBound)
		if float64(st.Height) > st.HeightLog+3 {
			res.Err = fmt.Errorf("n=%d: height %d exceeds log bound %.1f", n, st.Height, st.HeightLog)
		}
		if float64(st.MaxLinks) > 4*st.MemoryBound {
			res.Err = fmt.Errorf("n=%d: memory %d exceeds 4x bound %.1f", n, st.MaxLinks, st.MemoryBound)
		}
		res.Metrics[fmt.Sprintf("height_n%d", n)] = float64(st.Height)
	}
	res.Table = tb.String()
	return res
}

// RunE3 regenerates Lemma 3.2: join cost (routing hops and messages) as a
// function of N, on both the sequential engine and the wire protocol.
func RunE3(seed uint64, sizes []int) Result {
	res := Result{
		ID:      "E3",
		Title:   "Lemma 3.2: join cost vs N (hops are O(log_m N))",
		Metrics: map[string]float64{},
	}
	tb := stats.NewTable("N", "mean hops", "p95 hops", "mean msgs", "height")
	for _, n := range sizes {
		rng := rand.New(rand.NewPCG(seed, uint64(n)))
		tr, err := buildTree(rng, core.Params{MinFanout: 2, MaxFanout: 4}, workload.Uniform, n)
		if err != nil {
			res.Err = err
			return res
		}
		var hops, msgs []float64
		for k := 0; k < 50; k++ {
			x, y := rng.Float64()*1000, rng.Float64()*1000
			id := core.ProcID(n + k + 1)
			st, err := tr.JoinWithStats(id, geom.R2(x, y, x+20, y+20))
			if err != nil {
				res.Err = err
				return res
			}
			hops = append(hops, float64(st.DownHops))
			msgs = append(msgs, float64(st.Messages))
			if err := tr.Leave(id); err != nil {
				res.Err = err
				return res
			}
		}
		hs := stats.Summarize(hops)
		ms := stats.Summarize(msgs)
		tb.AddRow(n, hs.Mean, hs.P95, ms.Mean, tr.Height())
		res.Metrics[fmt.Sprintf("hops_n%d", n)] = hs.Mean
	}
	res.Table = tb.String()
	return res
}

// RunE4 regenerates Lemmas 3.4/3.5: repair cost after controlled and
// uncontrolled departures vs N.
func RunE4(seed uint64, sizes []int) Result {
	res := Result{
		ID:      "E4",
		Title:   "Lemmas 3.4-3.5: departure repair cost vs N",
		Metrics: map[string]float64{},
	}
	tb := stats.NewTable("N", "leave passes", "leave reinserts", "crash passes", "crash reinserts")
	for _, n := range sizes {
		rng := rand.New(rand.NewPCG(seed, uint64(n)))
		tr, err := buildTree(rng, core.Params{MinFanout: 2, MaxFanout: 4}, workload.Uniform, n)
		if err != nil {
			res.Err = err
			return res
		}
		var lp, lr, cp, cr []float64
		ids := tr.ProcIDs()
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		for k := 0; k < 10; k++ {
			st, err := tr.LeaveWithStats(ids[k])
			if err != nil {
				res.Err = err
				return res
			}
			lp = append(lp, float64(st.StabilizeSteps))
			lr = append(lr, float64(st.Reinsertions))
		}
		for k := 10; k < 20; k++ {
			if err := tr.Crash(ids[k]); err != nil {
				res.Err = err
				return res
			}
			st := tr.RepairCrash()
			cp = append(cp, float64(st.StabilizeSteps))
			cr = append(cr, float64(st.Reinsertions))
			if err := tr.CheckLegal(); err != nil {
				res.Err = fmt.Errorf("n=%d after crash repair: %w", n, err)
				return res
			}
		}
		tb.AddRow(n, stats.Summarize(lp).Mean, stats.Summarize(lr).Mean,
			stats.Summarize(cp).Mean, stats.Summarize(cr).Mean)
		res.Metrics[fmt.Sprintf("crash_passes_n%d", n)] = stats.Summarize(cp).Mean
	}
	res.Table = tb.String()
	return res
}

// RunE5 regenerates Lemma 3.6: stabilization from arbitrarily corrupted
// configurations — on the sequential engine (passes) and on the wire
// protocol (rounds).
func RunE5(seed uint64, n, trials int) Result {
	res := Result{
		ID:      "E5",
		Title:   fmt.Sprintf("Lemma 3.6: recovery from memory corruption (N=%d)", n),
		Metrics: map[string]float64{},
	}
	var passes, fixes []float64
	for k := 0; k < trials; k++ {
		rng := rand.New(rand.NewPCG(seed, uint64(k)))
		tr, err := buildTree(rng, core.Params{MinFanout: 2, MaxFanout: 5}, workload.Uniform, n)
		if err != nil {
			res.Err = err
			return res
		}
		tr.CorruptRandom(rng, 1+rng.IntN(10))
		st := tr.Stabilize()
		if !st.Converged {
			res.Err = fmt.Errorf("trial %d: stabilization did not converge", k)
			return res
		}
		if err := tr.CheckLegal(); err != nil {
			res.Err = fmt.Errorf("trial %d: %w", k, err)
			return res
		}
		passes = append(passes, float64(st.Passes))
		fixes = append(fixes, float64(st.Fixes))
	}
	// Protocol-level: one corrupted cluster, measure rounds to stable.
	cl, err := proto.NewCluster(proto.Config{MinFanout: 2, MaxFanout: 4})
	if err != nil {
		res.Err = err
		return res
	}
	rng := rand.New(rand.NewPCG(seed, 999))
	for i := 1; i <= 20; i++ {
		x, y := rng.Float64()*500, rng.Float64()*500
		if err := cl.Join(core.ProcID(i), geom.R2(x, y, x+30, y+30)); err != nil {
			res.Err = err
			return res
		}
		if _, ok := cl.RunUntilStable(400); !ok {
			res.Err = fmt.Errorf("protocol cluster never stabilized during build")
			return res
		}
	}
	ids := cl.ProcIDs()
	_ = cl.CorruptParent(ids[3], 0, ids[5])
	_ = cl.CorruptMBR(ids[1], 0, geom.R2(0, 0, 1, 1))
	rounds, ok := cl.RunUntilStable(2000)
	if !ok {
		res.Err = fmt.Errorf("protocol cluster did not re-stabilize: %v", cl.CheckLegal())
	}
	ps := stats.Summarize(passes)
	fs := stats.Summarize(fixes)
	tb := stats.NewTable("metric", "mean", "p95", "max")
	tb.AddRow("sequential passes", ps.Mean, ps.P95, ps.Max)
	tb.AddRow("repairs applied", fs.Mean, fs.P95, fs.Max)
	tb.AddRow("protocol rounds (1 trial)", float64(rounds), float64(rounds), float64(rounds))
	res.Table = tb.String()
	res.Metrics["mean_passes"] = ps.Mean
	res.Metrics["proto_rounds"] = float64(rounds)
	return res
}

// RunE6 regenerates the TR's false-positive claim ("2-3% with most
// workloads"): FP rate of the DR-tree vs the three baselines across
// workload kinds. The DR-tree must report zero false negatives.
func RunE6(seed uint64, n, events int) Result {
	res := Result{
		ID:      "E6",
		Title:   fmt.Sprintf("false positives: DR-tree vs baselines (N=%d, %d events)", n, events),
		Metrics: map[string]float64{},
	}
	tb := stats.NewTable("workload", "system", "FP/delivery", "FP/(N*ev)", "FN", "msgs/event", "max fanout")
	world := workload.DefaultWorld()
	for _, kind := range []workload.SubscriptionKind{workload.Uniform, workload.Clustered, workload.Contained} {
		rng := rand.New(rand.NewPCG(seed, uint64(kind)))
		subs := workload.Subscriptions(rng, world, kind, n)
		evs := workload.Events(rng, world, workload.MatchingEvents, events, subs)

		// DR-tree.
		tr, err := core.New(core.Params{MinFanout: 2, MaxFanout: 4})
		if err != nil {
			res.Err = err
			return res
		}
		for i, s := range subs {
			if err := tr.Join(core.ProcID(i+1), s); err != nil {
				res.Err = err
				return res
			}
		}
		ids := tr.ProcIDs()
		var fp, deliveries, msgs, fn int
		for _, ev := range evs {
			d, err := tr.Publish(ids[rng.IntN(len(ids))], ev)
			if err != nil {
				res.Err = err
				return res
			}
			fp += len(d.FalsePositives)
			deliveries += len(d.Received)
			msgs += d.Messages
			got := map[core.ProcID]bool{}
			for _, id := range d.Received {
				got[id] = true
			}
			for _, id := range ids {
				f, _ := tr.Filter(id)
				if f.ContainsPoint(ev) && !got[id] {
					fn++
				}
			}
		}
		fpRate := float64(fp) / float64(max(deliveries, 1))
		perSub := float64(fp) / float64(n*events)
		tb.AddRow(kind.String(), "drtree", fpRate, perSub, fn, float64(msgs)/float64(events), tr.Params().MaxFanout)
		res.Metrics["fp_"+kind.String()] = perSub
		if fn != 0 {
			res.Err = fmt.Errorf("%s: DR-tree produced %d false negatives", kind, fn)
		}

		// Baselines.
		ct, err := baseline.NewContainmentTree(subs)
		if err != nil {
			res.Err = err
			return res
		}
		dt, err := baseline.NewDimensionTrees(subs)
		if err != nil {
			res.Err = err
			return res
		}
		for _, sys := range []baseline.System{ct, dt, baseline.NewFlooding(subs)} {
			var bfp, bdel, bmsg, bfn int
			for _, ev := range evs {
				rep := sys.Disseminate(ev)
				bfp += rep.FalsePositives
				bdel += len(rep.Received)
				bmsg += rep.Messages
				bfn += rep.FalseNegatives
			}
			tb.AddRow(kind.String(), sys.Name(), float64(bfp)/float64(max(bdel, 1)),
				float64(bfp)/float64(n*events), bfn,
				float64(bmsg)/float64(events), sys.MaxFanout())
		}
	}
	res.Table = tb.String()
	return res
}

// RunE7 regenerates Lemma 3.7: the analytic churn bound vs Monte-Carlo
// window simulation vs the live-overlay churn behaviour, across λ.
func RunE7(seed uint64, n int, lambdas []float64) Result {
	res := Result{
		ID:      "E7",
		Title:   fmt.Sprintf("Lemma 3.7: churn resistance (N=%d, Δ=1)", n),
		Metrics: map[string]float64{},
	}
	tb := stats.NewTable("λ", "Δλ/N", "analytic E[T]", "simulated E[T]", "overlay disconnects/10", "overlay legal")
	for _, lambda := range lambdas {
		m := churn.Model{N: n, Delta: 1, Lambda: lambda}
		analytic, err := m.ExpectedDisconnectTime()
		if err != nil {
			res.Err = err
			return res
		}
		rng := rand.New(rand.NewPCG(seed, uint64(lambda*100)))
		sim, err := m.SimulateWindows(rng, 200, 100000)
		if err != nil {
			res.Err = err
			return res
		}
		ov, err := m.SimulateOverlay(rng, 10)
		if err != nil {
			res.Err = err
			return res
		}
		if !ov.FinalLegal {
			res.Err = fmt.Errorf("lambda=%g: overlay not legal after churn", lambda)
		}
		tb.AddRow(lambda, lambda*1/float64(n), analytic, sim.MeanTime, ov.Disconnected, ov.FinalLegal)
		res.Metrics[fmt.Sprintf("simT_l%g", lambda)] = sim.MeanTime
	}
	res.Table = tb.String()
	return res
}

// RunE8 is the split-policy ablation (§3.2): coverage, overlap, FP rate
// and build cost under linear, quadratic, and R* splits — on both the
// centralized R-tree substrate and the DR-tree overlay.
func RunE8(seed uint64, n, events int) Result {
	res := Result{
		ID:      "E8",
		Title:   fmt.Sprintf("split-policy ablation (N=%d)", n),
		Metrics: map[string]float64{},
	}
	tb := stats.NewTable("policy", "overlay FP rate", "overlay coverage", "overlay overlap", "rtree coverage", "rtree overlap")
	world := workload.DefaultWorld()
	for _, pol := range split.All() {
		rng := rand.New(rand.NewPCG(seed, 7))
		subs := workload.Subscriptions(rng, world, workload.Uniform, n)
		evs := workload.Events(rng, world, workload.MatchingEvents, events, subs)

		tr, err := core.New(core.Params{MinFanout: 2, MaxFanout: 4, Split: pol})
		if err != nil {
			res.Err = err
			return res
		}
		rt := rtree.MustNew(2, 4, pol)
		for i, s := range subs {
			if err := tr.Join(core.ProcID(i+1), s); err != nil {
				res.Err = err
				return res
			}
			if err := rt.Insert(s, i); err != nil {
				res.Err = err
				return res
			}
		}
		ids := tr.ProcIDs()
		var fp, del int
		for _, ev := range evs {
			d, err := tr.Publish(ids[rng.IntN(len(ids))], ev)
			if err != nil {
				res.Err = err
				return res
			}
			fp += len(d.FalsePositives)
			del += len(d.Received)
		}
		ost := tr.ComputeStats()
		rst := rt.ComputeStats()
		fpRate := float64(fp) / float64(max(del, 1))
		tb.AddRow(pol.Name(), fpRate, ost.TotalCoverage, ost.TotalOverlap, rst.TotalCoverage, rst.TotalOverlap)
		res.Metrics["fp_"+pol.Name()] = fpRate
	}
	res.Table = tb.String()
	return res
}

// RunE9 is the root-election ablation (Figure 6): the paper's largest-MBR
// election vs random and first-child, with and without the cover rule.
func RunE9(seed uint64, n, events int) Result {
	res := Result{
		ID:      "E9",
		Title:   fmt.Sprintf("root-election ablation (N=%d)", n),
		Metrics: map[string]float64{},
	}
	tb := stats.NewTable("election", "cover rule", "FP rate", "weak violations", "height")
	world := workload.DefaultWorld()
	type variant struct {
		name     string
		election core.Election
		noCover  bool
	}
	rng := rand.New(rand.NewPCG(seed, 11))
	variants := []variant{
		{"largest-mbr", core.LargestMBR{}, false},
		{"random", core.RandomElection{Rand: rng}, false},
		{"random", core.RandomElection{Rand: rng}, true},
		{"first-child", core.FirstChild{}, true},
	}
	for _, v := range variants {
		wrng := rand.New(rand.NewPCG(seed, 13))
		subs := workload.Subscriptions(wrng, world, workload.Contained, n)
		evs := workload.Events(wrng, world, workload.MatchingEvents, events, subs)
		tr, err := core.New(core.Params{
			MinFanout: 2, MaxFanout: 4,
			Election: v.election, DisableCoverRule: v.noCover,
		})
		if err != nil {
			res.Err = err
			return res
		}
		for i, s := range subs {
			if err := tr.Join(core.ProcID(i+1), s); err != nil {
				res.Err = err
				return res
			}
		}
		ids := tr.ProcIDs()
		var fp, del int
		for _, ev := range evs {
			d, err := tr.Publish(ids[wrng.IntN(len(ids))], ev)
			if err != nil {
				res.Err = err
				return res
			}
			fp += len(d.FalsePositives)
			del += len(d.Received)
		}
		fpRate := float64(fp) / float64(max(del, 1))
		cover := "on"
		if v.noCover {
			cover = "off"
		}
		tb.AddRow(v.name, cover, fpRate, tr.CheckWeakContainment(), tr.Height())
		res.Metrics[fmt.Sprintf("fp_%s_cover_%s", v.name, cover)] = fpRate
	}
	res.Table = tb.String()
	return res
}

// RunE10 regenerates the dynamic reorganization experiment (§3.2): a
// hot-spot event workload with the false-positive-driven position
// exchange on vs off.
func RunE10(seed uint64, n, events int) Result {
	res := Result{
		ID:      "E10",
		Title:   fmt.Sprintf("FP-driven reorganization under hot-spot events (N=%d)", n),
		Metrics: map[string]float64{},
	}
	tb := stats.NewTable("reorg", "phase", "FP rate", "exchanges")
	world := workload.DefaultWorld()
	for _, reorg := range []bool{false, true} {
		rng := rand.New(rand.NewPCG(seed, 17))
		subs := workload.Subscriptions(rng, world, workload.Clustered, n)
		// Biased workload (§3.2): all events hit the region of a handful
		// of "hot" subscriptions, so a small false-positive region is hit
		// by many events.
		evs := workload.Events(rng, world, workload.MatchingEvents, events, subs[:3])
		tr, err := core.New(core.Params{MinFanout: 2, MaxFanout: 4, TrackReorgStats: reorg})
		if err != nil {
			res.Err = err
			return res
		}
		for i, s := range subs {
			if err := tr.Join(core.ProcID(i+1), s); err != nil {
				res.Err = err
				return res
			}
		}
		ids := tr.ProcIDs()
		phase := func(name string, evs []geom.Point) (float64, error) {
			var fp, del int
			for _, ev := range evs {
				d, err := tr.Publish(ids[rng.IntN(len(ids))], ev)
				if err != nil {
					return 0, err
				}
				fp += len(d.FalsePositives)
				del += len(d.Received)
			}
			return float64(fp) / float64(max(del, 1)), nil
		}
		warm, err := phase("warmup", evs[:events/2])
		if err != nil {
			res.Err = err
			return res
		}
		exchanges := 0
		if reorg {
			st := tr.CheckReorg()
			exchanges = st.Exchanges
			tr.Stabilize()
			if err := tr.CheckLegal(); err != nil {
				res.Err = fmt.Errorf("after reorg: %w", err)
				return res
			}
		}
		after, err := phase("after", evs[events/2:])
		if err != nil {
			res.Err = err
			return res
		}
		label := "off"
		if reorg {
			label = "on"
		}
		tb.AddRow(label, "warmup", warm, 0)
		tb.AddRow(label, "steady", after, exchanges)
		res.Metrics[fmt.Sprintf("fp_after_reorg_%s", label)] = after
	}
	res.Table = tb.String()
	return res
}

// RunAll executes every experiment with default parameters.
func RunAll(seed uint64) []Result {
	return []Result{
		RunE1(),
		RunE2(seed, []int{100, 400, 1600}),
		RunE3(seed, []int{100, 400, 1600}),
		RunE4(seed, []int{100, 400}),
		RunE5(seed, 60, 20),
		RunE6(seed, 150, 300),
		RunE7(seed, 30, []float64{5, 15, 30, 60}),
		RunE8(seed, 200, 300),
		RunE9(seed, 120, 300),
		RunE10(seed, 100, 400),
	}
}
