package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime/debug"
	"strconv"
	"sync"
	"testing"
	"time"

	"drtree/internal/core"
	"drtree/internal/engine"
	"drtree/internal/filter"
	"drtree/internal/geom"
	"drtree/internal/proto"
	"drtree/internal/pubsub"
	"drtree/internal/workload"
)

// newTree builds the sequential engine the suites measure on.
func newTree() (*core.Tree, error) {
	return core.New(core.Params{MinFanout: 2, MaxFanout: 4})
}

// arenaCounters records the sequential engine's instance-arena residency
// (slots allocated / live / on the free list): the gate then catches
// handle leaks (live drifting above the process count) and recycling
// regressions (free slots piling up where reuse is expected).
func arenaCounters(c map[string]float64, ar core.ArenaStats) {
	c["arena_cap"], c["arena_live"], c["arena_free"] = float64(ar.Cap), float64(ar.Live), float64(ar.Free)
}

// measureCore measures the core hot paths guarded by this repo's
// performance budget — a 1000-subscriber build-up (per-join cost),
// steady-state publishing on the resulting tree, and a seeded
// join/leave/crash churn cycle that exercises the arena free list. The
// first two workloads replicate BenchmarkJoin1000 and
// BenchmarkPublishN1000 in internal/core seed-for-seed (PCG(2,2) for the
// join build-up; benchTree's PCG(1,1000) build and continuing event
// stream for publish) so numbers are comparable with `go test -bench`.
func measureCore() ([]row, error) {
	// The recorded allocs/op must be exact across machines and binaries,
	// but testing.Benchmark counts the process-wide MemStats.Mallocs over
	// its window. GC pacing would drop and re-allocate pooled buffers at
	// times that shift with binary size and heap history, so GC is off
	// (the live heap is tens of MB per iteration). Each runtime thread
	// (M) started inside the window still adds three objects, its m, g0
	// and gsignal, whole on a row whose b.N is 1 or 2 (ChurnArena). Both
	// only add, so rec keeps the least count of three runs: a real
	// regression shows in all three.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	build := func(b *testing.B, s1, s2 uint64) (*core.Tree, *rand.Rand) {
		rng := rand.New(rand.NewPCG(s1, s2))
		tr, err := newTree()
		if err != nil {
			b.Fatal(err)
		}
		for k := 1; k <= 1000; k++ {
			x, y := rng.Float64()*1000, rng.Float64()*1000
			if err := tr.Join(core.ProcID(k), geom.R2(x, y, x+15, y+15)); err != nil {
				b.Fatal(err)
			}
		}
		return tr, rng
	}
	// Churn: half the population leaves or crashes and a new cohort joins,
	// so departures push handles onto the free list and the joins reclaim
	// them; the final residency fingerprints the release/reuse discipline.
	churn := func(b *testing.B) *core.Tree {
		tr, rng := build(b, 7, 7)
		for k := 1; k <= 500; k++ {
			id := core.ProcID(1 + rng.IntN(1000))
			if _, ok := tr.Filter(id); !ok {
				continue
			}
			var err error
			if k%2 == 0 {
				err = tr.Leave(id)
			} else {
				err = tr.Crash(id)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		tr.Stabilize()
		for k := 1001; k <= 1250; k++ {
			x, y := rng.Float64()*1000, rng.Float64()*1000
			if err := tr.Join(core.ProcID(k), geom.R2(x, y, x+15, y+15)); err != nil {
				b.Fatal(err)
			}
		}
		return tr
	}

	// rec benchmarks run three times, each run returning the tree whose
	// arena is recorded, and keeps the run with the fewest allocs/op.
	rec := func(name string, run func(b *testing.B) *core.Tree) row {
		var arena core.ArenaStats
		var res testing.BenchmarkResult
		for i := range 3 {
			var a core.ArenaStats
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				a = run(b).ArenaStats()
			})
			if i == 0 || r.AllocsPerOp() < res.AllocsPerOp() {
				res, arena = r, a
			}
		}
		r := row{
			Name:     name,
			Counters: map[string]float64{"allocs_per_op": float64(res.AllocsPerOp())},
			Info:     map[string]float64{"ns_per_op": float64(res.NsPerOp()), "bytes_per_op": float64(res.AllocedBytesPerOp())},
		}
		arenaCounters(r.Counters, arena)
		return r
	}
	return []row{
		rec("BenchmarkJoin1000", func(b *testing.B) (tr *core.Tree) {
			for i := 0; i < b.N; i++ {
				tr, _ = build(b, 2, 2)
			}
			return tr
		}),
		rec("BenchmarkPublishN1000", func(b *testing.B) *core.Tree {
			tr, rng := build(b, 1, 1000)
			ids := tr.ProcIDs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := geom.Point{rng.Float64() * 1000, rng.Float64() * 1000}
				if _, err := tr.Publish(ids[i%len(ids)], ev); err != nil {
					b.Fatal(err)
				}
			}
			return tr
		}),
		rec("BenchmarkChurnArena", func(b *testing.B) (tr *core.Tree) {
			for i := 0; i < b.N; i++ {
				tr = churn(b)
			}
			return tr
		}),
	}, nil
}

// measureProto measures the message-passing engine's dissemination
// costs at two populations: the overlay is built and stabilized once,
// then a fixed seeded event stream is published and the per-publish
// latency (in network rounds) and message counts are averaged. The round
// scheduler and the PCG seeds pin every delivery, so the rows double as
// a regression baseline for protocol chattiness.
func measureProto() ([]row, error) {
	var rows []row
	for _, n := range []int{100, 400} {
		const events = 200
		cl, err := proto.NewCluster(proto.Config{MinFanout: 2, MaxFanout: 4})
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewPCG(uint64(n), 0xBE7C))
		for i := 1; i <= n; i++ {
			x, y := rng.Float64()*1000, rng.Float64()*1000
			if err := cl.Join(core.ProcID(i), geom.R2(x, y, x+15, y+15)); err != nil {
				return nil, err
			}
			cl.Step(false)
		}
		if st := cl.Stabilize(); !st.Converged {
			return nil, fmt.Errorf("population %d did not stabilize: %v", n, cl.CheckLegal())
		}
		ids := cl.ProcIDs()
		var rounds, msgs int
		for k := 0; k < events; k++ {
			ev := geom.Point{rng.Float64() * 1000, rng.Float64() * 1000}
			d, err := cl.Publish(ids[k%len(ids)], ev)
			if err != nil {
				return nil, err
			}
			rounds += d.Rounds
			msgs += d.Messages
		}
		rows = append(rows, row{
			Name:   fmt.Sprintf("ProtoPublish%d", n),
			Labels: map[string]string{"population": strconv.Itoa(n), "events": strconv.Itoa(events)},
			Counters: map[string]float64{
				"rounds_per_publish": float64(rounds) / events,
				"msgs_per_publish":   float64(msgs) / events,
				"msgs_per_round":     float64(msgs) / float64(max(rounds, 1)),
			},
		})
	}
	return rows, nil
}

// batchSizes are the broker pipeline's measured batch sizes. Powers of
// two keep the per-event divisions exact in float64, so the baseline
// survives a JSON round trip bit-for-bit.
var batchSizes = []int{1, 16, 256}

// scaleSizes are the subscriber populations of the gateway-scale sweep:
// the per-event classification cost at the top size must stay within 2x
// of the bottom size — the sublinear-scan contract of the adaptive
// gateway tier (asserted on the committed baseline by the tests, pinned
// exactly by the gate).
var scaleSizes = []int{1_000, 10_000, 100_000, 1_000_000}

func scaleRowName(n int) string { return fmt.Sprintf("BrokerScale/n%d", n) }

// scaleGateways is the fixed pool size of the batch-size rows (the
// adaptive rows size their own pool via scalePolicy).
const scaleGateways = 16

// scalePolicy is the adaptive pool of the scale sweep and the scenario
// rows: split gateways past ~2048 subscribers, never below 4 or above
// 4096 processes. The per-gateway match indexes then stay bounded; what
// the rows certify is that the routing tree keeps the number of indexes
// *visited* per event from growing with the pool.
func scalePolicy() pubsub.Option { return pubsub.WithGatewayPolicy(2048, 4, 4096) }

// brokerWorkload builds a broker over eng with n seeded rectangle
// subscribers on the given gateway pool (a WithGateways or
// WithGatewayPolicy option) and returns it with a fixed 256-event
// stream. The subscription side length shrinks as 1/sqrt(n) so the
// expected matching population per event is constant across n — the
// sweep then isolates the *scan* cost from the (necessarily linear)
// output size.
func brokerWorkload(eng engine.Engine, n int, pool pubsub.Option) (*pubsub.Broker, []filter.Event, error) {
	b, err := pubsub.New(filter.MustSpace("x", "y"), eng, pool)
	if err != nil {
		return nil, nil, err
	}
	side := 15 * math.Sqrt(1000/float64(n))
	rng := rand.New(rand.NewPCG(uint64(n), 0xB20CE2))
	for i := 1; i <= n; i++ {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		f := filter.Range("x", x, x+side).And(filter.Range("y", y, y+side))
		if err := b.Subscribe(core.ProcID(i), f); err != nil {
			return nil, nil, err
		}
	}
	evs := make([]filter.Event, 256)
	for k := range evs {
		evs[k] = filter.Event{"x": rng.Float64() * 1000, "y": rng.Float64() * 1000}
	}
	return b, evs, nil
}

// brokerRow starts a broker-suite row from the notifications of a batch
// published through b, with the counters every broker row carries:
// msgs/event, the R-tree nodes visited to classify one event (routing
// tree plus every match index probed — the cost that replaced the global
// subscriber scan), the match indexes the routing tree could not prune,
// the pool size (the adaptive policy grows it from the seeded
// subscription stream alone, so a drift means sizing changed), and the
// O(entries) union recomputations the incremental re-union could not
// avoid over the row's whole workload.
func brokerRow(name, eng string, population int, b *pubsub.Broker, notes []pubsub.Notification) row {
	var msgs, visited, gwVisited int
	for _, n := range notes {
		msgs += n.Messages
		visited += n.ScanVisited
		gwVisited += n.GatewayVisited
	}
	var reunions uint64
	for _, st := range b.GatewayStats() {
		reunions += st.FullReunions
	}
	size := float64(len(notes))
	return row{
		Name:   name,
		Labels: map[string]string{"engine": eng, "population": strconv.Itoa(population), "batch": strconv.Itoa(len(notes))},
		Counters: map[string]float64{
			"msgs_per_event":            float64(msgs) / size,
			"scan_visited_per_event":    float64(visited) / size,
			"gateway_visited_per_event": float64(gwVisited) / size,
			"gateways":                  float64(b.Gateways()),
			"full_reunions":             float64(reunions),
		},
		Info: map[string]float64{},
	}
}

// coreBrokerRow measures one batch through a broker that build sets up
// over a fresh sequential engine: one PublishBatch pins the deterministic
// counters, testing.Benchmark (one op = one PublishBatch of the batch)
// adds allocs/event and wall-clock per event, the arena closes the row.
func coreBrokerRow(name string, population int, build func(*core.Tree) (*pubsub.Broker, []filter.Event, error)) (row, error) {
	tree, err := newTree()
	if err != nil {
		return row{}, err
	}
	b, evs, err := build(tree)
	if err != nil {
		return row{}, err
	}
	notes, err := b.PublishBatch(1, evs)
	if err != nil {
		return row{}, err
	}
	r := brokerRow(name, "core", population, b, notes)
	res := testing.Benchmark(func(bb *testing.B) {
		bb.ReportAllocs()
		for i := 0; i < bb.N; i++ {
			if _, err := b.PublishBatch(1, evs); err != nil {
				bb.Fatal(err)
			}
		}
	})
	size := float64(len(evs))
	r.Counters["allocs_per_event"] = float64(res.AllocsPerOp()) / size
	r.Info["ns_per_event"] = float64(res.NsPerOp()) / size
	arenaCounters(r.Counters, tree.ArenaStats())
	return r, nil
}

// measureBroker measures the batched publish pipeline end to end through
// the gateway Broker; scale lists the populations of the subscriber-scale
// sweep. Every seed is pinned, so every counter is exact.
func measureBroker(scale []int) ([]row, error) {
	var rows []row
	// coreRow measures the first size events of brokerWorkload(n, pool).
	coreRow := func(name string, n, size int, pool pubsub.Option) error {
		r, err := coreBrokerRow(name, n, func(tree *core.Tree) (*pubsub.Broker, []filter.Event, error) {
			b, evs, err := brokerWorkload(tree, n, pool)
			return b, evs[:min(size, len(evs))], err
		})
		rows = append(rows, r)
		return err
	}

	// Batch sizes over the sequential engine, 1000 subscribers on a fixed
	// pool: wall-clock and allocation cost per event as the batch grows.
	for _, size := range batchSizes {
		if err := coreRow(fmt.Sprintf("BrokerBatchCore/b%d", size), 1000, size, pubsub.WithGateways(scaleGateways)); err != nil {
			return nil, err
		}
	}

	// Batch sizes over the deterministic wire engine, 100 subscribers: one
	// measured batch pins msgs/event and rounds/batch (the shared round
	// budget is what makes a proto batch cheaper than sequential
	// publishes); wall time is one sample.
	const protoN = 100
	cl, err := proto.NewCluster(proto.Config{MinFanout: 2, MaxFanout: 4})
	if err != nil {
		return nil, err
	}
	bp, evs, err := brokerWorkload(cl, protoN, pubsub.WithGateways(scaleGateways))
	if err != nil {
		return nil, err
	}
	if st := bp.Repair(); !st.Converged {
		return nil, fmt.Errorf("broker wire overlay did not stabilize")
	}
	for _, size := range batchSizes {
		start := time.Now()
		notes, err := bp.PublishBatch(1, evs[:size])
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		r := brokerRow(fmt.Sprintf("BrokerBatchProto/b%d", size), "proto", protoN, bp, notes)
		r.Counters["rounds_per_batch"] = float64(notes[0].Rounds)
		r.Info["ns_per_event"] = float64(elapsed.Nanoseconds()) / float64(size)
		rows = append(rows, r)
	}

	// Subscriber-scale sweep on the adaptive pool (batch 16 keeps the
	// divisions float-exact).
	for _, n := range scale {
		if err := coreRow(scaleRowName(n), n, 16, scalePolicy()); err != nil {
			return nil, err
		}
	}

	// Scenario rows: 100k subscribers from the internal/workload generators
	// on the adaptive pool; prepare churns them and returns the batch.
	const scenN, scenBatch = 100_000, 16
	w := workload.DefaultWorld()
	rectFilter := func(r geom.Rect) filter.Filter {
		return filter.Range("x", r.Lo(0), r.Hi(0)).And(filter.Range("y", r.Lo(1), r.Hi(1)))
	}
	scenario := func(name string, prepare func(*pubsub.Broker, []geom.Rect, *rand.Rand) ([]geom.Point, error)) error {
		r, err := coreBrokerRow(name, scenN, func(tree *core.Tree) (*pubsub.Broker, []filter.Event, error) {
			b, err := pubsub.New(filter.MustSpace("x", "y"), tree, scalePolicy())
			if err != nil {
				return nil, nil, err
			}
			rng := rand.New(rand.NewPCG(scenN, 0xD21F70))
			rects := workload.Subscriptions(rng, w, workload.Uniform, scenN)
			for i, r := range rects {
				if err := b.Subscribe(core.ProcID(i+1), rectFilter(r)); err != nil {
					return nil, nil, err
				}
			}
			pts, err := prepare(b, rects, rng)
			evs := make([]filter.Event, len(pts))
			for i, p := range pts {
				evs[i] = filter.Event{"x": p[0], "y": p[1]}
			}
			return b, evs, err
		})
		rows = append(rows, r)
		return err
	}
	// Drift: every interest rectangle random-walks three ticks (σ = 1% of
	// the world per axis) with an UpdateFilter per move — the
	// continuous-motion regime the incremental re-union exists for. Its
	// full_reunions pins how many O(entries) union recomputations the
	// boundary-attainment counts could not avoid (moves that leave a
	// gateway's union boundary, mostly from world-edge clamping); a rise
	// means the shrink path degraded back toward recompute-per-update.
	err = scenario("BrokerDrift/n100000", func(b *pubsub.Broker, rects []geom.Rect, rng *rand.Rand) ([]geom.Point, error) {
		for tick := 0; tick < 3; tick++ {
			rects = workload.DriftRects(rng, w, rects, 0.01)
			for i, r := range rects {
				if err := b.UpdateFilter(core.ProcID(i+1), rectFilter(r)); err != nil {
					return nil, err
				}
			}
		}
		return workload.Events(rng, w, workload.UniformEvents, scenBatch, nil), nil
	})
	if err != nil {
		return nil, err
	}
	// Zipf: the measured batch lands on hotspot points (16x16 cells,
	// s=1.5), so the load piles onto the few gateways owning the hot
	// cells — the skewed-popularity regime's classification cost.
	err = scenario("BrokerZipf/n100000", func(_ *pubsub.Broker, _ []geom.Rect, rng *rand.Rand) ([]geom.Point, error) {
		return workload.ZipfEvents(rng, w, scenBatch, 16, 1.5), nil
	})
	if err != nil {
		return nil, err
	}

	del, err := measureBrokerDelivery()
	return append(rows, del), err
}

// measureBrokerDelivery runs the frozen-consumer delivery scenario: four
// whole-domain subscribers on a 4-gateway pool, three draining instantly
// and one frozen inside its handler behind a 32-slot drop-oldest queue.
// One event is published and trapped in the frozen handler, then the
// remaining 255 are published while the consumer stays stuck — the
// publisher must never block, the fast consumers must receive all 256
// events each, and the frozen queue must keep exactly its newest 32.
// Every total is deterministic: delivered = 3*256 + (1 trapped + 32
// queued) = 801, dropped = 255 - 32 = 223; a drift means the bounded
// queues changed what they keep and shed. allocs/event is not recorded:
// the concurrent drainers make it nondeterministic.
func measureBrokerDelivery() (row, error) {
	const events, gws, frozenCap, fast = 256, 4, 32, 3
	tree, err := newTree()
	if err != nil {
		return row{}, err
	}
	b, err := pubsub.New(filter.MustSpace("x", "y"), tree, pubsub.WithGateways(gws))
	if err != nil {
		return row{}, err
	}
	defer b.Close()
	all := filter.Range("x", 0, 1000).And(filter.Range("y", 0, 1000))
	for id := 1; id <= fast; id++ {
		err := b.SubscribeFunc(core.ProcID(id), all, func(pubsub.Envelope) error { return nil }, pubsub.WithQueueDepth(events))
		if err != nil {
			return row{}, err
		}
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	err = b.SubscribeFunc(fast+1, all, func(pubsub.Envelope) error {
		once.Do(func() { close(entered) })
		<-release
		return nil
	}, pubsub.WithQueueDepth(frozenCap))
	if err != nil {
		return row{}, err
	}
	rng := rand.New(rand.NewPCG(events, 0xF2023E))
	evs := make([]filter.Event, events)
	for k := range evs {
		evs[k] = filter.Event{"x": rng.Float64() * 1000, "y": rng.Float64() * 1000}
	}

	// Trap the frozen consumer inside its handler with the first event,
	// so its queue depth is pinned before the flood arrives.
	start := time.Now()
	notes, err := b.PublishBatch(1, evs[:1])
	if err != nil {
		return row{}, err
	}
	select {
	case <-entered:
	case <-time.After(30 * time.Second):
		return row{}, fmt.Errorf("broker delivery scenario: frozen handler never entered")
	}
	flood, err := b.PublishBatch(1, evs[1:])
	if err != nil {
		return row{}, err
	}
	// Thaw the consumer; it finishes the trapped event plus the newest
	// frozenCap survivors of the flood, and the fast consumers drain.
	close(release)
	var delivered, dropped uint64
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		delivered, dropped = 0, 0
		for _, st := range b.DeliveryStats() {
			delivered += st.Delivered
			dropped += st.Dropped
		}
		if delivered == fast*events+1+frozenCap {
			break
		}
		if time.Now().After(deadline) {
			return row{}, fmt.Errorf("broker delivery scenario: %d events delivered and %d dropped after 30s", delivered, dropped)
		}
	}
	r := brokerRow("BrokerDeliveryFrozen", "core", fast+1, b, append(notes, flood...))
	arenaCounters(r.Counters, tree.ArenaStats())
	r.Counters["delivered_events"], r.Counters["dropped_events"] = float64(delivered), float64(dropped)
	r.Info["ns_per_event"] = float64(time.Since(start).Nanoseconds()) / events
	return r, nil
}
