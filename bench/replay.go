package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"drtree/internal/core"
	"drtree/internal/eventbus"
	"drtree/internal/filter"
	"drtree/internal/geom"
	"drtree/internal/proto"
	"drtree/internal/pubsub"
	"drtree/internal/rtree"
	"drtree/internal/simnet"
	"drtree/internal/split"
	"drtree/internal/state"
	"drtree/internal/transport"
	"drtree/internal/wire"
)

// The layer replay is the "from outside" half of the ledger: each layer
// is built through its public constructor, in this process, and timed
// on the workload's own rectangles and events. Nothing under internal/
// carries a hook for it. The numbers are per-call costs on an otherwise
// idle process, so they bound what a layer can contribute to the
// end-to-end figures; they do not include waiting.

// Sizes of the replayed samples: enough calls for a stable mean, few
// enough that the whole replay stays within a few seconds.
const (
	replayEvents   = 4000
	replaySubs     = 5000 // cap on the population share a replay loads
	replayDurable  = 1000 // cap where every subscribe pays an fsync
	daemonGateways = 4    // drtreed's -gateways default
)

// replayer carries what every layer replay needs.
type replayer struct {
	b      *bench
	res    *result
	spans  *[]span
	space  *filter.Space
	share  []int        // population indexes living on daemon 0
	events []event      // the open-loop phase's first events
	points []geom.Point // the same, as overlay points
	fevs   []filter.Event
}

func newReplayer(b *bench, spans *[]span) (*replayer, error) {
	space, err := filter.NewSpace("x", "y")
	if err != nil {
		return nil, err
	}
	rp := &replayer{b: b, res: b.res, spans: spans, space: space}
	for k := range b.in.subs {
		if b.subDaemon(k) == 0 && len(rp.share) < replaySubs {
			rp.share = append(rp.share, k)
		}
	}
	op := b.tot.lat.ph
	rp.events = b.in.events[op.lo:min(op.hi, op.lo+replayEvents)]
	for _, e := range rp.events {
		rp.points = append(rp.points, geom.Point{e.x, e.y})
		rp.fevs = append(rp.fevs, filter.Event{"x": e.x, "y": e.y})
	}
	return rp, nil
}

// timed runs fn, records it as one span, and returns its duration.
func (rp *replayer) timed(name string, calls int, fn func()) time.Duration {
	start := rp.b.rec.now()
	fn()
	end := rp.b.rec.now()
	*rp.spans = append(*rp.spans, span{Name: "replay." + name, Start: start, End: end,
		Attrs: map[string]any{"calls": calls}})
	return time.Duration(end - start)
}

// perCall times fn over n calls and reports the mean in ns.
func (rp *replayer) perCall(metricName string, n int, fn func()) {
	if n == 0 {
		return
	}
	d := rp.timed(metricName, n, fn)
	rp.res.set(metricName, float64(d)/float64(n), "ns")
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func (rp *replayer) filterOf(k int) (filter.Filter, error) {
	return filter.Parse(rp.b.in.subs[k].expr())
}

// all runs every layer's replay. A layer that fails is reported and the
// rest still run: the ledger is worth having with a hole in it.
func (rp *replayer) all() {
	for _, l := range []struct {
		name string
		fn   func() error
	}{
		{"wire", rp.wire}, {"filter", rp.filter}, {"rtree", rp.rtree},
		{"pubsub", rp.pubsub}, {"core", rp.core}, {"proto", rp.proto},
		{"eventbus", rp.eventbus}, {"state", rp.state}, {"transport", rp.transport},
	} {
		if err := l.fn(); err != nil {
			rp.res.notef("replay %s: %v", l.name, err)
		}
	}
}

func (rp *replayer) wire() error {
	n := len(rp.events)
	pubs := make([]simnet.Message, n)
	notes := make([]simnet.Message, n)
	for i, e := range rp.events {
		pubs[i] = simnet.Message{Payload: wire.Publish{Ref: uint64(i), Producer: producerID,
			Attrs: xyAttrs, Values: []float64{e.x, e.y}}}
		notes[i] = simnet.Message{Payload: wire.Notify{Subscriber: int64(i + 1), Seq: uint64(i + 1),
			Attrs: xyAttrs, Values: []float64{e.x, e.y}}}
	}
	// codec times one kind's frames through WriteMessage and back
	// through a StreamReader, and returns the encoded size.
	codec := func(kind string, msgs []simnet.Message) (int, error) {
		var buf bytes.Buffer
		var err error
		rp.perCall("wire."+kind+"_encode_ns", n, func() {
			for _, m := range msgs {
				if e := wire.WriteMessage(&buf, m); e != nil {
					err = e
				}
			}
		})
		if err != nil {
			return 0, err
		}
		size := buf.Len()
		sr := wire.NewStreamReader(&buf)
		rp.perCall("wire."+kind+"_decode_ns", n, func() {
			for range msgs {
				if _, e := sr.ReadMessage(); e != nil {
					err = e
				}
			}
		})
		return size, err
	}
	if _, err := codec("publish", pubs); err != nil {
		return err
	}
	before := mallocs()
	size, err := codec("notify", notes)
	if err != nil {
		return err
	}
	rp.res.set("wire.allocs_per_frame", float64(mallocs()-before)/float64(n), "count")
	rp.res.set("wire.notify_bytes", float64(size)/float64(n), "bytes")
	return nil
}

func (rp *replayer) filter() error {
	exprs := make([]string, len(rp.share))
	for i, k := range rp.share {
		exprs[i] = rp.b.in.subs[k].expr()
	}
	var err error
	rp.perCall("filter.parse_compile_ns", len(exprs), func() {
		for _, x := range exprs {
			f, e := filter.Parse(x)
			if e == nil {
				_, e = rp.space.Rect(f)
			}
			if e != nil {
				err = e
			}
		}
	})
	rp.perCall("filter.point_ns", len(rp.fevs), func() {
		for _, ev := range rp.fevs {
			if _, e := rp.space.Point(ev); e != nil {
				err = e
			}
		}
	})
	return err
}

// gatewayOf mirrors the daemon's fixed pool: subscriber ID mod pool size.
func gatewayOf(k int) int { return (k + 1) % daemonGateways }

func (rp *replayer) rectOf(k int) (geom.Rect, error) {
	r := rp.b.in.subs[k]
	return geom.NewRect([]float64{r.x0, r.y0}, []float64{r.x1, r.y1})
}

func (rp *replayer) rtree() error {
	// One gateway's share: the rectangles one match index of daemon 0
	// holds, in the index shape pubsub builds (8/32, R*).
	var rects []geom.Rect
	for _, k := range rp.share {
		if gatewayOf(k) == gatewayOf(rp.share[0]) {
			r, err := rp.rectOf(k)
			if err != nil {
				return err
			}
			rects = append(rects, r)
		}
	}
	t := rtree.MustNew(8, 32, split.RStar{})
	var err error
	rp.perCall("rtree.insert_ns", len(rects), func() {
		for i, r := range rects {
			if e := t.Insert(r, i); e != nil {
				err = e
			}
		}
	})
	var visited, matched int
	rp.perCall("rtree.query_ns", len(rp.points), func() {
		for _, p := range rp.points {
			m, v := t.VisitCount(p)
			visited += v
			matched += len(m)
		}
	})
	n := float64(len(rp.points))
	rp.res.set("rtree.visited_per_query", float64(visited)/n, "count")
	rp.res.set("rtree.matches_per_query", float64(matched)/n, "count")
	return err
}

// newBroker is a broker shaped like a daemon's: sequential engine,
// fanout 2/4, four gateways.
func (rp *replayer) newBroker(opts ...pubsub.Option) (*pubsub.Broker, error) {
	tree, err := core.New(core.Params{MinFanout: 2, MaxFanout: 4})
	if err != nil {
		return nil, err
	}
	return pubsub.New(rp.space, tree, append([]pubsub.Option{pubsub.WithGateways(daemonGateways)}, opts...)...)
}

func (rp *replayer) pubsub() error {
	br, err := rp.newBroker()
	if err != nil {
		return err
	}
	defer br.Close()
	filters := make([]filter.Filter, len(rp.share))
	for i, k := range rp.share {
		if filters[i], err = rp.filterOf(k); err != nil {
			return err
		}
	}
	discard := func(pubsub.Envelope) error { return nil }
	rp.perCall("pubsub.subscribe_ns", len(filters), func() {
		for i, k := range rp.share {
			if e := br.SubscribeFunc(core.ProcID(k+1), filters[i], discard); e != nil {
				err = e
			}
		}
	})
	if err != nil {
		return err
	}
	// How much of the world the population alone makes each gateway
	// answer for, taken before the producer (parked far outside the
	// world) stretches its gateway's union.
	var cover float64
	var procs []core.ProcID
	for _, g := range br.GatewayStats() {
		if g.Joined {
			procs = append(procs, g.ProcID)
			cover += g.Filter.Area() / (world * world)
		}
	}
	if len(procs) > 0 {
		rp.res.set("pubsub.union_cover", cover/float64(len(procs)), "ratio")
	}
	producer := core.ProcID(producerID)
	pf, _ := filter.Parse(producerExpr)
	if err := br.Subscribe(producer, pf); err != nil {
		return err
	}

	var scan, gws int
	before := mallocs()
	rp.perCall("pubsub.publish_b1_ns_per_event", len(rp.fevs), func() {
		for _, ev := range rp.fevs {
			note, e := br.Publish(producer, ev)
			if e != nil {
				err = e
			}
			scan += note.ScanVisited
			gws += note.GatewayVisited
		}
	})
	n := float64(len(rp.fevs))
	rp.res.set("pubsub.allocs_per_event", float64(mallocs()-before)/n, "count")
	rp.res.set("pubsub.scan_visited_per_event", float64(scan)/n, "count")
	rp.res.set("pubsub.gateway_visited_per_event", float64(gws)/n, "count")
	rp.perCall("pubsub.publish_b64_ns_per_event", len(rp.fevs), func() {
		for lo := 0; lo < len(rp.fevs); lo += 64 {
			if _, e := br.PublishBatch(producer, rp.fevs[lo:min(lo+64, len(rp.fevs))]); e != nil {
				err = e
			}
		}
	})

	// NotifyGateway is what a daemon runs when an overlay receipt lands
	// on one of its gateways: probe that gateway's index, enqueue.
	if len(procs) > 0 {
		matched := 0
		calls := len(rp.fevs) * len(procs)
		rp.perCall("pubsub.notify_gateway_ns", calls, func() {
			for _, ev := range rp.fevs {
				for _, p := range procs {
					matched += br.NotifyGateway(p, ev)
				}
			}
		})
		rp.res.set("pubsub.matched_per_notify", float64(matched)/float64(calls), "count")
	}

	m := min(len(rp.share), 500)
	rp.perCall("pubsub.unsubscribe_ns", m, func() {
		for _, k := range rp.share[:m] {
			if e := br.Unsubscribe(core.ProcID(k + 1)); e != nil {
				err = e
			}
		}
	})
	return err
}

// overlayFilters are the filters the workload's overlay carries: the
// anchor's point at the origin and the MBR-union of every gateway of
// every daemon.
func (rp *replayer) overlayFilters() ([]geom.Rect, error) {
	origin, err := geom.NewRect([]float64{0, 0}, []float64{0, 0})
	if err != nil {
		return nil, err
	}
	unions := make([]geom.Rect, rp.b.spec.Daemons*daemonGateways)
	for k := range rp.b.in.subs {
		r, err := rp.rectOf(k)
		if err != nil {
			return nil, err
		}
		g := rp.b.subDaemon(k)*daemonGateways + gatewayOf(k)
		if unions[g].IsEmpty() {
			unions[g] = r
		} else {
			unions[g] = unions[g].Union(r)
		}
	}
	out := []geom.Rect{origin}
	for _, u := range unions {
		if !u.IsEmpty() {
			out = append(out, u)
		}
	}
	return out, nil
}

func (rp *replayer) core() error {
	filters, err := rp.overlayFilters()
	if err != nil {
		return err
	}
	tree, err := core.New(core.Params{MinFanout: 2, MaxFanout: 4})
	if err != nil {
		return err
	}
	for i, f := range filters {
		if err := tree.Join(core.ProcID(i+1), f); err != nil {
			return err
		}
	}
	msgs := 0
	rp.perCall("core.publish_ns_per_event", len(rp.points), func() {
		for _, p := range rp.points {
			d, e := tree.Publish(2, p)
			if e != nil {
				err = e
			}
			msgs += d.Messages
		}
	})
	rp.res.set("core.msgs_per_event", float64(msgs)/float64(len(rp.points)), "count")
	return err
}

func (rp *replayer) proto() error {
	filters, err := rp.overlayFilters()
	if err != nil {
		return err
	}
	lc, err := proto.NewLiveCluster(proto.Config{MinFanout: 2, MaxFanout: 4})
	if err != nil {
		return err
	}
	defer lc.Close()
	var mu sync.Mutex
	lastHook := map[int64]int64{}
	lc.SetEventHook(func(_ core.ProcID, id int64, _ geom.Point, _ bool) {
		at := rp.b.rec.now()
		mu.Lock()
		lastHook[id] = at
		mu.Unlock()
	})
	for i, f := range filters {
		if err := lc.Join(core.ProcID(i+1), f); err != nil {
			return err
		}
	}
	if err := lc.AwaitLegal(5 * time.Second); err != nil {
		return err
	}
	// Event IDs count up from 1 in injection order.
	n := min(len(rp.points), 400)
	injected := make([]int64, n+1)
	rp.timed("proto.inject_to_hook", n, func() {
		for i := 1; i <= n; i++ {
			injected[i] = rp.b.rec.now()
			if e := lc.InjectEvent(2, rp.points[i-1]); e != nil {
				err = e
			}
			time.Sleep(500 * time.Microsecond)
		}
		time.Sleep(50 * time.Millisecond)
	})
	if err != nil {
		return err
	}
	mu.Lock()
	defer mu.Unlock()
	var lat []int64
	for i := 1; i <= n; i++ {
		if at, ok := lastHook[int64(i)]; ok {
			lat = append(lat, at-injected[i])
		}
	}
	slices.Sort(lat)
	rp.res.set("proto.inject_to_hook_p50_us", pct(lat, 50)/1e3, "us")
	rp.res.Samples["proto.inject_to_hook_p50_us"] = len(lat)
	return nil
}

func (rp *replayer) eventbus() error {
	const capacity = pubsub.DefaultQueueDepth
	q, err := eventbus.New(eventbus.Config[int64]{Capacity: capacity})
	if err != nil {
		return err
	}
	got := make(chan int64, 1)
	q.Run(func(sent int64, _ int) error {
		got <- rp.b.rec.now() - sent
		return nil
	})
	// Hand-off: one message at a time, so every Enqueue finds the
	// drainer parked and pays the full wake-up.
	const n = 2000
	lat := make([]int64, 0, n)
	var enq time.Duration
	rp.timed("eventbus.handoff", n, func() {
		for i := 0; i < n; i++ {
			t0 := rp.b.rec.now()
			if e := q.Enqueue(t0); e != nil {
				err = e
				return
			}
			enq += time.Duration(rp.b.rec.now() - t0)
			lat = append(lat, <-got)
		}
	})
	q.Close()
	if err != nil {
		return err
	}
	slices.Sort(lat)
	rp.res.set("eventbus.enqueue_ns", float64(enq)/n, "ns")
	rp.res.set("eventbus.handoff_p50_us", pct(lat, 50)/1e3, "us")

	// Overflow: a burst of twice the capacity into a handler that never
	// returns. The drop count is exact, not timed.
	stalled, err := eventbus.New(eventbus.Config[int64]{Capacity: capacity})
	if err != nil {
		return err
	}
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	stalled.Run(func(int64, int) error {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
		return nil
	})
	stalled.Enqueue(0)
	<-entered
	for i := 0; i < 2*capacity; i++ {
		stalled.Enqueue(int64(i))
	}
	rp.res.set("eventbus.dropped_at_2x", float64(stalled.Stats().Dropped), "count")
	close(release)
	stalled.Close()
	return nil
}

func dirSize(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			n += info.Size()
		}
		return nil
	})
	return n
}

func (rp *replayer) state() error {
	dir, err := os.MkdirTemp(outDir, "replay-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Raw appends of a subscription-sized record.
	raw, err := state.OpenWAL(filepath.Join(dir, "raw"))
	if err != nil {
		return err
	}
	rec := bytes.Repeat([]byte{0xa5}, 64)
	const n = 300
	lat := make([]int64, 0, n)
	rp.timed("state.append", n, func() {
		for i := 0; i < n; i++ {
			t0 := rp.b.rec.now()
			if e := raw.Append(rec); e != nil {
				err = e
			}
			lat = append(lat, rp.b.rec.now()-t0)
		}
	})
	slices.Sort(lat)
	rp.res.set("state.append_p50_us", pct(lat, 50)/1e3, "us")
	rp.res.set("state.append_p99_us", pct(lat, 99)/1e3, "us")
	workers := runtime.NumCPU()
	const each = 200
	d := rp.timed("state.group_commit", workers*each, func() {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < each; i++ {
					if e := raw.Append(rec); e != nil {
						err = e // any one error is enough to report
					}
				}
			}()
		}
		wg.Wait()
	})
	rp.res.set("state.group_commit_appends_s", float64(workers*each)/d.Seconds(), "1/s")
	raw.Close()
	if err != nil {
		return err
	}

	// A durable broker holding (part of) the daemon-0 share: journal
	// size, checkpoint, recovery.
	subs := rp.share[:min(len(rp.share), replayDurable)]
	brokerDir := filepath.Join(dir, "broker")
	wal, err := state.OpenWAL(brokerDir)
	if err != nil {
		return err
	}
	br, err := rp.newBroker(pubsub.WithStore(wal), pubsub.WithSnapshotEvery(1<<30))
	if err != nil {
		wal.Close()
		return err
	}
	for _, k := range subs {
		f, e := rp.filterOf(k)
		if e == nil {
			e = br.Subscribe(core.ProcID(k+1), f)
		}
		if e != nil {
			br.Close()
			wal.Close()
			return e
		}
	}
	rp.res.set("state.wal_bytes_per_sub", float64(dirSize(brokerDir))/float64(len(subs)), "bytes")
	d = rp.timed("state.snapshot", 1, func() { err = br.Checkpoint() })
	rp.res.set("state.snapshot_ms", float64(d)/1e6, "ms")
	br.Close()
	wal.Close()
	if err != nil {
		return err
	}

	wal, err = state.OpenWAL(brokerDir)
	if err != nil {
		return err
	}
	defer wal.Close()
	br, err = rp.newBroker(pubsub.WithStore(wal))
	if err != nil {
		return err
	}
	defer br.Close()
	var rs pubsub.RecoverStats
	d = rp.timed("state.recover", 1, func() { rs, err = br.Recover() })
	if err != nil {
		return err
	}
	if rs.Subscribers != len(subs) {
		return fmt.Errorf("recovered %d subscribers, journaled %d", rs.Subscribers, len(subs))
	}
	rp.res.set("state.recover_ms", float64(d)/1e6, "ms")
	return nil
}

func (rp *replayer) transport() error {
	lns := make([]net.Listener, 2)
	peers := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		lns[i] = ln
		peers[i] = ln.Addr().String()
	}
	var delivered atomic.Int64
	arrived := make(chan struct{}, 1)
	owner := func(p core.ProcID) int { return int(p) }
	tps := make([]*transport.TCP, 2)
	for i := range tps {
		deliver := func(simnet.Message) {}
		if i == 1 {
			deliver = func(simnet.Message) {
				delivered.Add(1)
				select {
				case arrived <- struct{}{}:
				default:
				}
			}
		}
		tp, err := transport.New(transport.Config{Self: i, Peers: peers, Listener: lns[i], Deliver: deliver, Owner: owner})
		if err != nil {
			return err
		}
		defer tp.Close()
		tps[i] = tp
	}
	// An overlay frame of the size an event hop carries.
	msg := simnet.Message{From: 0, To: 1, Payload: wire.Publish{Attrs: xyAttrs, Values: []float64{1, 2}}}
	await := func(n int64) error {
		deadline := time.After(ackTimeout)
		for delivered.Load() < n {
			select {
			case <-arrived:
			case <-deadline:
				return fmt.Errorf("transport replay: %d of %d frames delivered", delivered.Load(), n)
			}
		}
		return nil
	}
	// The first frame pays the dial.
	tps[0].Send(msg)
	if err := await(1); err != nil {
		return err
	}
	const n = 1000
	lat := make([]int64, 0, n)
	var err error
	rp.timed("transport.oneway", n, func() {
		for i := 0; i < n && err == nil; i++ {
			t0 := rp.b.rec.now()
			tps[0].Send(msg)
			err = await(int64(i + 2))
			lat = append(lat, rp.b.rec.now()-t0)
		}
	})
	if err != nil {
		return err
	}
	slices.Sort(lat)
	rp.res.set("transport.oneway_p50_us", pct(lat, 50)/1e3, "us")
	// Throughput in windows of half the link queue, so Send never sheds.
	const window, rounds = 512, 40
	base := delivered.Load()
	d := rp.timed("transport.frames", window*rounds, func() {
		for r := 1; r <= rounds && err == nil; r++ {
			for i := 0; i < window; i++ {
				tps[0].Send(msg)
			}
			err = await(base + int64(r*window))
		}
	})
	if err != nil {
		return err
	}
	rp.res.set("transport.frames_s", float64(window*rounds)/d.Seconds(), "1/s")
	return nil
}
