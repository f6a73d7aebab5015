package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"
)

// totals accumulates what the instances of a run measured.
type totals struct {
	setupS []float64 // one per instance
	subUs  []float64 // µs per Subscribe while the population loads, one per loadChunk acks of a session

	lat  *latencies
	late []int64 // how far behind schedule each open-loop publish went out, ns
	acks []int64 // publish write → ack, ns

	capacity []float64 // events fully delivered per second, one per closed-loop slice
	pairRate []float64 // churn pairs completed per second, one per slice
	pairs    int

	cpu        []float64 // per daemon, CPU seconds over the open-loop phases
	cpuOK      bool
	selfCPU    float64
	openEvents int64
	openNanos  int64
	expected   int64 // oracle-expected deliveries, open and closed loop
	received   int64

	seqGaps int64
	stalls  int   // times the open-loop schedule was shifted
	stalled int64 // total shift, ns

	// Traced run only.
	idleMsgsPerS  float64
	before, after []statsz
	rssMiB        float64
}

// churn runs Unsubscribe→Subscribe pairs on the churn session until
// stop closes: churnWorkers workers, each with one pair outstanding on
// IDs of its own and a fresh rectangle per pair. It returns the instant
// each pair completed.
func (b *bench) churn(stop <-chan struct{}) ([]int64, error) {
	c := b.churnSession()
	ends := make([][]int64, churnWorkers)
	errs := make([]error, churnWorkers)
	var wg sync.WaitGroup
	for w := 0; w < churnWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// ChurnIDs is a multiple of churnWorkers, so worker w owns
			// the IDs congruent to w.
			for j := w; ; j += churnWorkers {
				select {
				case <-stop:
					return
				default:
				}
				id := churnIDBase + int64(j%b.spec.ChurnIDs)
				r := b.in.churn[(b.spec.ChurnIDs+j)%len(b.in.churn)]
				if err := c.unsubscribe(id); err != nil {
					errs[w] = fmt.Errorf("churn: unsubscribe %d: %w", id, err)
					return
				}
				if err := c.subscribe(id, r.expr()); err != nil {
					errs[w] = fmt.Errorf("churn: subscribe %d: %w", id, err)
					return
				}
				ends[w] = append(ends[w], b.rec.now())
			}
		}()
	}
	wg.Wait()
	return slices.Concat(ends...), errors.Join(errs...)
}

// ratePerSlice cuts [from, to) into whole slices of the given length
// and returns how many of the (ascending or not) instants fall in each,
// per second. A stall then costs one slice, not a share of the mean.
func ratePerSlice(instants []int64, from, to int64, slice time.Duration) []float64 {
	n := int((to - from) / int64(slice))
	if n < 1 {
		return nil
	}
	counts := make([]float64, n)
	for _, t := range instants {
		if i := int((t - from) / int64(slice)); t >= from && i < n {
			counts[i]++
		}
	}
	for i := range counts {
		counts[i] /= slice.Seconds()
	}
	return counts
}

// sliceLen is the length of one open-loop slice; the closed-loop and
// churn rates are cut to the same length.
func (b *bench) sliceLen() time.Duration {
	open, _ := b.durations()
	return open / time.Duration(nSlices/b.instances())
}

// run executes the workload once and fills b.res.
func (b *bench) run(buildS float64) error {
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	b.res = &result{
		Workload: b.spec.Name, Seed: b.seed, Seconds: b.seconds, Trace: b.trace,
		Metrics: map[string]metric{}, Samples: map[string]int{},
	}
	if err := b.prepare(); err != nil {
		return err
	}
	b.res.Inputs = b.in.digest()
	steal0, _ := hostStealSeconds()
	b.tot.lat = newLatencies(b)
	b.tot.cpu = make([]float64, b.spec.Daemons)
	b.tot.cpuOK = true
	for i := 0; i < b.instances(); i++ {
		if err := b.instance(i); err != nil {
			return fmt.Errorf("instance %d: %w", i, err)
		}
	}

	// Failures: every RPC that errored or timed out, on top of the
	// delivery mismatches the phases accounted.
	b.res.Attempted += b.calls
	b.res.Failed += b.rec.rpcErrs.Load()
	for _, e := range b.rec.firstErr {
		b.res.notef("rpc: %s", e)
	}
	for _, m := range b.mismatch {
		b.res.notef("mismatch: %s", m)
	}
	b.res.Correct = b.res.Failed == 0
	b.tot.lat.sort()
	slices.Sort(b.tot.late)
	if steal1, ok := hostStealSeconds(); ok && steal1 > steal0 {
		b.res.notef("the host took %.0f ms of CPU from this machine during the run", (steal1-steal0)*1e3)
	}
	if b.tot.stalls > 0 {
		b.res.notef("the open-loop schedule was shifted %d times, %.1f ms in all, by stalls of the generator or the host",
			b.tot.stalls, float64(b.tot.stalled)/1e6)
	}
	if p99, p50 := pct(b.tot.late, 99), b.tot.lat.all.pct(50, nil); p99 > p50 {
		b.res.notef("unresolved: the generator ran late (p99 %.0f us) by more than notify_p50_us (%.0f us)", p99/1e3, p50/1e3)
	}
	if b.trace {
		return b.ledger(buildS)
	}
	b.endToEnd()
	return nil
}

// instance sets one cluster up, measures on it, and tears it down. A
// set-up whose overlay never delivers a probe round exactly is thrown
// away and tried again on a fresh cluster: that is a fault of the
// system worth reporting, not a reason to lose the run.
func (b *bench) instance(i int) error {
	defer b.tearDown()
	for attempt := 0; ; attempt++ {
		d, err := b.setUp(fmt.Sprintf("%s-%d-%d", b.tag, i, attempt))
		if err == nil {
			b.tot.setupS = append(b.tot.setupS, d.Seconds())
			break
		}
		if !errors.Is(err, errNotConverged) || attempt == setUpRetries {
			return fmt.Errorf("set-up: %w", err)
		}
		b.res.notef("instance %d: %v; setting up again", i, err)
		b.tearDown()
	}
	if err := b.measure(i); err != nil {
		return err
	}
	if err := b.cl.earlyExit(); err != nil {
		return err
	}
	b.cl.removeLogs()
	return nil
}

// measure runs the phases on the instance that is up: warm-up, open
// loop, closed loop (untraced runs), with the workload's churn, if it
// has one, beside them.
func (b *bench) measure(i int) error {
	open, closed := b.durations()
	t := &b.tot

	// Churn beside the load runs from the warm-up to the end of the
	// closed loop; only pairs inside the open-loop phase are counted.
	var loadPairs []int64
	var loadErr error
	var wg sync.WaitGroup
	stop := make(chan struct{})
	if b.spec.ChurnIDs > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			loadPairs, loadErr = b.churn(stop)
		}()
	}
	stopChurn := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer stopChurn()
	// endChurn stops the churn and counts the pairs that completed
	// inside the open-loop phase op.
	var op *phase
	endChurn := func() {
		stopChurn()
		if loadErr != nil {
			b.rec.rpcFailed(loadErr.Error())
		}
		b.calls += 2 * int64(len(loadPairs))
		t.pairs += len(loadPairs)
		t.pairRate = append(t.pairRate, ratePerSlice(loadPairs, op.start, op.end, b.sliceLen())...)
	}

	if b.trace {
		idle, err := b.measureIdle()
		if err != nil {
			return err
		}
		t.idleMsgsPerS = idle
	}

	// Warm-up at the fixed rate: verified like any phase, not measured.
	lo, hi := b.take(int(float64(b.spec.Rate) * warmUp.Seconds()))
	warm := b.begin("warm-up", lo, hi, false)
	if err := b.openLoop(warm, nil); err != nil {
		return err
	}
	b.quiesce(int64(hi-lo), ackTimeout)
	b.verify(warm, nil)
	b.account(warm)

	// Open loop.
	lo, hi = b.take(int(float64(b.spec.Rate) * open.Seconds()))
	var traced func(int) bool
	if b.trace {
		traced = tracedSlice
		var err error
		if t.before, err = b.cl.scrapeAll(); err != nil {
			return err
		}
	}
	cpu0, cpuOK := b.cl.cpuSeconds()
	self0, _ := procCPUSeconds(os.Getpid())
	op = b.begin("open-loop", lo, hi, false)
	op.slices = nSlices / b.instances()
	op.slice0 = i * op.slices
	if err := b.openLoop(op, traced); err != nil {
		return err
	}
	cpu1, _ := b.cl.cpuSeconds()
	self1, _ := procCPUSeconds(os.Getpid())
	b.quiesce(int64(hi-lo), ackTimeout)
	time.Sleep(20 * time.Millisecond) // let a duplicate show itself
	t.lat.ph = op
	b.verify(op, t.lat.visit)
	b.account(op)
	if cpuOK {
		for d := range cpu0 {
			t.cpu[d] += cpu1[d] - cpu0[d]
		}
		t.selfCPU += self1 - self0
	} else {
		t.cpuOK = false
	}
	t.openEvents += int64(op.hi - op.lo)
	t.openNanos += op.end - op.start
	t.expected += op.expected
	t.received += op.received
	for e := op.lo; e < op.hi; e++ {
		t.late = append(t.late, b.sentAt[e]-b.due[e])
		if at := b.rec.ackAt[e].Load(); at != 0 {
			t.acks = append(t.acks, at-b.sentAt[e])
		}
	}
	if b.trace {
		endChurn()
		var err error
		if t.after, err = b.cl.scrapeAll(); err != nil {
			return err
		}
		for _, d := range b.cl.daemons {
			v, _ := peakRSSMiB(d.cmd.Process.Pid)
			t.rssMiB += v
		}
		t.lat.spans = append(t.lat.spans, b.eventSpans(op, t.lat.sampled)...)
		return nil
	}

	// Closed loop.
	lo, hi = b.take(int(closedPoolRate * closed.Seconds()))
	cl := b.begin("closed-loop", lo, hi, true)
	if err := b.closedLoop(cl, closed); err != nil {
		return err
	}
	b.rec.windowed.Store(false)
	b.quiesce(int64(cl.hi-cl.lo), ackTimeout)
	time.Sleep(20 * time.Millisecond)
	b.verify(cl, nil)
	b.account(cl)
	t.expected += cl.expected
	t.received += cl.received
	done := make([]int64, 0, cl.hi-cl.lo)
	for e := cl.lo; e < cl.hi; e++ {
		if at := b.rec.doneAt[e].Load(); at != 0 {
			done = append(done, at)
		}
	}
	t.capacity = append(t.capacity, ratePerSlice(done, cl.start, cl.end, b.sliceLen())...)

	endChurn()
	return nil
}

// endToEnd reports the metrics a user of the system would see.
func (b *bench) endToEnd() {
	r, t := b.res, &b.tot
	r.set("setup_s", median(t.setupS), "s")
	r.set("notify_p50_us", t.lat.all.pct(50, nil)/1e3, "us")
	r.set("notify_p90_us", t.lat.all.pct(90, nil)/1e3, "us")
	r.Samples["notify_p50_us"] = t.lat.all.count()
	r.Samples["notify_p90_us"] = t.lat.all.count()
	r.Samples["capacity_events_s"] = len(t.capacity)
	r.set("capacity_events_s", quantile(t.capacity, quietHigh), "events/s")
	if t.cpuOK {
		r.set("cpu_us_per_event", sum(t.cpu)*1e6/float64(t.openEvents), "us")
	}
	b.controlPlane()
	// Exactly 1 on a healthy run; any shortfall is failed ops.
	r.set("loadgen.delivery_ratio", float64(t.received)/float64(t.expected), "ratio")
	r.Samples["loadgen.delivery_ratio"] = int(t.expected)
}

// controlPlane reports the two control-plane figures. Both are
// per-layer: each is taken over a fraction of a second per instance (the
// population load, the churn beside one workload's open loop), which on
// a shared box is too short a look to gate on.
func (b *bench) controlPlane() {
	b.res.set("drtreed.subscribe_us", quantile(b.tot.subUs, quietLow), "us")
	b.res.Samples["drtreed.subscribe_us"] = len(b.tot.subUs)
	if b.spec.ChurnIDs > 0 {
		b.res.set("drtreed.churn_pairs_s", quantile(b.tot.pairRate, quietHigh), "pairs/s")
		b.res.Samples["drtreed.churn_pairs_s"] = b.tot.pairs
	}
}

// account folds a verified phase into the run's op counts.
func (b *bench) account(ph *phase) {
	b.res.Attempted += ph.expected + int64(ph.hi-ph.lo)
	b.res.Failed += ph.failed()
	if ph.failed() > 0 {
		b.res.notef("%s: %d expected, %d missing, %d duplicate, %d unexpected, %d publishes unacked",
			ph.name, ph.expected, ph.missing, ph.duplicate, ph.unexpected, ph.pubLost)
	}
}

func sum(vs []float64) float64 {
	t := 0.0
	for _, v := range vs {
		t += v
	}
	return t
}

// latencies are the open-loop Notify samples of a run: due → read by
// the generator, split by where the subscriber lives.
type latencies struct {
	b      *bench
	ph     *phase  // the open-loop phase being verified
	all    *sliced // binary sessions, local and remote
	local  *sliced // subscriber on the publishing daemon
	remote *sliced // subscriber one overlay hop away
	ws     *sliced // the WebSocket session
	// sampled keeps the deliveries of span-carrying events, spans the
	// spans built from them (traced run).
	sampled map[int32][]tracedNote
	spans   []span
}

func newLatencies(b *bench) *latencies {
	return &latencies{b: b,
		all: newSliced(nSlices), local: newSliced(nSlices), remote: newSliced(nSlices), ws: newSliced(nSlices),
		sampled: map[int32][]tracedNote{}}
}

func (l *latencies) visit(daemon int, n note) {
	d := n.at - l.b.due[n.ev]
	s := l.ph.slice(n.ev)
	if l.b.wroteAt[n.ev] != 0 {
		l.sampled[n.ev] = append(l.sampled[n.ev], tracedNote{daemon, n})
	}
	switch daemon {
	case -1:
		l.ws.add(s, d)
		return
	case 0:
		l.local.add(s, d)
	default:
		l.remote.add(s, d)
	}
	l.all.add(s, d)
}

func (l *latencies) sort() {
	for _, s := range []*sliced{l.all, l.local, l.remote, l.ws} {
		s.sort()
	}
}
