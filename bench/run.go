package main

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"
)

// Fixed shape of a run. The measured phases share -seconds in the
// proportions below; everything else is constant so two commits are
// always measured alike.
const (
	// instances is how many clusters an untraced run sets up, measures
	// and tears down in turn. The overlay's shape differs from one
	// set-up to the next, and with it the hops an event takes; a run
	// that saw three shapes repeats better than a run that saw one.
	instances = 3
	// nSlices is the number of open-loop slices of a run, shared evenly
	// between its instances.
	nSlices     = 180
	probeRound  = 200  // publishes per convergence-probe round
	probeRate   = 2000 // publishes per second within a round
	probeRounds = 12   // rounds before a set-up is declared not converging
	// setUpRetries is how many fresh clusters an instance may try after
	// one that did not converge.
	setUpRetries = 5
	probeWait    = 250 * time.Millisecond
	warmUp       = time.Second
	pinSettle    = 10 * time.Millisecond // pause after each gateway's join, see pinGateways
	stallLimit   = 5 * time.Millisecond  // see openLoop
	traceSample  = 16                    // 1 in this many events carries spans in a traced slice
	// loadWindow is how many Subscribes a session keeps in flight while
	// the population loads, churnWorkers how many Unsubscribe→Subscribe
	// pairs the churn session does. One outstanding call measures two
	// wake-ups of a sleeping process — on a shared guest that is the
	// host's scheduler, and it swung by 30 % from one ten minutes to the
	// next; with a few in flight the daemon works through a backlog and
	// the figure is its own cost per call.
	loadWindow   = 8
	churnWorkers = 4
	// loadChunk is how many Subscribe acks make one sample of the
	// population load's per-call time.
	loadChunk = 50
	// closedPoolRate sizes the event pool of the closed-loop phase; a
	// cluster faster than this ends the phase early, at its real rate.
	closedPoolRate = 12000
	// Shares of -seconds.
	openShare, closedShare = 0.65, 0.35
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Inputs    string            `json:"inputs_sha256_64"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Samples   map[string]int    `json:"samples"`
	Notes     []string          `json:"notes,omitempty"`
}

func (r *result) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return // not measured on this run: omitted, never zero-filled
	}
	r.Metrics[name] = metric{v, unit}
}

func (r *result) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// phase is the delivery accounting of one publishing phase.
type phase struct {
	name       string
	lo, hi     int32 // events [lo, hi) were published
	start, end int64 // recorder clock
	expected   int64
	received   int64
	missing    int64
	duplicate  int64
	unexpected int64
	pubLost    int64 // publishes never acked
	// The open-loop slices this phase fills: [slice0, slice0+slices).
	slice0, slices int
}

// slice is the open-loop slice event e falls in. Events are evenly
// spaced, so equal shares of the events are equal shares of the time.
func (p *phase) slice(e int32) int { return p.slice0 + int(e-p.lo)*p.slices/int(p.hi-p.lo) }

func (p *phase) failed() int64 { return p.missing + p.duplicate + p.unexpected + p.pubLost }

// bench is the state of one run.
type bench struct {
	spec    spec
	seed    uint64
	seconds float64
	trace   bool
	bin     string
	tag     string

	in  *inputs
	exp [][]int32
	rec *recorder
	// Per-event send-side stamps on the recorder clock: when the publish
	// was due, when the sender got to it, when its write returned.
	due, sentAt, wroteAt []int64
	next                 int32 // first unused event

	cl   *cluster
	bins []*binSession
	ws   *wsSession

	calls    int64 // subscribe + unsubscribe calls issued
	probeLo  int32 // this instance's events below this belong to convergence probes
	mismatch []string

	tot totals
	res *result
}

// durations are the lengths of the measured phases of one instance:
// -seconds shared between the phases, then between the instances.
func (b *bench) durations() (open, closed time.Duration) {
	s := float64(time.Second) * b.seconds / float64(b.instances())
	return time.Duration(s * openShare), time.Duration(s * closedShare)
}

// instances is 1 for a traced run: its ledger describes one cluster.
func (b *bench) instances() int {
	if b.trace {
		return 1
	}
	return instances
}

// prepare generates the inputs, checks the oracle, and precomputes
// every expected delivery, all before any clock that matters starts.
func (b *bench) prepare() error {
	open, closed := b.durations()
	rate := float64(b.spec.Rate)
	nEvents := b.instances() * (probeRounds*probeRound +
		int(rate*(warmUp+open).Seconds()) + 1 +
		int(closedPoolRate*closed.Seconds()))
	var err error
	if b.in, err = generate(b.spec, b.seed, nEvents, 1<<16); err != nil {
		return err
	}
	or := newOracle(b.in.subs)
	if err := or.selfCheck(b.in.events, 1000); err != nil {
		return err
	}
	b.exp = or.expectAll(b.in.events)
	if b.rec, err = newRecorder(b.in, b.exp, b.spec.Window); err != nil {
		return err
	}
	b.due = make([]int64, nEvents)
	b.sentAt = make([]int64, nEvents)
	b.wroteAt = make([]int64, nEvents)
	return nil
}

// take reserves the next n events of the stream.
func (b *bench) take(n int) (lo, hi int32) {
	lo = b.next
	hi = min(lo+int32(n), int32(len(b.in.events)))
	b.next = hi
	return lo, hi
}

func (b *bench) subDaemon(k int) int { return k % b.spec.Daemons }

func (b *bench) onWS(k int) bool {
	return b.subDaemon(k) == 0 && k/b.spec.Daemons < b.spec.WSSubs
}

// churnSession is the session that issues the churn ops: session 1, or
// the only one there is.
func (b *bench) churnSession() *binSession { return b.bins[min(1, len(b.bins)-1)] }

// setUp spawns a cluster, loads the population and probes until one
// round of publishes is delivered exactly. It returns the time that
// took, which is what setup_s reports.
func (b *bench) setUp(tag string) (time.Duration, error) {
	start := time.Now()
	var err error
	if b.cl, err = spawnCluster(b.bin, b.spec, tag); err != nil {
		return 0, err
	}
	b.bins = make([]*binSession, b.spec.Daemons)
	for i, d := range b.cl.daemons {
		if b.bins[i], err = dialBin(b.rec, i, d.overlay); err != nil {
			return 0, err
		}
	}
	if b.spec.WSSubs > 0 {
		if b.ws, err = dialWS(b.rec, b.cl.daemons[0].http); err != nil {
			return 0, err
		}
	}
	if err := b.subscribeAll(); err != nil {
		return 0, err
	}
	if err := b.converge(); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// tearDown closes the sessions and kills the cluster.
func (b *bench) tearDown() {
	if b.cl != nil {
		// Kill first: a session closed against a live daemon makes it
		// unsubscribe that session's whole population.
		b.cl.kill()
	}
	for _, s := range b.bins {
		if s != nil {
			s.close()
			_, gaps := s.log.take()
			b.tot.seqGaps += gaps
		}
	}
	if b.ws != nil {
		b.ws.close()
		_, gaps := b.ws.log.take()
		b.tot.seqGaps += gaps
		b.ws = nil
	}
	b.bins = nil
}

// subscribeAll loads the population: every binary session keeps
// loadWindow Subscribes in flight, all sessions in parallel, and every
// loadChunk acks of a session make one sample of what a Subscribe takes.
// The WebSocket share (fanout-1d) loads beside them, one request at a
// time as its protocol has it, untimed.
func (b *bench) subscribeAll() error {
	if err := b.bins[0].subscribe(producerID, producerExpr); err != nil {
		return fmt.Errorf("subscribing the producer: %w", err)
	}
	type lane struct {
		ids   []int64
		exprs []string
		err   error
		subUs []float64
	}
	lanes := make([]lane, b.spec.Daemons+1) // the last one is the WebSocket's
	for k, r := range b.in.subs {
		l := &lanes[b.subDaemon(k)]
		if b.onWS(k) {
			l = &lanes[b.spec.Daemons]
		}
		l.ids = append(l.ids, int64(k+1))
		l.exprs = append(l.exprs, r.expr())
	}
	if err := b.pinGateways(); err != nil {
		return err
	}
	var wg sync.WaitGroup
	for i := range lanes {
		l := &lanes[i]
		if len(l.ids) == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i < len(b.bins) {
				l.subUs, l.err = b.bins[i].subscribeAll(l.ids, l.exprs)
				return
			}
			for j, id := range l.ids {
				if l.err = b.ws.subscribe(id, l.exprs[j]); l.err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, l := range lanes {
		if l.err != nil {
			return l.err
		}
		b.calls += int64(len(l.ids))
		b.tot.subUs = append(b.tot.subUs, l.subUs...)
	}
	b.calls++ // the producer
	if b.spec.ChurnIDs > 0 {
		return b.subscribeChurnIDs()
	}
	return nil
}

// pinGateways joins every gateway of every daemon to the overlay, one
// at a time in a fixed order, each with two pin subscriptions at
// opposite corners of the world. A gateway's overlay filter is the
// MBR-union of its subscriptions, so from then on it is the whole world
// and the population that follows never moves it.
//
// Without this the overlay's shape is an accident of which gateway's
// first subscribe won the race and of how the unions happened to grow,
// it differs from set-up to set-up and from seed to seed, and the
// Notify latency follows it (measured: per-instance p50 from 460 to
// 920 us on the same inputs). Every workload's population grows every
// union to almost the whole world anyway; pinning only takes the
// accident out. The pins match no event: their area is 1e-12 of the
// world's.
func (b *bench) pinGateways() error {
	for d, s := range b.bins {
		for g := 0; g < daemonGateways; g++ {
			// The daemon's fixed pool places ID i on gateway i mod pool size.
			id := pinIDBase + int64(d*2*daemonGateways+g)
			if err := s.subscribe(id, pinLowExpr); err != nil {
				return fmt.Errorf("pinning gateway %d of daemon %d: %w", g, d, err)
			}
			if err := s.subscribe(id+daemonGateways, pinHighExpr); err != nil {
				return fmt.Errorf("pinning gateway %d of daemon %d: %w", g, d, err)
			}
			b.calls += 2
			time.Sleep(pinSettle)
		}
	}
	return nil
}

// subscribeChurnIDs registers the churning IDs with their first
// rectangles (untimed: the pairs that follow are what is measured).
func (b *bench) subscribeChurnIDs() error {
	ids := make([]int64, b.spec.ChurnIDs)
	exprs := make([]string, b.spec.ChurnIDs)
	for j := range ids {
		ids[j], exprs[j] = churnIDBase+int64(j), b.in.churn[j].expr()
	}
	if _, err := b.churnSession().subscribeAll(ids, exprs); err != nil {
		return fmt.Errorf("subscribing the churn IDs: %w", err)
	}
	b.calls += int64(b.spec.ChurnIDs)
	return nil
}

// publishRange writes events [lo, hi) and stamps them, spaced at
// probeRate. Not back to back: two hundred publishes in one burst sit
// in the overlay's 256-slot actor mailboxes beside its own traffic, and
// on a slow day the burst itself overflows them — the round then fails
// on a cluster that has long converged.
func (b *bench) publishRange(lo, hi int32) error {
	start := b.rec.now()
	for e := lo; e < hi; e++ {
		due := start + int64(e-lo)*int64(time.Second)/probeRate
		for now := b.rec.now(); now < due; now = b.rec.now() {
			sleepUntilDue(time.Duration(due - now))
		}
		b.sentAt[e] = b.rec.now()
		b.due[e] = b.sentAt[e]
		if err := b.bins[0].publish(e, b.in.events[e]); err != nil {
			return fmt.Errorf("publish: %w", err)
		}
	}
	return nil
}

// begin opens a phase over events [lo, hi).
func (b *bench) begin(name string, lo, hi int32, windowed bool) *phase {
	b.rec.completed.Store(0)
	b.rec.lo.Store(lo)
	b.rec.hi.Store(hi)
	b.rec.windowed.Store(windowed)
	return &phase{name: name, lo: lo, hi: hi, start: b.rec.now()}
}

// quiesce waits until every event of the phase published so far is
// fully delivered, or for at most the given time.
func (b *bench) quiesce(published int64, wait time.Duration) bool {
	deadline := time.Now().Add(wait)
	for b.rec.completed.Load() < published {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

var errNotConverged = errors.New("overlay did not converge")

// converge runs probe rounds until one is delivered exactly: every
// publish acked, every expected Notify seen once, nothing else.
func (b *bench) converge() error {
	var last []string
	for round := 0; round < probeRounds; round++ {
		lo, hi := b.take(probeRound)
		b.probeLo = hi
		ph := b.begin("probe", lo, hi, false)
		if err := b.publishRange(lo, hi); err != nil {
			return err
		}
		ok := b.quiesce(int64(hi-lo), probeWait)
		// A failed round is expected while the overlay settles: its
		// mismatches are kept apart from the run's.
		kept := b.mismatch
		b.mismatch = nil
		b.verify(ph, nil)
		last, b.mismatch = b.mismatch, kept
		if ok && ph.failed() == 0 {
			b.res.Attempted += ph.expected + int64(hi-lo)
			return nil
		}
		if err := b.cl.earlyExit(); err != nil {
			return err
		}
	}
	return fmt.Errorf("%w in %d probe rounds; last mismatches: %v", errNotConverged, probeRounds, last)
}

// openLoop publishes events [lo, hi) at the fixed rate, each timed from
// the instant it was due, and returns once the last one is written.
func (b *bench) openLoop(ph *phase, traced func(slice int) bool) error {
	interval := float64(time.Second) / float64(b.spec.Rate)
	span := float64(ph.hi-ph.lo) * interval
	// The sender never waits for the system under test, so only this
	// process or the host can make it late. Past stallLimit the rest of
	// the schedule shifts by the excess instead of being fired in one
	// burst: a burst of a few hundred publishes overflows the overlay's
	// 256-slot actor mailboxes, and that loss would be the generator's
	// stall, not the system's fault. The shift is reported.
	var shift int64
	for e := ph.lo; e < ph.hi; e++ {
		off := float64(e-ph.lo) * interval
		due := ph.start + int64(off) + shift
		now := b.rec.now()
		for ; now < due; now = b.rec.now() {
			sleepUntilDue(time.Duration(due - now))
		}
		if now-due > int64(stallLimit) {
			shift += now - due
			b.tot.stalls++
			due = now
		}
		b.due[e] = due
		b.sentAt[e] = now
		if err := b.bins[0].publish(e, b.in.events[e]); err != nil {
			return fmt.Errorf("publish: %w", err)
		}
		if traced != nil && e%traceSample == 0 && traced(ph.slice(e)) {
			b.wroteAt[e] = b.rec.now()
		}
	}
	ph.end = ph.start + int64(span) + shift
	b.tot.stalled += shift
	return nil
}

// closedLoop publishes as fast as the window allows for the given time:
// at most Window events published and not yet fully delivered.
func (b *bench) closedLoop(ph *phase, dur time.Duration) error {
	for len(b.rec.tokens) > 0 {
		<-b.rec.tokens
	}
	for i := 0; i < b.spec.Window; i++ {
		b.rec.tokens <- struct{}{}
	}
	deadline := time.NewTimer(dur)
	defer deadline.Stop()
	e := ph.lo
loop:
	for ; e < ph.hi; e++ {
		select {
		case <-b.rec.tokens:
		case <-deadline.C:
			break loop
		}
		b.sentAt[e] = b.rec.now()
		b.due[e] = b.sentAt[e]
		if err := b.bins[0].publish(e, b.in.events[e]); err != nil {
			return fmt.Errorf("publish: %w", err)
		}
	}
	ph.hi = e
	ph.end = b.rec.now()
	return nil
}

// notesOf drains every session's log since the last call.
func (b *bench) notesOf() (bin [][]note, wsNotes []note) {
	bin = make([][]note, len(b.bins))
	for i, s := range b.bins {
		bin[i], _ = s.log.take()
	}
	if b.ws != nil {
		wsNotes, _ = b.ws.log.take()
	}
	return bin, wsNotes
}

// verify compares what the sessions received for the phase's events
// with the oracle, per stable subscription, and hands each delivery
// that belongs to the phase to visit (daemon -1 is the WebSocket).
func (b *bench) verify(ph *phase, visit func(daemon int, n note)) {
	bin, wsNotes := b.notesOf()
	got := make(map[int64]int32)
	key := func(e int32, sub int64) int64 { return int64(e)<<32 | sub }
	scan := func(daemon int, notes []note) {
		for _, n := range notes {
			switch {
			case n.sub < 1 || n.sub > b.rec.nStable:
				// Churning IDs: tolerated, outside the oracle's check.
			case n.ev < 0:
				ph.unexpected++
				b.mismatchf("%s: subscriber %d got a point no event of this run has", ph.name, n.sub)
			case n.ev < ph.lo || n.ev >= ph.hi:
				// A straggler from an earlier phase. Probe rounds that
				// failed during convergence leave these behind by design;
				// anything else was already counted missing in its own
				// phase and is counted again here as a late duplicate.
				if n.ev >= b.probeLo {
					ph.unexpected++
					b.mismatchf("%s: event %d reached subscriber %d after its phase ended", ph.name, n.ev, n.sub)
				}
			default:
				got[key(n.ev, n.sub)]++
				if visit != nil {
					visit(daemon, n)
				}
			}
		}
	}
	for i, notes := range bin {
		scan(i, notes)
	}
	scan(-1, wsNotes)

	for e := ph.lo; e < ph.hi; e++ {
		ph.expected += int64(len(b.exp[e]))
		if b.rec.ackAt[e].Load() == 0 {
			ph.pubLost++
			b.mismatchf("%s: publish of event %d never acked", ph.name, e)
		}
		for _, k := range b.exp[e] {
			sub := int64(k + 1)
			c := got[key(e, sub)]
			delete(got, key(e, sub))
			switch {
			case c == 0:
				ph.missing++
			case c > 1:
				ph.duplicate += int64(c - 1)
			}
			if c != 1 {
				b.mismatchf("%s: event %d (%v, %v) subscriber %d daemon %d: expected 1 got %d",
					ph.name, e, b.in.events[e].x, b.in.events[e].y, sub, b.subDaemon(int(k)), c)
			}
		}
	}
	for k, c := range got {
		e, sub := int32(k>>32), k&(1<<32-1)
		ph.unexpected += int64(c)
		b.mismatchf("%s: event %d (%v, %v) subscriber %d daemon %d: expected 0 got %d",
			ph.name, e, b.in.events[e].x, b.in.events[e].y, sub, b.subDaemon(int(sub-1)), c)
	}
	// received counts only oracle-expected deliveries; extras are in
	// duplicate and unexpected.
	ph.received = ph.expected - ph.missing
}

func (b *bench) mismatchf(format string, args ...any) {
	if len(b.mismatch) < 10 {
		b.mismatch = append(b.mismatch, fmt.Sprintf(format, args...))
	}
}
