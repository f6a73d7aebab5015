package proto

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"drtree/internal/core"
	"drtree/internal/geom"
	"drtree/internal/simnet"
)

func TestLiveClusterValidation(t *testing.T) {
	if _, err := NewLiveCluster(Config{MinFanout: 0, MaxFanout: 4}); err == nil {
		t.Error("bad config must be rejected")
	}
	lc, err := NewLiveCluster(Config{MinFanout: 2, MaxFanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	if err := lc.Join(0, geom.R2(0, 0, 1, 1)); err == nil {
		t.Error("id 0 must be rejected")
	}
	if err := lc.Join(1, geom.Rect{}); err == nil {
		t.Error("empty filter must be rejected")
	}
	if err := lc.Crash(9); err == nil {
		t.Error("unknown crash must error")
	}
}

func TestLiveClusterGrowsAndStabilizes(t *testing.T) {
	if lc := grownLive(t, 20, 31); lc.Len() != 20 {
		t.Fatalf("Len = %d", lc.Len())
	}
}

func TestLiveClusterRepairsCrash(t *testing.T) {
	lc := grownLive(t, 15, 32)
	// Crash the current root; the live actors must elect and repair.
	root, _ := lc.Root()
	if err := lc.Crash(root); err != nil {
		t.Fatal(err)
	}
	if err := lc.AwaitLegal(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if lc.Len() != 14 {
		t.Fatalf("Len = %d", lc.Len())
	}
	// Idempotent close.
	lc.Close()
	lc.Close()
	if err := lc.Join(99, geom.R2(0, 0, 1, 1)); err == nil {
		t.Error("join after close must error")
	}
}

// TestLiveEngineSurface exercises the Engine-interface additions of the
// live runtime: observers, controlled departure, JoinFrom, the four
// fault injectors, and Stabilize-driven repair.
func TestLiveEngineSurface(t *testing.T) {
	lc, err := NewLiveCluster(Config{MinFanout: 2, MaxFanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	var union geom.Rect
	for i := 1; i <= 6; i++ {
		f := geom.R2(float64(i*10), 0, float64(i*10)+15, 20)
		if err := lc.Join(core.ProcID(i), f); err != nil {
			t.Fatal(err)
		}
		union = union.Union(f)
	}
	if err := lc.AwaitLegal(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := lc.ProcIDs(); len(got) != 6 || got[0] != 1 || got[5] != 6 {
		t.Fatalf("ProcIDs = %v", got)
	}
	if f, ok := lc.Filter(3); !ok || !f.Equal(geom.R2(30, 0, 45, 20)) {
		t.Fatalf("Filter(3) = %v, %v", f, ok)
	}
	if _, ok := lc.Filter(99); ok {
		t.Fatal("Filter of unknown process must report !ok")
	}
	if root, h := lc.Root(); root == core.NoProc || h < 0 {
		t.Fatalf("Root = (%d, %d)", root, h)
	}
	if !lc.RootMBR().Equal(union) {
		t.Fatalf("RootMBR %v, want %v", lc.RootMBR(), union)
	}

	// JoinFrom routes through an explicit contact.
	if err := lc.JoinFrom(99, 7, geom.R2(0, 0, 5, 5)); err == nil {
		t.Fatal("JoinFrom with unknown contact must error")
	}
	if err := lc.JoinFrom(1, 7, geom.R2(0, 0, 5, 5)); err != nil {
		t.Fatal(err)
	}
	if err := lc.Leave(2); err != nil {
		t.Fatal(err)
	}
	if st := lc.Stabilize(); !st.Converged {
		t.Fatalf("no convergence after join/leave: %v", lc.CheckLegal())
	}

	// The paper's four transient corruptions, then self-repair.
	if err := lc.CorruptParent(3, 0, 3); err != nil {
		t.Fatal(err)
	}
	if err := lc.CorruptMBR(4, 0, geom.R2(0, 0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := lc.CorruptChildren(5, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := lc.CorruptUnderloaded(6, 0); err != nil {
		t.Fatal(err)
	}
	if err := lc.CorruptParent(99, 0, 1); err == nil {
		t.Fatal("corrupting a dead process must error")
	}
	if st := lc.Stabilize(); !st.Converged {
		t.Fatalf("no convergence after corruption: %v", lc.CheckLegal())
	}

	// Publish on the repaired overlay: zero false negatives.
	ev := geom.Point{35, 10}
	d, err := lc.Publish(3, ev)
	if err != nil {
		t.Fatal(err)
	}
	got := map[core.ProcID]bool{}
	for _, id := range d.Received {
		got[id] = true
	}
	for _, id := range lc.ProcIDs() {
		if f, _ := lc.Filter(id); f.ContainsPoint(ev) && !got[id] {
			t.Fatalf("matching subscriber %d missed event: %+v", id, d)
		}
	}
	if _, err := lc.Publish(99, ev); err == nil {
		t.Fatal("publish from unknown producer must error")
	}
}

// grownLive builds a converged local cluster of n processes with small
// random filters in [0,400]², closed with the test.
func grownLive(t *testing.T, n int, seed uint64) *LiveCluster {
	t.Helper()
	lc, err := NewLiveCluster(Config{MinFanout: 2, MaxFanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lc.Close() })
	rng := rand.New(rand.NewPCG(seed, seed))
	for i := 1; i <= n; i++ {
		x, y := rng.Float64()*370, rng.Float64()*370
		if err := lc.Join(core.ProcID(i), geom.R2(x, y, x+30, y+30)); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
	}
	if err := lc.AwaitLegal(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	return lc
}

// periods snapshots every actor's current CHECK_* period.
func (lc *LiveCluster) periods() map[core.ProcID]time.Duration {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	out := make(map[core.ProcID]time.Duration, len(lc.actors))
	for id, a := range lc.actors {
		out[id] = a.period
	}
	return out
}

// awaitAllAtCap waits until every actor's timer has backed off to the cap.
func awaitAllAtCap(t *testing.T, lc *LiveCluster) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		slow := 0
		ps := lc.periods()
		for _, p := range ps {
			if p == checkCap {
				slow++
			}
		}
		if slow == len(ps) {
			if st := lc.Stats(); st.BackedOff != len(ps) {
				t.Fatalf("Stats().BackedOff = %d with all %d actors at the cap", st.BackedOff, len(ps))
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d actors backed off to the cap: %v (legal: %v)", slow, len(ps), ps, lc.CheckLegal())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// interiorNonRoot picks a process owning an interior instance that is not
// the root, and the height of its topmost instance.
func interiorNonRoot(t *testing.T, lc *LiveCluster) (core.ProcID, int) {
	t.Helper()
	root, _ := lc.Root()
	lc.mu.Lock()
	defer lc.mu.Unlock()
	for _, id := range sortedIDs(lc.actors) {
		if n := lc.actors[id].node; id != root && n.top >= 1 {
			return id, n.top
		}
	}
	t.Fatal("no interior non-root process")
	return core.NoProc, 0
}

// TestLiveWakeUpFromCap: on a cluster every actor of which has backed off
// to the cap, each silent fault is still repaired inside the unchanged
// Stabilize budget, and the overlay backs off again afterwards.
func TestLiveWakeUpFromCap(t *testing.T) {
	lc := grownLive(t, 24, 41)
	faults := []struct {
		name   string
		inject func() error
	}{
		{"crash of an interior actor", func() error {
			id, _ := interiorNonRoot(t, lc)
			return lc.Crash(id)
		}},
		{"corrupt parent", func() error {
			id, h := interiorNonRoot(t, lc)
			return lc.CorruptParent(id, h, id)
		}},
		{"corrupt children", func() error {
			id, h := interiorNonRoot(t, lc)
			return lc.CorruptChildren(id, h, nil)
		}},
		{"corrupt MBR", func() error {
			id, h := interiorNonRoot(t, lc)
			return lc.CorruptMBR(id, h, geom.R2(900, 900, 901, 901))
		}},
		{"corrupt underloaded", func() error {
			id, h := interiorNonRoot(t, lc)
			return lc.CorruptUnderloaded(id, h)
		}},
	}
	for _, f := range faults {
		awaitAllAtCap(t, lc)
		if err := f.inject(); err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if lc.CheckLegal() == nil {
			t.Fatalf("%s: the fault left the configuration legal; the test would prove nothing", f.name)
		}
		if st := lc.Stabilize(); !st.Converged {
			t.Fatalf("%s: not repaired inside the Stabilize budget: %v", f.name, lc.CheckLegal())
		}
	}
	awaitAllAtCap(t, lc)
}

// steppedLive is a LiveCluster without its loop: the test is the loop,
// and time is what the test says it is.
type steppedLive struct {
	*LiveCluster
	now time.Time
}

func newSteppedLive(t *testing.T) *steppedLive {
	t.Helper()
	lc, err := newLiveCluster(Config{MinFanout: 2, MaxFanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	return &steppedLive{LiveCluster: lc, now: lc.epoch}
}

// step moves time one base period on and takes the turns the loop would:
// one at the new time, and more while the FIFO is not empty.
func (s *steppedLive) step() {
	s.now = s.now.Add(checkBase)
	for s.turn(s.now); s.pending() > 0; {
		s.turn(s.now)
	}
}

func (lc *LiveCluster) pending() int {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return len(lc.fifo)
}

// settle steps until the configuration is legal and every actor has
// backed off to the cap.
func (s *steppedLive) settle(t *testing.T) {
	t.Helper()
	for i := 0; i < 5000; i++ {
		s.step()
		if s.CheckLegal() != nil {
			continue
		}
		atCap := true
		for _, p := range s.periods() {
			atCap = atCap && p == checkCap
		}
		if atCap {
			return
		}
	}
	t.Fatalf("not legal and backed off after 5000 base periods: %v, periods %v", s.CheckLegal(), s.periods())
}

// TestLiveJoinWakesBackedOffActor: a join arriving at a fully backed-off
// overlay puts the actors whose state it changes back at the base period
// at once — on the turn that handles the join — not at their next expiry.
func TestLiveJoinWakesBackedOffActor(t *testing.T) {
	s := newSteppedLive(t)
	rng := rand.New(rand.NewPCG(42, 42))
	for i := 1; i <= 12; i++ {
		x, y := rng.Float64()*370, rng.Float64()*370
		if err := s.Join(core.ProcID(i), geom.R2(x, y, x+30, y+30)); err != nil {
			t.Fatal(err)
		}
		s.step()
	}
	s.settle(t)
	const joiner = 99
	if err := s.Join(joiner, geom.R2(380, 380, 395, 395)); err != nil {
		t.Fatal(err)
	}
	// Not a base period later: the same instant, so no timer but the
	// joiner's own is due and only the join's messages can wake anyone.
	for s.turn(s.now); s.pending() > 0; {
		s.turn(s.now)
	}
	woken := 0
	s.mu.Lock()
	for id, a := range s.actors {
		if id == joiner || a.period != checkBase {
			continue
		}
		woken++
		if want := s.now.Add(checkBase); !a.due.Equal(want) {
			t.Errorf("woken actor %d is due at +%v, want one base period after the join (+%v)", id, a.due.Sub(s.epoch), want.Sub(s.epoch))
		}
	}
	s.mu.Unlock()
	if woken == 0 {
		t.Fatalf("no backed-off actor returned to the base period on the turn after a join: %v", s.periods())
	}
	s.settle(t)
	if s.Len() != 13 {
		t.Fatalf("Len = %d after the join settled", s.Len())
	}
}

// TestLiveStatsCountQueuedDepth: a message sent since the last turn is
// counted in Dispatched and in QueueHighWater alike — Stats never
// reports messages dispatched out of a FIFO that never held any.
func TestLiveStatsCountQueuedDepth(t *testing.T) {
	s := newSteppedLive(t)
	for id := core.ProcID(1); id <= 2; id++ {
		if err := s.Join(id, geom.R2(0, 0, 10, 10)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Dispatched < 1 || st.QueueHighWater < 1 {
		t.Fatalf("before any turn: %+v, want dispatched >= 1 and queue_high_water >= 1", st)
	}
	if q := s.pending(); st.QueueHighWater < q {
		t.Fatalf("queue_high_water %d below the %d messages queued", st.QueueHighWater, q)
	}
	s.step()
	if after := s.Stats(); after.QueueHighWater < st.QueueHighWater {
		t.Fatalf("queue_high_water fell from %d to %d", st.QueueHighWater, after.QueueHighWater)
	}
}

// TestSteppedLiveIsDeterministic: two stepped clusters given the same
// joins, filter updates, leave, crash and publishes at the same steps
// stand in byte-identical protocol states after every step. A turn that
// fired due timers in map order broke this.
func TestSteppedLiveIsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 5))
	const joiners, steps = 24, 240
	rects := make([]geom.Rect, joiners+1)
	for i := range rects {
		x, y := rng.Float64()*370, rng.Float64()*370
		rects[i] = geom.R2(x, y, x+10+rng.Float64()*40, y+10+rng.Float64()*40)
	}
	points := make([]geom.Point, steps)
	for i := range points {
		points[i] = geom.Point{rng.Float64() * 400, rng.Float64() * 400}
	}
	// script applies step k's operations; both clusters run the same one.
	script := func(s *steppedLive, k int) error {
		switch {
		case k == 0:
			for i := 0; i < joiners; i++ {
				if err := s.Join(core.ProcID(i+1), rects[i]); err != nil {
					return err
				}
			}
		case k == 60:
			for _, id := range []core.ProcID{2, 7, 19} {
				if err := s.UpdateFilter(id, rects[(int(id)*5)%joiners]); err != nil {
					return err
				}
			}
		case k == 90:
			return s.Leave(5)
		case k == 120:
			root, _ := s.Root()
			return s.Crash(root)
		case k == 150:
			return s.Join(joiners+1, rects[joiners])
		case k > 40 && k%3 == 0:
			ids := s.ProcIDs()
			return s.InjectEvent(ids[k%len(ids)], points[k])
		}
		return nil
	}
	a, b := newSteppedLive(t), newSteppedLive(t)
	for k := 0; k < steps; k++ {
		for _, s := range []*steppedLive{a, b} {
			if err := script(s, k); err != nil {
				t.Fatalf("step %d: %v", k, err)
			}
			s.step()
		}
		sa, _ := json.Marshal(a.ActorStates())
		sb, _ := json.Marshal(b.ActorStates())
		if !bytes.Equal(sa, sb) {
			t.Fatalf("step %d: the two runs diverged:\n%s\n%s", k, sa, sb)
		}
	}
	if err := a.CheckLegal(); err != nil {
		t.Fatalf("the scripted cluster is not legal after %d steps: %v", steps, err)
	}
}

// TestLivePaceDecidesFromState drives one actor's pacing by hand: what
// backs the timer off and what snaps it back is the node's protocol
// state, not the kind of message handled.
func TestLivePaceDecidesFromState(t *testing.T) {
	cfg := Config{MinFanout: 2, MaxFanout: 4}.withDefaults()
	n := newNode(1, geom.R2(0, 0, 10, 10), cfg)
	// A root over itself and two remote leaves.
	in := instance{parent: 1, mbr: geom.R2(0, 0, 30, 30)}
	in.putChild(1, geom.R2(0, 0, 10, 10), false)
	in.putChild(2, geom.R2(10, 10, 20, 20), false)
	in.putChild(3, geom.R2(20, 20, 30, 30), false)
	n.setInst(1, in)
	n.top = 1
	a := &liveActor{node: n, period: checkBase}
	turn := func(tick bool, fn func()) time.Duration {
		fn()
		n.pushUp()
		n.drainOut()
		return a.pace(tick)
	}
	tick := func() time.Duration { return turn(true, func() { n.periodic(1) }) }
	msg := func(from core.ProcID, payload any) time.Duration {
		return turn(false, func() { n.process(simnet.Message{From: simnet.NodeID(from), To: 1, Payload: payload}) })
	}

	if got := tick(); got != checkBase {
		t.Fatalf("first tick after creation re-arms %v, want the base period", got)
	}
	want := checkBase
	for i := 0; i < 8; i++ {
		want = min(2*want, checkCap)
		if got := tick(); got != want {
			t.Fatalf("quiescent tick %d re-arms %v, want %v", i, got, want)
		}
	}
	if a.period != checkCap {
		t.Fatalf("period %v after eight quiescent ticks, want the cap", a.period)
	}

	// Traffic that leaves the state alone wakes nothing: an event, a
	// probe, a probe answer confirming the cache.
	confirm := mChildReport{Height: 1, MBR: geom.R2(10, 10, 20, 20), ParentIs: 1, Exists: true}
	for name, p := range map[string]any{
		"event":            mEvent{ID: 7, Ev: geom.Point{15, 15}, Height: 1},
		"parent query":     mParentQuery{Height: 0, Child: 2},
		"confirming probe": confirm,
	} {
		if got := msg(2, p); got != 0 || a.period != checkCap {
			t.Fatalf("%s: re-arm %v, period %v; want the timer left at the cap", name, got, a.period)
		}
	}
	if got := tick(); got != checkCap {
		t.Fatalf("tick after state-neutral traffic re-arms %v, want the cap", got)
	}

	// A probe answer that changes a cached MBR snaps the timer back at
	// once, and the next tick still counts as disturbed.
	grown := confirm
	grown.MBR = geom.R2(10, 10, 25, 25)
	if got := msg(2, grown); got != checkBase || a.period != checkBase {
		t.Fatalf("changed cache: re-arm %v, period %v; want both at the base period", got, a.period)
	}
	if got := tick(); got != checkBase {
		t.Fatalf("tick after a change re-arms %v, want the base period", got)
	}
	if got := tick(); got != 2*checkBase {
		t.Fatalf("second tick after a change re-arms %v, want %v", got, 2*checkBase)
	}

	// A change made outside any turn (a fault injector) is caught by the
	// next turn, whatever that turn handles.
	a.period = checkCap
	n.at(1).underloaded = true
	if got := msg(2, mParentQuery{Height: 0, Child: 2}); got != checkBase {
		t.Fatalf("corruption seen by the next turn re-arms %v, want the base period", got)
	}

	// A pending re-join never backs off, however still the state is.
	n.rejoinPending = true
	for i := 0; i < 4; i++ {
		if got := turn(true, func() {}); got != checkBase {
			t.Fatalf("tick %d with a re-join pending re-arms %v, want the base period", i, got)
		}
	}
}

// TestLiveEagerPropagation: with every timer at the cap, a grown leaf
// filter reaches the root MBR hop by hop — well inside one cap period on
// a tree of height >= 2, where probe-carried propagation would need one
// period per level — and an event in the grown area is delivered.
func TestLiveEagerPropagation(t *testing.T) {
	lc := grownLive(t, 24, 43)
	if _, h := lc.Root(); h < 2 {
		t.Fatalf("tree height %d, the test needs >= 2", h)
	}
	awaitAllAtCap(t, lc)
	// A leaf-only process whose parent is not the root.
	root, _ := lc.Root()
	leaf := core.NoProc
	lc.mu.Lock()
	for _, id := range sortedIDs(lc.actors) {
		if n := lc.actors[id].node; n.top == 0 && n.at(0).parent != root {
			leaf = id
			break
		}
	}
	lc.mu.Unlock()
	if leaf == core.NoProc {
		t.Fatal("no leaf below a non-root parent")
	}
	old, _ := lc.Filter(leaf)
	grown := old.Union(geom.R2(700, 700, 720, 720))
	start := time.Now()
	if err := lc.UpdateFilter(leaf, grown); err != nil {
		t.Fatal(err)
	}
	for !lc.RootMBR().Contains(grown) {
		if time.Since(start) > checkCap {
			t.Fatalf("root MBR %v does not contain the grown filter %v one cap period after the update", lc.RootMBR(), grown)
		}
		time.Sleep(200 * time.Microsecond)
	}
	producer := core.ProcID(1)
	if producer == leaf {
		producer = 2
	}
	d, err := lc.Publish(producer, geom.Point{710, 710})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(d.TruePositives, leaf) {
		t.Fatalf("event in the grown area missed process %d: %+v", leaf, d)
	}
	if st := lc.Stabilize(); !st.Converged {
		t.Fatalf("no convergence after the update: %v", lc.CheckLegal())
	}
}

// auditSink is a substrate that records when, on the stepped clock,
// root-audit joins leave for the remote bootstrap contact.
type auditSink struct {
	now   *time.Time
	times []time.Time
}

func (s *auditSink) Send(msgs ...simnet.Message) {
	for _, m := range msgs {
		if _, ok := m.Payload.(mJoin); ok {
			s.times = append(s.times, *s.now)
		}
	}
}

// TestLiveRootAuditAtCap: a root whose timers fire every 64ms still
// audits its claim after every 100ms of tenure, not after every second
// tick (128ms), and auditing does not count as a change of state.
func TestLiveRootAuditAtCap(t *testing.T) {
	s := newSteppedLive(t)
	sink := &auditSink{now: &s.now}
	const remoteAnchor = 1000
	if err := s.AttachSubstrate(sink, func(p core.ProcID) bool { return p < remoteAnchor }); err != nil {
		t.Fatal(err)
	}
	// The first process roots itself (no contact yet); only then does the
	// cluster learn of a bootstrap contact on another daemon — a healed
	// partition seen from the minority side.
	if err := s.Join(1, geom.R2(0, 0, 10, 10)); err != nil {
		t.Fatal(err)
	}
	s.SetContact(func() core.ProcID { return remoteAnchor })
	s.settle(t)

	from := len(sink.times)
	const gaps = 4
	for i := 0; i < (gaps+1)*int(rootAuditAfter/checkBase); i++ {
		s.step()
	}
	at := sink.times[from:]
	if len(at) < gaps+1 {
		t.Fatalf("%d audits in %v from a root at the cap", len(at), (gaps+1)*rootAuditAfter)
	}
	for i := 1; i < len(at); i++ {
		if gap := at[i].Sub(at[i-1]); gap != rootAuditAfter {
			t.Fatalf("audit %d came %v after the previous one, want exactly %v of tenure", i, gap, rootAuditAfter)
		}
	}
	if p := s.periods()[1]; p != checkCap {
		t.Fatalf("root period %v while auditing, want the cap (audits must not count as changes)", p)
	}
}

// TestLiveBurstLosesNothing: a back-to-back burst of publishes on a
// stabilized overlay reaches every matching process — the FIFO has no
// drop path — and with a hook slow enough for the FIFO to reach its
// bound, InjectEvent waits for room instead of losing or failing.
func TestLiveBurstLosesNothing(t *testing.T) {
	const actors, events = 13, 4000
	for _, tc := range []struct {
		name string
		busy time.Duration
	}{{"fast hook", 0}, {"a 50µs hook fills the FIFO", 50 * time.Microsecond}} {
		t.Run(tc.name, func(t *testing.T) {
			lc, err := NewLiveCluster(Config{MinFanout: 2, MaxFanout: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer lc.Close()
			var fired atomic.Int64
			lc.SetEventHook(func(_ core.ProcID, _ int64, _ geom.Point, matched bool) {
				if matched {
					fired.Add(1)
				}
				// Spinning, not time.Sleep: a 50µs sleep takes a millisecond.
				for t0 := time.Now(); time.Since(t0) < tc.busy; {
				}
			})
			world := geom.R2(0, 0, 400, 400)
			for i := 1; i <= actors; i++ {
				if err := lc.Join(core.ProcID(i), world); err != nil {
					t.Fatal(err)
				}
			}
			if err := lc.AwaitLegal(30 * time.Second); err != nil {
				t.Fatal(err)
			}
			firedAtReturn := int64(0)
			for i := 0; i < events; i++ {
				if err := lc.InjectEvent(1, geom.Point{200, 200}); err != nil {
					t.Fatalf("inject %d: %v", i, err)
				}
				firedAtReturn = fired.Load()
			}
			const owed = actors * events
			deadline := time.Now().Add(60 * time.Second)
			for fired.Load() < owed && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			time.Sleep(20 * time.Millisecond) // a duplicate would show now
			st := lc.Stats()
			if got := fired.Load(); got != owed {
				t.Fatalf("%d matched hook firings for %d events at %d all-world actors, want exactly %d (stats %+v)", got, events, actors, owed, st)
			}
			if tc.busy == 0 {
				return
			}
			// The burst is injected in milliseconds and its hooks take
			// seconds: had InjectEvent not waited, it would have returned
			// with almost nothing fired and the whole burst queued.
			if st.QueueHighWater <= fifoBound {
				t.Fatalf("FIFO high water %d never passed the bound %d: the case proves nothing", st.QueueHighWater, fifoBound)
			}
			if firedAtReturn < owed/2 {
				t.Fatalf("the last InjectEvent returned with %d of %d hooks fired: it did not wait for room", firedAtReturn, owed)
			}
			t.Logf("FIFO high water %d (bound %d), %d of %d hooks fired when the last InjectEvent returned", st.QueueHighWater, fifoBound, firedAtReturn, owed)
		})
	}
}

// TestLiveGoroutinesIndependentOfActors: the runtime owns one goroutine
// however many actors it hosts, and Close gives it back.
func TestLiveGoroutinesIndependentOfActors(t *testing.T) {
	// A goroutine that has signalled its exit is counted for a moment
	// more (an earlier test's loop, and this one's after Close): counts
	// are read once they have stopped falling.
	goroutines := func() int {
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); {
			time.Sleep(5 * time.Millisecond)
			if m := runtime.NumGoroutine(); m >= n {
				break
			} else {
				n = m
			}
		}
		return n
	}
	before := goroutines()
	lc, err := NewLiveCluster(Config{MinFanout: 2, MaxFanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	join := func(from, to int) int {
		for i := from; i <= to; i++ {
			if err := lc.Join(core.ProcID(i), geom.R2(float64(i), 0, float64(i)+5, 5)); err != nil {
				t.Fatal(err)
			}
		}
		if err := lc.AwaitLegal(30 * time.Second); err != nil {
			t.Fatal(err)
		}
		return goroutines()
	}
	at4, at64 := join(1, 4), join(5, 64)
	if at4 != before+1 || at64 != at4 {
		t.Fatalf("%d goroutines before the cluster, %d with 4 actors, %d with 64: want one more, whatever the actor count", before, at4, at64)
	}
	lc.Close()
	if after := goroutines(); after != before {
		t.Fatalf("%d goroutines after Close, %d before the cluster", after, before)
	}
}

// TestReceiptSetWindowsPerRange: event IDs from different publisher
// ranges do not prune each other, and a quiet range's backlog does not
// make every later delivery rescan the set.
func TestReceiptSetWindowsPerRange(t *testing.T) {
	n := newNode(1, geom.R2(0, 0, 10, 10), Config{MinFanout: 2, MaxFanout: 4}.withDefaults())
	ev := geom.Point{5, 5}
	const lowBase, highBase = int64(1) << EventSpaceShift, int64(2) << EventSpaceShift

	// Fill the low range to the cap, then let one foreign-range event in.
	for i := int64(1); i <= seenCap; i++ {
		n.deliver(lowBase+i, ev)
	}
	n.deliver(highBase+1, ev)
	before := n.Delivered
	n.deliver(lowBase+seenCap, ev)   // the newest low-range event, again
	n.deliver(lowBase+seenCap-9, ev) // and a recent one
	if n.Delivered != before {
		t.Fatalf("a foreign-range arrival made the node forget recent receipts: %d duplicates delivered", n.Delivered-before)
	}

	// The high-range publisher leaves seenCap-1 receipts and goes quiet;
	// the low range keeps publishing.
	for i := int64(2); i < seenCap; i++ {
		n.deliver(highBase+i, ev)
	}
	scans := n.seen.scans
	const more = 10 * seenCap
	for i := int64(1); i <= more; i++ {
		n.deliver(lowBase+seenCap+i, ev)
	}
	// One scan per seenCap-seenWindow arrivals, give or take one.
	if got, max := n.seen.scans-scans, more/(seenCap-seenWindow)+2; got > max {
		t.Fatalf("%d prune scans for %d deliveries beside a quiet range, want <= %d", got, more, max)
	}
	if got := len(n.seen.ranges[lowBase>>EventSpaceShift]); got > seenCap {
		t.Fatalf("low range holds %d receipts, cap is %d", got, seenCap)
	}
	before = n.Delivered
	n.deliver(highBase+seenCap-1, ev)
	if n.Delivered != before {
		t.Fatal("the quiet range's latest receipt was pruned by another range's traffic")
	}
}
