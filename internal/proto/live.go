package proto

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"time"

	"drtree/internal/core"
	"drtree/internal/geom"
	"drtree/internal/simnet"
)

// LiveCluster runs the same protocol actors as the deterministic Cluster
// in real time, on one run loop. Every local send appends to one FIFO of
// pending messages; the loop — the only goroutine the runtime owns — pops
// it until it is empty, so an event climbs and descends through every
// local actor in one wake-up, and sleeps on one timer until the earliest
// actor is due its CHECK_* timers (pace has the adaptive period). A
// message whose destination is gone when it is popped bounces to its
// sender like simnet's failure notices; only a destination on another
// daemon leaves through the Substrate. The actor logic is
// schedule-independent: the experiments use Cluster, the daemons this.
//
// Nothing is dropped. Three invariants stand where a drop path would:
//
//  1. The loop never waits on anything but its own wake-up:
//     Substrate.Send does not block, and hooks run after lc.mu is
//     released.
//  2. Every EventHook fires on the loop goroutine, never inside Join,
//     UpdateFilter, InjectEvent, PublishBatch or Deliver: no lock of a
//     caller is ever held under a hook.
//  3. Only the two event-plane entry points, InjectEvent and Deliver,
//     wait for room while the FIFO stands above fifoBound — the session's
//     or the link's reader stalls and TCP pushes back — and they wait
//     holding no lock the loop can want: the cluster lock is released for
//     the wait, and their callers hold none that a hook takes.
type LiveCluster struct {
	faults
	cfg Config

	mu     sync.Mutex
	actors map[core.ProcID]*liveActor
	// byID holds the same actors ordered by process ID: a turn fires due
	// timers in this order, so two stepped runs of one scenario send the
	// same messages in the same order.
	byID   []*liveActor
	closed bool
	nextE  int64
	// fifo holds the pending messages, oldest first; turned is broadcast
	// at the end of every turn, for those waiting for room or for an empty
	// FIFO. Actor due times sit on a checkBase grid counted from epoch, so
	// actors at one period share a wake-up.
	fifo   []simnet.Message
	turned sync.Cond
	epoch  time.Time
	// wake (one pending token is enough) and done are the loop's inputs;
	// the loop closes stopped on its way out.
	wake, done, stopped chan struct{}
	// stats counts dispatched messages and the event dissemination
	// messages among them (the Delivery.Messages metric); msgsByEvent
	// attributes event messages to the event ID they carry.
	stats       LiveStats
	msgsByEvent map[int64]int

	// Remote substrate plumbing (see liveremote.go); all nil/zero for a
	// purely local cluster.
	remote    Substrate
	isLocal   func(core.ProcID) bool
	contactFn func() core.ProcID
	hook      EventHook
	hookQ     []hookFire
}

// fifoBound is how deep the FIFO may stand before InjectEvent and Deliver
// wait, and how many messages one turn pops before it hands back its
// hooks and looks at the timers again. A message turn costs about a
// microsecond, so 1024 of them hold a due CHECK_* timer or a hook back by
// half a base period at worst, while a burst of a few hundred publishes
// (each one message here and a handful more per level) never waits.
const fifoBound = 1024

type liveActor struct {
	node *Node

	// Timer pacing, guarded by the cluster lock (see pace): when the
	// CHECK_* timers fire next (zero: a period after the next turn), the
	// current period, the state fingerprint after the latest turn, whether
	// any turn since the previous tick moved it, and since when the node
	// has been a root without interruption (zero: it is not one).
	due       time.Time
	period    time.Duration
	fp        uint64
	moved     bool
	rootSince time.Time
}

// NewLiveCluster creates an empty concurrent cluster and starts its loop.
func NewLiveCluster(cfg Config) (*LiveCluster, error) {
	lc, err := newLiveCluster(cfg)
	if err == nil {
		go lc.loop()
	}
	return lc, err
}

// newLiveCluster builds a cluster without its loop: a test steps it by
// calling turn with times of its own, counted from lc.epoch.
func newLiveCluster(cfg Config) (*LiveCluster, error) {
	cfg = cfg.withDefaults()
	if cfg.MinFanout < 1 || cfg.MaxFanout < 2*cfg.MinFanout {
		return nil, fmt.Errorf("proto: invalid fanout bounds m=%d M=%d", cfg.MinFanout, cfg.MaxFanout)
	}
	lc := &LiveCluster{
		cfg:         cfg,
		actors:      make(map[core.ProcID]*liveActor),
		msgsByEvent: make(map[int64]int),
		epoch:       time.Now(),
		wake:        make(chan struct{}, 1),
		done:        make(chan struct{}),
		stopped:     make(chan struct{}),
	}
	lc.turned.L = &lc.mu
	lc.faults.apply = lc.corrupt
	return lc, nil
}

// Join spawns a new subscriber actor and routes its JOIN request through
// the current root.
func (lc *LiveCluster) Join(id core.ProcID, filter geom.Rect) error {
	return lc.join(id, filter, core.NoProc)
}

// JoinFrom spawns a new subscriber actor whose JOIN request routes
// through an explicit contact rather than the connection oracle.
func (lc *LiveCluster) JoinFrom(contact, id core.ProcID, filter geom.Rect) error {
	return lc.join(id, filter, contact)
}

func (lc *LiveCluster) join(id core.ProcID, filter geom.Rect, contact core.ProcID) error {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if lc.closed {
		return fmt.Errorf("proto: live cluster closed")
	}
	if id <= core.NoProc || filter.IsEmpty() {
		return fmt.Errorf("proto: invalid id or filter")
	}
	if lc.actors[id] != nil {
		return fmt.Errorf("proto: process %d already joined", id)
	}
	if contact != core.NoProc && lc.actors[contact] == nil {
		return core.NotMemberf("proto: contact %d not in the cluster", contact)
	}
	a := &liveActor{node: newNode(id, filter, lc.cfg), period: checkBase}
	lc.actors[id] = a
	i, _ := slices.BinarySearchFunc(lc.byID, id, func(b *liveActor, id core.ProcID) int { return cmp.Compare(b.node.id, id) })
	lc.byID = slices.Insert(lc.byID, i, a)
	a.node.deliverCB = func(eventID int64, ev geom.Point, matched bool) {
		if lc.hook != nil {
			lc.hookQ = append(lc.hookQ, hookFire{proc: id, event: eventID, ev: ev, matched: matched})
		}
	}
	// A process roots itself only when it is genuinely first: the first
	// actor of a purely local cluster, or the designated bootstrap
	// contact of a networked one. Everything else routes a JOIN through
	// the best known contact — the local oracle when a local stable root
	// exists, else the configured remote contact.
	if len(lc.actors) > 1 || lc.remoteJoinNeededLocked(id) {
		// Mark the joiner pending before consulting the oracle: a freshly
		// created actor is self-parented and would otherwise be chosen as
		// its own contact on a networked cluster's first join.
		a.node.rejoinPending = true
		if contact == core.NoProc {
			contact = lc.contactLocked()
		}
		if contact != core.NoProc && contact != id {
			a.node.rejoin(contact, 0)
			lc.sendLocked(a.node.drainOut()...)
		} else {
			a.node.rejoinPending = false
		}
	}
	lc.wakeLocked()
	return nil
}

// UpdateFilter replaces the subscription filter of live process id: the
// FILTER_UPDATE is applied here, under the cluster lock, its report to
// the parent rides the FIFO, and each ancestor's pushUp carries the MBR
// change on to the root; Stabilize (AwaitLegal) confirms convergence.
func (lc *LiveCluster) UpdateFilter(id core.ProcID, f geom.Rect) error {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if lc.closed {
		return fmt.Errorf("proto: live cluster closed")
	}
	a := lc.actors[id]
	if a == nil {
		return core.NotMemberf("proto: process %d not in the cluster", id)
	}
	if f.IsEmpty() {
		return fmt.Errorf("proto: filter must be non-empty")
	}
	if f.Dims() != a.node.filter.Dims() {
		return fmt.Errorf("proto: filter has %d dims, cluster uses %d", f.Dims(), a.node.filter.Dims())
	}
	a.node.onFilterUpdate(mFilterUpdate{Filter: f})
	lc.sendLocked(a.node.drainOut()...)
	lc.wakeLocked()
	return nil
}

// Leave performs a controlled departure: the leaver notifies the parent
// of its topmost instance and its actor is gone; the periodic checks of
// the survivors repair the rest.
func (lc *LiveCluster) Leave(id core.ProcID) error {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	a := lc.actors[id]
	if a == nil {
		return core.NotMemberf("proto: process %d not in the cluster", id)
	}
	n := a.node
	if in := n.at(n.top); in != nil && in.parent != id {
		n.send(in.parent, mLeave{Height: n.top + 1, Child: id})
		lc.sendLocked(n.drainOut()...)
		lc.wakeLocked()
	}
	lc.removeLocked(a)
	return nil
}

// Crash kills an actor without notification.
func (lc *LiveCluster) Crash(id core.ProcID) error {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	a := lc.actors[id]
	if a == nil {
		return core.NotMemberf("proto: process %d not in the cluster", id)
	}
	lc.removeLocked(a)
	return nil
}

// removeLocked drops actor a from the cluster's map and its ID order.
func (lc *LiveCluster) removeLocked(a *liveActor) {
	delete(lc.actors, a.node.id)
	lc.byID = slices.DeleteFunc(lc.byID, func(b *liveActor) bool { return b == a })
}

// The CHECK_* period of a live actor. The paper leaves the period of its
// stabilization modules free; a fixed short one keeps a converged overlay
// busy doing nothing (13 actors at 2ms exchange ~15k probes and answers a
// second). So the period adapts, with no knob: checkBase while the node's
// protocol state moves, doubling after every quiescent tick up to
// checkCap, back to checkBase the moment it moves again.
//
// checkCap is the longest a silent fault — a crashed neighbour, a
// corrupted variable: nothing that sends this node a message — can wait
// to be noticed; once noticed, repair runs at checkBase. 64ms keeps that
// wait under the root-audit delay and under 4% of the smallest adaptive
// Stabilize budget (800 rounds of checkBase = 1.6s), and five quiet
// ticks (62ms) reach it. It bounds detection only: MBR changes do not
// wait for probes (Node.pushUp).
const (
	checkBase = 2 * time.Millisecond
	checkCap  = 64 * time.Millisecond
)

// underloadPatience is how many consecutive check periods a non-root
// instance tolerates being underloaded before dissolving and
// re-inserting its children (the Figure 14 fallback), in both runtimes:
// a tick of the live timers or a check period of Cluster.
const underloadPatience = 2

// rootAuditAfter gates auditRoot on networked clusters: a node must have
// been a stable self-proclaimed root for this long without interruption,
// as seen by its ticks, before it re-verifies the claim through the
// cluster's global contact function. Auditing only from quiescent trees
// matters: an audit answered mid-churn can shed levels off a tree that
// was about to repair itself, and concurrent merges from several
// half-formed roots feed the very churn the audit is meant to end. It is
// a duration, not a tick count, so partition-heal time does not stretch
// when the root's timer has backed off.
const rootAuditAfter = 100 * time.Millisecond

// loop is the cluster's one goroutine: wait for a wake-up or the timer,
// take a turn, fire its hooks, set the timer for the next actor due.
func (lc *LiveCluster) loop() {
	defer close(lc.stopped)
	timer := time.NewTimer(0)
	defer timer.Stop()
	for {
		select {
		case <-lc.done:
			return
		case <-lc.wake:
		case <-timer.C:
		}
		fires, next := lc.turn(time.Now())
		lc.fireHooks(fires)
		if next.IsZero() {
			timer.Stop()
		} else {
			timer.Reset(time.Until(next))
		}
	}
}

// wakeLocked tells the loop there is work; every entry point that puts
// something in the FIFO from outside a turn ends with it.
func (lc *LiveCluster) wakeLocked() {
	select {
	case lc.wake <- struct{}{}:
	default:
	}
}

// turn is the loop body: fire the timers of every actor due at now,
// drain the FIFO, and hand back the hooks owed with the time the next
// actor is due (zero: there is none). Actor turns are serialized under
// the cluster lock, which keeps the legality snapshot (and the race
// detector) happy while preserving the message-driven semantics. It pops
// at most fifoBound messages, so an exchange that feeds itself (a JOIN
// climbing a corrupted parent cycle) starves neither timers nor hooks;
// what is left wakes the loop again at once.
func (lc *LiveCluster) turn(now time.Time) (fires []hookFire, next time.Time) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	for _, a := range lc.byID {
		if !now.Before(a.due) {
			if !a.due.IsZero() { // a newcomer is only given its first due time
				lc.tickLocked(a, now)
			}
			lc.endTurnLocked(a, now, true)
		}
	}
	lc.stats.QueueHighWater = max(lc.stats.QueueHighWater, len(lc.fifo))
	n := 0
	for ; n < len(lc.fifo) && n < fifoBound; n++ { // handling m may append
		m := lc.fifo[n]
		if a := lc.actors[core.ProcID(m.To)]; a != nil {
			if inj, ok := m.Payload.(mInject); ok {
				a.node.onEvent(mEvent{ID: inj.ID, Ev: inj.Ev, Height: a.node.top, Up: true, From: core.NoProc})
			} else {
				a.node.process(m)
			}
			lc.endTurnLocked(a, now, false)
		} else if _, isBounce := m.Payload.(simnet.Bounce); !isBounce {
			// The failure notice simnet gives for a dead mailbox; a
			// bounce is never bounced.
			lc.sendLocked(simnet.Message{
				From: m.To, To: m.From,
				Payload: simnet.Bounce{To: m.To, Original: m.Payload},
			})
		}
	}
	// Delete zeroes what it vacates, so no handled payload stays pinned.
	if lc.fifo = slices.Delete(lc.fifo, 0, n); len(lc.fifo) > 0 {
		lc.wakeLocked()
	}
	lc.turned.Broadcast()
	for _, a := range lc.actors {
		if next.IsZero() || a.due.Before(next) {
			next = a.due
		}
	}
	fires, lc.hookQ = lc.hookQ, nil
	return fires, next
}

// tickLocked fires the node's CHECK_* timers and, on a networked cluster,
// the root audit.
func (lc *LiveCluster) tickLocked(a *liveActor, now time.Time) {
	a.node.periodic(lc.contactLocked())
	if lc.contactFn == nil {
		return
	}
	// Networked cluster: the local oracle cannot rule on root claims it
	// cannot see, so a root that has stayed one for rootAuditAfter
	// re-verifies through the global bootstrap contact and disjoint
	// trees on different daemons reconcile.
	if !a.node.isRootInstance(a.node.top) {
		a.rootSince = time.Time{}
		return
	}
	if a.rootSince.IsZero() {
		a.rootSince = now
	} else if now.Sub(a.rootSince) >= rootAuditAfter {
		a.rootSince = now
		a.node.auditRoot(lc.contactFn())
	}
}

// endTurnLocked closes one turn of actor a: the eager upward report
// (Node.pushUp), the dispatch of everything the turn sent, and the
// pacing decision. When pace asks for a period, a is due that long from
// now, rounded down to the grid (a timer fires just past a grid point, so
// a steady period stays exact) — or at its root audit, if that is sooner.
func (lc *LiveCluster) endTurnLocked(a *liveActor, now time.Time, tick bool) {
	a.node.pushUp()
	lc.sendLocked(a.node.drainOut()...)
	p := a.pace(tick)
	if p == 0 {
		return
	}
	a.due = now.Add(p - (now.Sub(lc.epoch)+p)%checkBase)
	if audit := a.rootSince.Add(rootAuditAfter); !a.rootSince.IsZero() && audit.Before(a.due) {
		a.due = audit
	}
}

// pace decides a's CHECK_* period after a turn, from protocol state
// alone, and returns the period a's timers should run at from now on, or
// 0 to leave them as they are. A turn that moved the state fingerprint —
// and any change made from outside a turn since the last one
// (UpdateFilter, the fault injectors) — snaps the period to checkBase at
// once. A tick doubles the period when it and everything since the
// previous tick left the fingerprint alone and no re-join is pending (a
// pending re-join is retried every tick and must not wait); otherwise it
// stays at checkBase. Probe answers that confirm the caches, and event
// traffic, move nothing and wake nobody.
func (a *liveActor) pace(tick bool) time.Duration {
	if fp := a.node.fingerprint(); fp != a.fp {
		a.fp, a.moved = fp, true
	}
	if !tick {
		if a.moved && a.period > checkBase {
			a.period = checkBase
			return checkBase
		}
		return 0
	}
	if a.moved || a.node.rejoinPending {
		a.period = checkBase
	} else {
		a.period = min(2*a.period, checkCap)
	}
	a.moved = false
	return a.period
}

// sendLocked counts what local actors (and the bounces made for them)
// send, hands a message for another daemon's process to the attached
// substrate and appends every other one to the FIFO: whether a local
// destination still exists is decided when the message is popped.
func (lc *LiveCluster) sendLocked(msgs ...simnet.Message) {
	for _, m := range msgs {
		lc.stats.Dispatched++
		if ev, ok := m.Payload.(mEvent); ok {
			lc.stats.EventMsgs++
			// Attribute to the owning publish only while it is being
			// tracked, so stragglers past a budget expiry cannot grow the
			// map without bound.
			if _, tracked := lc.msgsByEvent[ev.ID]; tracked {
				lc.msgsByEvent[ev.ID]++
			}
		}
		if to := core.ProcID(m.To); lc.remote != nil && lc.actors[to] == nil && !lc.isLocal(to) {
			lc.remote.Send(m)
		} else {
			lc.fifo = append(lc.fifo, m)
		}
	}
}

// mInject is a publication waiting in the FIFO (never on a wire): popped,
// it starts at the producer's topmost instance as it then stands.
type mInject struct {
	ID int64
	Ev geom.Point
}

// injectLocked queues the publication of ev at producer under a new ID.
func (lc *LiveCluster) injectLocked(producer core.ProcID, ev geom.Point) int64 {
	lc.nextE++
	to := simnet.NodeID(producer)
	lc.fifo = append(lc.fifo, simnet.Message{From: to, To: to, Payload: mInject{ID: lc.nextE, Ev: ev}})
	lc.wakeLocked()
	return lc.nextE
}

// awaitRoomLocked parks an event-plane entry point while the FIFO stands
// above its bound (invariant 3); waiting releases the cluster lock.
func (lc *LiveCluster) awaitRoomLocked() {
	for len(lc.fifo) > fifoBound && !lc.closed {
		lc.turned.Wait()
	}
}

// LiveStats are the live runtime's own counters (Stats).
type LiveStats struct {
	// Dispatched counts messages sent by local actors, local and remote
	// destinations alike; EventMsgs counts the event dissemination
	// messages among them.
	Dispatched uint64 `json:"dispatched"`
	EventMsgs  uint64 `json:"event_msgs"`
	// QueueHighWater is the deepest the FIFO has stood at the start of a
	// turn, the next turn included (it starts with what Stats finds
	// queued): how near its bound, where publishers and links start to
	// wait, the cluster runs.
	QueueHighWater int `json:"queue_high_water"`
	// BackedOff is the number of actors whose CHECK_* period currently
	// stands above the base period.
	BackedOff int `json:"backed_off"`
}

// Stats snapshots the runtime counters.
func (lc *LiveCluster) Stats() LiveStats {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	st := lc.stats
	// Stats never runs inside a turn (both hold lc.mu), so messages sent
	// since the last turn are all still queued: count them as the next
	// turn's starting depth, or Dispatched could stand beside a zero.
	st.QueueHighWater = max(st.QueueHighWater, len(lc.fifo))
	for _, a := range lc.actors {
		if a.period > checkBase {
			st.BackedOff++
		}
	}
	return st
}

// oracleLocked returns the best contact: the tallest self-parented actor.
func (lc *LiveCluster) oracleLocked() core.ProcID {
	best := core.NoProc
	bestH := -1
	for id, a := range lc.actors {
		n := a.node
		in := n.at(n.top)
		if in == nil || in.parent != id || n.rejoinPending {
			continue
		}
		if n.top > bestH || (n.top == bestH && (best == core.NoProc || id < best)) {
			best, bestH = id, n.top
		}
	}
	return best
}

// Publish injects an event at the producer and waits for the
// dissemination to quiesce. It is PublishBatch with a batch of one.
func (lc *LiveCluster) Publish(producer core.ProcID, ev geom.Point) (core.Delivery, error) {
	ds, err := lc.PublishBatch([]core.Publication{{Producer: producer, Event: ev}})
	if err != nil {
		return core.Delivery{}, err
	}
	return ds[0], nil
}

// PublishBatch queues every event of the batch at its producer under one
// hold of the cluster lock — the whole batch is in the FIFO at once — and
// waits for the loop to report the FIFO empty: event messages beget only
// event messages, so by then every copy has been handled, and one wait
// covers the whole batch. The PublishBudget bounds the wait when other
// publishers keep the FIFO standing. Messages counts only the event
// messages carrying each entry's event ID (periodic check traffic keeps
// flowing in the background); Rounds is always 0 — the live runtime has
// no round clock.
func (lc *LiveCluster) PublishBatch(batch []core.Publication) ([]core.Delivery, error) {
	out := make([]core.Delivery, len(batch))
	if len(batch) == 0 {
		return out, nil
	}
	budget := lc.budgetDuration(lc.cfg.PublishBudget)
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if lc.closed {
		return nil, fmt.Errorf("proto: live cluster closed")
	}
	for i := range batch {
		if lc.actors[batch[i].Producer] == nil {
			return nil, core.NotMemberf("proto: producer %d not in the cluster", batch[i].Producer)
		}
	}
	ids := make([]int64, len(batch))
	for i := range batch {
		ids[i] = lc.injectLocked(batch[i].Producer, batch[i].Event)
		for _, b := range lc.actors {
			b.node.seen.forget(ids[i])
		}
		lc.msgsByEvent[ids[i]] = 0
	}

	// A FIFO that is not empty has the loop taking turns back to back, so
	// the next broadcast, and look at the deadline, is never far.
	for deadline := time.Now().Add(budget); len(lc.fifo) > 0 && !lc.closed && time.Now().Before(deadline); {
		lc.turned.Wait()
	}

	for i, id := range ids {
		out[i].Messages = lc.msgsByEvent[id]
		delete(lc.msgsByEvent, id)
	}
	census(out, batch, ids, sortedIDs(lc.actors), func(id core.ProcID) *Node { return lc.actors[id].node })
	return out, nil
}

// budgetDuration maps a round budget onto wall-clock time at one base
// check period per round (an actor under repair ticks at checkBase, so
// one period ≈ one round of repair opportunity; a backed-off actor's
// first tick adds at most checkCap, a few dozen rounds), so a configured
// budget means the same thing on both message-passing runtimes. 0 uses
// the same adaptive default as the round scheduler.
func (lc *LiveCluster) budgetDuration(configured int) time.Duration {
	if configured <= 0 {
		configured = 800 + 200*lc.Len()
	}
	return time.Duration(configured) * checkBase
}

// Stabilize waits for the actors' periodic checks to restore a legal
// configuration (the live runtime's RunUntilStable equivalent), within
// the Config.StabilizeBudget round budget mapped onto the actor tick.
func (lc *LiveCluster) Stabilize() core.StabReport {
	return core.StabReport{Converged: lc.AwaitLegal(lc.budgetDuration(lc.cfg.StabilizeBudget)) == nil}
}

// Root returns the root process and height from the omniscient view
// (tallest self-parented topmost instance), or (NoProc, -1).
func (lc *LiveCluster) Root() (core.ProcID, int) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	id := lc.oracleLocked()
	if id == core.NoProc {
		return core.NoProc, -1
	}
	return id, lc.actors[id].node.top
}

// RootMBR returns the MBR of the root instance, or the empty rectangle.
func (lc *LiveCluster) RootMBR() geom.Rect {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	id := lc.oracleLocked()
	if id == core.NoProc {
		return geom.Rect{}
	}
	n := lc.actors[id].node
	return n.at(n.top).mbr
}

// ProcIDs returns live process IDs, ascending.
func (lc *LiveCluster) ProcIDs() []core.ProcID {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return sortedIDs(lc.actors)
}

// Filter returns the subscription rectangle of process id.
func (lc *LiveCluster) Filter(id core.ProcID) (geom.Rect, bool) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	a := lc.actors[id]
	if a == nil {
		return geom.Rect{}, false
	}
	return a.node.filter, true
}

// corrupt applies a transient fault (see faults) under the cluster lock.
func (lc *LiveCluster) corrupt(id core.ProcID, h int, fn func(*instance)) error {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if a := lc.actors[id]; a != nil {
		return corruptNode(a.node, id, h, fn)
	}
	return corruptNode(nil, id, h, fn)
}

// AwaitLegal polls until the configuration is legal and no re-join is
// pending, or the timeout expires.
func (lc *LiveCluster) AwaitLegal(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var last error
	for time.Now().Before(deadline) {
		if last = lc.CheckLegal(); last == nil {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("proto: live cluster did not become legal: %w", last)
}

// CheckLegal verifies Definition 3.1 on a frozen membership snapshot: no
// re-join pending, and the nodes' local states legal (checkLegal).
func (lc *LiveCluster) CheckLegal() error {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	nodes := make(map[core.ProcID]*Node, len(lc.actors))
	for id, a := range lc.actors {
		if a.node.rejoinPending {
			return fmt.Errorf("proto: process %d awaiting re-join", id)
		}
		nodes[id] = a.node
	}
	return checkLegal(lc.cfg, nodes)
}

// Len returns the live population.
func (lc *LiveCluster) Len() int {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return len(lc.actors)
}

// Close drops every actor, stops the loop and waits for it to exit;
// callers waiting for room return.
func (lc *LiveCluster) Close() error {
	lc.mu.Lock()
	if lc.closed {
		lc.mu.Unlock()
		return nil
	}
	lc.closed = true
	clear(lc.actors)
	lc.byID = nil
	lc.turned.Broadcast()
	lc.mu.Unlock()
	close(lc.done)
	<-lc.stopped
	return nil
}
