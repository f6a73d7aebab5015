package proto

import (
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
	mu sync.Mutex
	// actorTable's lock is mu; a turn fires due timers in its order.
	actorTable
	closed bool
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

// checkTimer is a live node's CHECK_* pacing, guarded by the cluster lock
// (see pace): when the timers fire next (zero: a period after the next
// turn), the current period, the state fingerprint after the latest turn,
// whether any turn since the previous tick moved it, and since when the
// node has been a root without interruption (zero: it is not one).
type checkTimer struct {
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
	lc := &LiveCluster{
		msgsByEvent: make(map[int64]int),
		epoch:       time.Now(),
		wake:        make(chan struct{}, 1),
		done:        make(chan struct{}),
		stopped:     make(chan struct{}),
	}
	var err error
	if lc.actorTable, err = newActorTable(cfg, &lc.mu); err != nil {
		return nil, err
	}
	lc.turned.L = &lc.mu
	return lc, nil
}

// Join spawns a new subscriber actor and routes its JOIN request through
// the current root.
func (lc *LiveCluster) Join(id core.ProcID, filter geom.Rect) error {
	return lc.JoinFrom(core.NoProc, id, filter)
}

// JoinFrom spawns a new subscriber actor whose JOIN request routes
// through an explicit contact rather than the connection oracle (NoProc:
// the oracle, as Join).
func (lc *LiveCluster) JoinFrom(contact, id core.ProcID, filter geom.Rect) error {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if lc.closed {
		return fmt.Errorf("proto: live cluster closed")
	}
	n, err := lc.admit(id, filter, contact)
	if err != nil {
		return err
	}
	n.timer.period = checkBase
	n.deliverCB = func(eventID int64, ev geom.Point, matched bool) {
		if lc.hook != nil {
			lc.hookQ = append(lc.hookQ, hookFire{proc: id, event: eventID, ev: ev, matched: matched})
		}
	}
	// A process roots itself only when it is genuinely first: the first
	// actor of a purely local cluster, or the designated bootstrap
	// contact of a networked one. Everything else routes a JOIN through
	// the best known contact — the local oracle when a local stable root
	// exists, else the configured remote contact.
	if len(lc.order) > 1 || lc.remoteJoinNeededLocked(id) {
		// Mark the joiner pending before consulting the oracle: a freshly
		// created actor is self-parented and would otherwise be chosen as
		// its own contact on a networked cluster's first join.
		n.rejoinPending = true
		if contact == core.NoProc {
			contact = lc.contactLocked()
		}
		if contact != core.NoProc && contact != id {
			n.rejoin(contact, 0)
			lc.sendLocked(n.drainOut()...)
		} else {
			n.rejoinPending = false
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
	n, err := lc.updateFilter(id, f)
	if err != nil {
		return err
	}
	lc.sendLocked(n.drainOut()...)
	lc.wakeLocked()
	return nil
}

// Leave performs a controlled departure: the leaver notifies the parent
// of its topmost instance and its actor is gone; the periodic checks of
// the survivors repair the rest.
func (lc *LiveCluster) Leave(id core.ProcID) error {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	n, err := lc.leave(id)
	if err != nil {
		return err
	}
	lc.sendLocked(n.drainOut()...)
	lc.wakeLocked()
	return nil
}

// Crash kills an actor without notification.
func (lc *LiveCluster) Crash(id core.ProcID) error {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	_, err := lc.remove(id)
	return err
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
	for _, n := range lc.order {
		if !now.Before(n.timer.due) {
			if !n.timer.due.IsZero() { // a newcomer is only given its first due time
				lc.tickLocked(n, now)
			}
			lc.endTurnLocked(n, now, true)
		}
	}
	lc.stats.QueueHighWater = max(lc.stats.QueueHighWater, len(lc.fifo))
	n := 0
	for ; n < len(lc.fifo) && n < fifoBound; n++ { // handling m may append
		m := lc.fifo[n]
		if node := lc.nodes[core.ProcID(m.To)]; node != nil {
			if inj, ok := m.Payload.(mInject); ok {
				node.onEvent(mEvent{ID: inj.ID, Ev: inj.Ev, Height: node.top, Up: true, From: core.NoProc})
			} else {
				node.process(m)
			}
			lc.endTurnLocked(node, now, false)
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
	for _, n := range lc.order {
		if next.IsZero() || n.timer.due.Before(next) {
			next = n.timer.due
		}
	}
	fires, lc.hookQ = lc.hookQ, nil
	return fires, next
}

// tickLocked fires the node's CHECK_* timers and, on a networked cluster,
// the root audit.
func (lc *LiveCluster) tickLocked(n *Node, now time.Time) {
	n.periodic(lc.contactLocked())
	if lc.contactFn == nil {
		return
	}
	// Networked cluster: the local oracle cannot rule on root claims it
	// cannot see, so a root that has stayed one for rootAuditAfter
	// re-verifies through the global bootstrap contact and disjoint
	// trees on different daemons reconcile.
	t := &n.timer
	if !n.isRootInstance(n.top) {
		t.rootSince = time.Time{}
		return
	}
	if t.rootSince.IsZero() {
		t.rootSince = now
	} else if now.Sub(t.rootSince) >= rootAuditAfter {
		t.rootSince = now
		n.auditRoot(lc.contactFn())
	}
}

// endTurnLocked closes one turn of node n: the eager upward report
// (Node.pushUp), the dispatch of everything the turn sent, and the
// pacing decision. When pace asks for a period, n is due that long from
// now, rounded down to the grid (a timer fires just past a grid point, so
// a steady period stays exact) — or at its root audit, if that is sooner.
func (lc *LiveCluster) endTurnLocked(n *Node, now time.Time, tick bool) {
	n.pushUp()
	lc.sendLocked(n.drainOut()...)
	p := n.pace(tick)
	if p == 0 {
		return
	}
	t := &n.timer
	t.due = now.Add(p - (now.Sub(lc.epoch)+p)%checkBase)
	if audit := t.rootSince.Add(rootAuditAfter); !t.rootSince.IsZero() && audit.Before(t.due) {
		t.due = audit
	}
}

// pace decides n's CHECK_* period after a turn, from protocol state
// alone, and returns the period n's timers should run at from now on, or
// 0 to leave them as they are. A turn that moved the state fingerprint —
// and any change made from outside a turn since the last one
// (UpdateFilter, the fault injectors) — snaps the period to checkBase at
// once. A tick doubles the period when it and everything since the
// previous tick left the fingerprint alone and no re-join is pending (a
// pending re-join is retried every tick and must not wait); otherwise it
// stays at checkBase. Probe answers that confirm the caches, and event
// traffic, move nothing and wake nobody.
func (n *Node) pace(tick bool) time.Duration {
	t := &n.timer
	if fp := n.fingerprint(); fp != t.fp {
		t.fp, t.moved = fp, true
	}
	if !tick {
		if t.moved && t.period > checkBase {
			t.period = checkBase
			return checkBase
		}
		return 0
	}
	if t.moved || n.rejoinPending {
		t.period = checkBase
	} else {
		t.period = min(2*t.period, checkCap)
	}
	t.moved = false
	return t.period
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
		if to := core.ProcID(m.To); lc.remote != nil && lc.nodes[to] == nil && !lc.isLocal(to) {
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

// injectLocked queues the publication of ev at producer under event ID id.
func (lc *LiveCluster) injectLocked(producer core.ProcID, id int64, ev geom.Point) {
	to := simnet.NodeID(producer)
	lc.fifo = append(lc.fifo, simnet.Message{From: to, To: to, Payload: mInject{ID: id, Ev: ev}})
	lc.wakeLocked()
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
	for _, n := range lc.order {
		if n.timer.period > checkBase {
			st.BackedOff++
		}
	}
	return st
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
	ids, err := lc.openBatch(batch)
	if err != nil {
		return nil, err
	}
	for i, id := range ids {
		lc.msgsByEvent[id] = 0
		lc.injectLocked(batch[i].Producer, id, batch[i].Event)
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
	lc.census(out, batch, ids)
	return out, nil
}

// budgetDuration maps a round budget onto wall-clock time at one base
// check period per round (an actor under repair ticks at checkBase, so
// one period ≈ one round of repair opportunity; a backed-off actor's
// first tick adds at most checkCap, a few dozen rounds), so a configured
// budget means the same thing on both message-passing runtimes. 0 uses
// the same adaptive default as the round scheduler.
func (lc *LiveCluster) budgetDuration(configured int) time.Duration {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return time.Duration(lc.budget(configured)) * checkBase
}

// Stabilize waits for the actors' periodic checks to restore a legal
// configuration (the live runtime's RunUntilStable equivalent), within
// the Config.StabilizeBudget round budget mapped onto the actor tick.
func (lc *LiveCluster) Stabilize() core.StabReport {
	return core.StabReport{Converged: lc.AwaitLegal(lc.budgetDuration(lc.cfg.StabilizeBudget)) == nil}
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

// Close drops every actor, stops the loop and waits for it to exit;
// callers waiting for room return.
func (lc *LiveCluster) Close() error {
	lc.mu.Lock()
	if lc.closed {
		lc.mu.Unlock()
		return nil
	}
	lc.closed = true
	clear(lc.nodes)
	lc.order = nil
	lc.turned.Broadcast()
	lc.mu.Unlock()
	close(lc.done)
	<-lc.stopped
	return nil
}
