package proto

import (
	"fmt"
	"sync"
	"time"

	"drtree/internal/core"
	"drtree/internal/geom"
	"drtree/internal/simnet"
)

// LiveCluster drives the same protocol actors with one goroutine per
// process and real channels instead of the deterministic round scheduler:
// the concurrent runtime the repro hint calls for ("goroutines fit node
// simulation naturally"). Each actor goroutine drains its mailbox and
// fires its CHECK_* timers on a real ticker whose period adapts: checkBase
// while the node's protocol state is moving, doubling up to checkCap
// while it is not (see run). An undeliverable send (dead mailbox) bounces
// back to the sender like the round-based substrate's failure notices.
//
// LiveCluster trades determinism for real concurrency; the experiments
// use the deterministic Cluster, and the live runtime demonstrates that
// the actor logic is schedule-independent.
type LiveCluster struct {
	faults
	cfg Config

	mu     sync.Mutex
	actors map[core.ProcID]*liveActor
	wg     sync.WaitGroup
	closed bool
	nextE  int64
	// stats counts dispatched messages, the event dissemination messages
	// among them (the Delivery.Messages metric) and mailbox drops;
	// msgsByEvent attributes event messages to the event ID they carry;
	// pendingEvents counts event messages enqueued in mailboxes but not
	// yet processed (Publish waits for it to reach zero).
	stats         LiveStats
	msgsByEvent   map[int64]int
	pendingEvents int

	// Remote substrate plumbing (see liveremote.go); all nil/zero for a
	// purely local cluster, which keeps the historical behaviour intact.
	remote    Substrate
	isLocal   func(core.ProcID) bool
	contactFn func() core.ProcID
	hook      EventHook
	hookQ     []hookFire
}

type liveActor struct {
	node *Node
	box  chan simnet.Message
	stop chan struct{}

	// Timer pacing, guarded by the cluster lock (see pace): the current
	// CHECK_* period, the state fingerprint after the latest turn, whether
	// any turn since the previous tick moved it, and since when the node
	// has been a root without interruption (zero: it is not one).
	period    time.Duration
	fp        uint64
	moved     bool
	rootSince time.Time
}

// NewLiveCluster creates an empty concurrent cluster.
func NewLiveCluster(cfg Config) (*LiveCluster, error) {
	cfg = cfg.withDefaults()
	if cfg.MinFanout < 1 || cfg.MaxFanout < 2*cfg.MinFanout {
		return nil, fmt.Errorf("proto: invalid fanout bounds m=%d M=%d", cfg.MinFanout, cfg.MaxFanout)
	}
	lc := &LiveCluster{
		cfg:         cfg,
		actors:      make(map[core.ProcID]*liveActor),
		msgsByEvent: make(map[int64]int),
	}
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
	lc.mu.Lock()
	known := lc.actors[contact] != nil
	lc.mu.Unlock()
	if !known {
		return fmt.Errorf("proto: contact %d not in the cluster", contact)
	}
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
	a := &liveActor{
		node: newNode(id, filter, lc.cfg),
		box:  make(chan simnet.Message, 256),
		stop: make(chan struct{}),

		period: checkBase,
	}
	lc.actors[id] = a
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
			lc.dispatchLocked(a.node.drainOut())
		} else {
			a.node.rejoinPending = false
		}
	}
	lc.wg.Add(1)
	go lc.run(a)
	return nil
}

// UpdateFilter replaces the subscription filter of live process id (the
// FilterUpdater capability): the FILTER_UPDATE is applied in the owning
// actor's next locked turn, and the periodic CHECK_MBR probes carry the
// MBR change to the root; Stabilize (AwaitLegal) confirms convergence.
func (lc *LiveCluster) UpdateFilter(id core.ProcID, f geom.Rect) error {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if lc.closed {
		return fmt.Errorf("proto: live cluster closed")
	}
	a := lc.actors[id]
	if a == nil {
		return fmt.Errorf("proto: process %d not in the cluster", id)
	}
	if f.IsEmpty() {
		return fmt.Errorf("proto: filter must be non-empty")
	}
	if f.Dims() != a.node.filter.Dims() {
		return fmt.Errorf("proto: filter has %d dims, cluster uses %d", f.Dims(), a.node.filter.Dims())
	}
	a.node.process(simnet.Message{
		From:    simnet.NodeID(id),
		To:      simnet.NodeID(id),
		Payload: mFilterUpdate{Filter: f},
	})
	lc.dispatchLocked(a.node.drainOut())
	return nil
}

// Leave performs a controlled departure: the leaver notifies the parent
// of its topmost instance and its actor stops; the periodic checks of
// the survivors repair the rest.
func (lc *LiveCluster) Leave(id core.ProcID) error {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	a := lc.actors[id]
	if a == nil {
		return fmt.Errorf("proto: process %d not in the cluster", id)
	}
	n := a.node
	if in := n.at(n.top); in != nil && in.parent != id {
		lc.dispatchLocked([]simnet.Message{{
			From:    simnet.NodeID(id),
			To:      simnet.NodeID(in.parent),
			Payload: mLeave{Height: n.top + 1, Child: id},
		}})
	}
	delete(lc.actors, id)
	close(a.stop)
	return nil
}

// Crash kills an actor without notification.
func (lc *LiveCluster) Crash(id core.ProcID) error {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	a := lc.actors[id]
	if a == nil {
		return fmt.Errorf("proto: process %d not in the cluster", id)
	}
	delete(lc.actors, id)
	close(a.stop)
	return nil
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

// run is one actor goroutine: drain the mailbox, fire periodic checks.
// The ticker is re-armed only when the period changes: a goroutine that
// reset a one-shot timer after every tick measured ~60µs slower publish
// acks at the base period than the runtime re-arming a ticker itself.
func (lc *LiveCluster) run(a *liveActor) {
	defer lc.wg.Done()
	armed := checkBase
	ticker := time.NewTicker(armed)
	defer ticker.Stop()
	for {
		var rearm time.Duration
		select {
		case <-a.stop:
			return
		case m := <-a.box:
			rearm = lc.withActor(a, false, func() {
				if _, ok := m.Payload.(mEvent); ok {
					lc.pendingEvents--
				}
				a.node.process(m)
			})
		case <-ticker.C:
			rearm = lc.withActor(a, true, func() { lc.tickLocked(a) })
		}
		if rearm > 0 && rearm != armed {
			armed = rearm
			ticker.Reset(armed)
		}
	}
}

// tickLocked fires the node's CHECK_* timers and, on a networked cluster,
// the root audit.
func (lc *LiveCluster) tickLocked(a *liveActor) {
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
	now := time.Now()
	if a.rootSince.IsZero() {
		a.rootSince = now
	} else if now.Sub(a.rootSince) >= rootAuditAfter {
		a.rootSince = now
		a.node.auditRoot(lc.contactFn())
	}
}

// withActor runs fn as one turn of actor a under the cluster lock: actor
// turns are serialized, which keeps the legality snapshot (and the race
// detector) happy while preserving the message-driven semantics. The
// turn ends with the eager upward report (Node.pushUp), the dispatch of
// everything it sent, and the pacing decision; the result is the period
// a's ticker should run at from now on, or 0 to leave it as it is.
func (lc *LiveCluster) withActor(a *liveActor, tick bool, fn func()) time.Duration {
	lc.mu.Lock()
	fn()
	a.node.pushUp()
	lc.dispatchLocked(a.node.drainOut())
	rearm := a.pace(tick)
	fires := lc.takeHooksLocked()
	lc.mu.Unlock()
	lc.fireHooks(fires)
	return rearm
}

// pace decides a's CHECK_* period after a turn, from protocol state
// alone. A turn that moved the state fingerprint — and any change made
// from outside a turn since the last one (UpdateFilter, the fault
// injectors) — snaps the period to checkBase and asks for the ticker to
// be re-armed at once. A tick doubles the period when it and everything
// since the previous tick left the fingerprint alone and no re-join is
// pending (a pending re-join is retried every tick and must not wait);
// otherwise it stays at checkBase. Probe answers that confirm the
// caches, and event traffic, move nothing and wake nobody. A root due an
// audit before its next tick is woken for it.
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
	if !a.rootSince.IsZero() {
		// Never below checkBase: a ticker takes no non-positive period.
		return min(a.period, max(checkBase, rootAuditAfter-time.Since(a.rootSince)))
	}
	return a.period
}

// dispatchLocked delivers outgoing messages to mailboxes; sends to dead
// mailboxes bounce back to the sender, sends to saturated ones are
// dropped and counted.
func (lc *LiveCluster) dispatchLocked(msgs []simnet.Message) {
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
		dst := lc.actors[core.ProcID(m.To)]
		if dst == nil {
			// A destination owned by another daemon rides the attached
			// substrate; only a vanished local process bounces here.
			if lc.remote != nil && lc.isLocal != nil && !lc.isLocal(core.ProcID(m.To)) {
				lc.remote.Send(m)
				continue
			}
			if src := lc.actors[core.ProcID(m.From)]; src != nil {
				lc.enqueueLocked(src, simnet.Message{
					From: m.To, To: m.From,
					Payload: simnet.Bounce{To: simnet.NodeID(m.To), Original: m.Payload},
				})
			}
			continue
		}
		lc.enqueueLocked(dst, m)
	}
}

// enqueueLocked puts m in dst's mailbox. A saturated mailbox drops it:
// for protocol traffic that is transient loss the periodic checks
// repair; a dropped event message is a lost delivery. Both are counted
// (Stats), because nothing else would show them.
func (lc *LiveCluster) enqueueLocked(dst *liveActor, m simnet.Message) {
	_, isEvent := m.Payload.(mEvent)
	select {
	case dst.box <- m:
		if isEvent {
			lc.pendingEvents++
		}
	default:
		if isEvent {
			lc.stats.DroppedEvents++
		} else {
			lc.stats.DroppedProtocol++
		}
	}
}

// LiveStats are the live runtime's own counters (Stats).
type LiveStats struct {
	// Dispatched counts messages sent by local actors, local and remote
	// destinations alike; EventMsgs counts the event dissemination
	// messages among them.
	Dispatched uint64 `json:"dispatched"`
	EventMsgs  uint64 `json:"event_msgs"`
	// DroppedEvents and DroppedProtocol count messages (dispatched here or
	// delivered by the substrate) lost to a full actor mailbox.
	DroppedEvents   uint64 `json:"dropped_events"`
	DroppedProtocol uint64 `json:"dropped_protocol"`
	// BackedOff is the number of actors whose CHECK_* period currently
	// stands above the base period.
	BackedOff int `json:"backed_off"`
}

// Stats snapshots the runtime counters.
func (lc *LiveCluster) Stats() LiveStats {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	st := lc.stats
	for _, a := range lc.actors {
		if a.period > checkBase {
			st.BackedOff++
		}
	}
	return st
}

// Oracle returns the current best contact (tallest self-parented actor).
func (lc *LiveCluster) Oracle() core.ProcID {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.oracleLocked()
}

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

// PublishBatch injects every event of the batch at its producer in one
// locked turn — the whole batch is in flight through the actor mailboxes
// at once — and waits for the pipelined dissemination to quiesce: no
// event message may be sitting in a mailbox and the receiver sets and
// per-event message counts must stop changing for a few consecutive
// polls (the in-flight counter makes a descheduled actor with a queued
// event hold the poll open rather than cause a spurious miss). One
// quiescence wait covers the whole batch, so a batch costs one
// settle-time rather than len(batch) of them. Messages counts only the
// event messages carrying each entry's event ID (periodic check traffic
// keeps flowing in the background); Rounds is always 0 — the live
// runtime has no round clock.
func (lc *LiveCluster) PublishBatch(batch []core.Publication) ([]core.Delivery, error) {
	out := make([]core.Delivery, len(batch))
	if len(batch) == 0 {
		return out, nil
	}
	lc.mu.Lock()
	if lc.closed {
		lc.mu.Unlock()
		return nil, fmt.Errorf("proto: live cluster closed")
	}
	for i := range batch {
		if lc.actors[batch[i].Producer] == nil {
			lc.mu.Unlock()
			return nil, fmt.Errorf("proto: producer %d not in the cluster", batch[i].Producer)
		}
	}
	ids := make([]int64, len(batch))
	for i := range batch {
		lc.nextE++
		ids[i] = lc.nextE
		for _, b := range lc.actors {
			b.node.seen.forget(ids[i])
		}
		lc.msgsByEvent[ids[i]] = 0
		a := lc.actors[batch[i].Producer]
		a.node.onEvent(mEvent{ID: ids[i], Ev: batch[i].Event, Height: a.node.top, Up: true, From: core.NoProc})
		lc.dispatchLocked(a.node.drainOut())
	}
	fires := lc.takeHooksLocked()
	lc.mu.Unlock()
	lc.fireHooks(fires)

	poll := func() (int, int, int) {
		lc.mu.Lock()
		defer lc.mu.Unlock()
		seen, msgs := 0, 0
		for _, b := range lc.actors {
			for _, id := range ids {
				if b.node.seen.has(id) {
					seen++
				}
			}
		}
		for _, id := range ids {
			msgs += lc.msgsByEvent[id]
		}
		return seen, msgs, lc.pendingEvents
	}
	deadline := time.Now().Add(lc.budgetDuration(lc.cfg.PublishBudget))
	stable, lastSeen, lastMsgs := 0, -1, -1
	for stable < 8 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
		seen, msgs, pending := poll()
		if pending == 0 && seen == lastSeen && msgs == lastMsgs {
			stable++
		} else {
			stable, lastSeen, lastMsgs = 0, seen, msgs
		}
	}

	lc.mu.Lock()
	defer lc.mu.Unlock()
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
	rounds := configured
	if rounds <= 0 {
		lc.mu.Lock()
		rounds = 800 + 200*len(lc.actors)
		lc.mu.Unlock()
	}
	return time.Duration(rounds) * checkBase
}

// Stabilize waits for the actors' periodic checks to restore a legal
// configuration (the live runtime's RunUntilStable equivalent), within
// the Config.StabilizeBudget round budget mapped onto the actor tick.
func (lc *LiveCluster) Stabilize() core.StabReport {
	return core.StabReport{Converged: lc.AwaitLegal(lc.budgetDuration(lc.cfg.StabilizeBudget)) == nil}
}

// CheckLegal verifies Definition 3.1 on a frozen membership snapshot.
func (lc *LiveCluster) CheckLegal() error { return lc.checkLegalSnapshot() }

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
		if last = lc.checkLegalSnapshot(); last == nil {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("proto: live cluster did not become legal: %w", last)
}

// checkLegalSnapshot freezes the membership and checks it: no re-join
// pending, and the nodes' local states legal (checkLegal).
func (lc *LiveCluster) checkLegalSnapshot() error {
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

// Close stops every actor goroutine and waits for them to exit.
func (lc *LiveCluster) Close() error {
	lc.mu.Lock()
	if lc.closed {
		lc.mu.Unlock()
		return nil
	}
	lc.closed = true
	for id, a := range lc.actors {
		close(a.stop)
		delete(lc.actors, id)
	}
	lc.mu.Unlock()
	lc.wg.Wait()
	return nil
}
