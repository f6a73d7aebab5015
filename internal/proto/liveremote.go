package proto

import (
	"fmt"
	"runtime"
	"slices"

	"drtree/internal/core"
	"drtree/internal/geom"
	"drtree/internal/simnet"
)

// This file is the LiveCluster's networking surface: everything a real
// transport (internal/transport) needs to run the unmodified protocol
// actors across daemons. A purely local LiveCluster never touches any
// of it.
//
// The flow is symmetric: outbound messages whose destination is not
// local leave through the attached Substrate instead of entering the
// FIFO (sendLocked), and inbound frames from peers enter it through
// Deliver exactly like a local send — the actors cannot tell the
// difference. An inbound message for a process this daemon no longer
// hosts is answered, when popped, with a bounce over the substrate: the
// same failure-detector notice simnet synthesizes for a dead mailbox.

// Substrate is the outbound half of a message substrate: fire-and-forget
// delivery of simnet messages. *simnet.Network satisfies it natively;
// internal/transport's TCP implementation satisfies it over sockets.
// Send must not block and must not call back into the cluster
// synchronously (it runs on the loop goroutine, under the cluster lock).
type Substrate interface {
	Send(msgs ...simnet.Message)
}

var _ Substrate = (*simnet.Network)(nil)

// EventHook observes the first receipt of an event by a local process:
// proc delivered event eventID at point ev, and matched reports whether
// the process's own filter contains it. The point is the overlay's own:
// other receipts of the event may share it, and whatever the hook hands
// it to may keep it, so it is read-only. Hooks run on the cluster's loop
// goroutine, outside the cluster lock, after the turn that delivered the
// event — never on the stack of a caller of the cluster — so they may
// take any lock and call back into the cluster or the broker, except
// Close; they must not block for long, as the loop carries them.
type EventHook func(proc core.ProcID, eventID int64, ev geom.Point, matched bool)

// hookFire is one pending EventHook invocation, collected under the
// cluster lock and fired by the loop after its turn unlocks.
type hookFire struct {
	proc    core.ProcID
	event   int64
	ev      geom.Point
	matched bool
}

// AttachSubstrate connects the cluster to a remote substrate. local
// reports whether a process ID is owned by this cluster; destinations
// for which it returns false route through s instead of bouncing.
// Attach before the first Join.
func (lc *LiveCluster) AttachSubstrate(s Substrate, local func(core.ProcID) bool) error {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if len(lc.actors) > 0 {
		return fmt.Errorf("proto: attach substrate before the first join")
	}
	if s == nil || local == nil {
		return fmt.Errorf("proto: nil substrate or locality predicate")
	}
	lc.remote = s
	lc.isLocal = local
	return nil
}

// SetContact installs the bootstrap contact function: the overlay
// process (usually on another daemon) through which joins and rejoins
// route when this cluster has no local stable root. The process whose
// ID the function returns is the cluster-wide bootstrap: on its own
// daemon it roots itself; everywhere else the first join already
// travels the wire. Set before the first Join.
func (lc *LiveCluster) SetContact(fn func() core.ProcID) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	lc.contactFn = fn
}

// SetEventHook installs the delivery observer (see EventHook). A
// daemon's broker bridges it to the gateways' subscriber queues. Set
// before the first Join.
func (lc *LiveCluster) SetEventHook(fn EventHook) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	lc.hook = fn
}

// SetEventSpace moves the cluster's event-ID counter to base so that
// concurrently publishing daemons draw from disjoint ID ranges (receipt
// sets are keyed by event ID; a collision would suppress a delivery).
// Publisher k uses base k<<EventSpaceShift: receipt sets are windowed
// per such range. Forward-only: a base at or below the current counter
// is a no-op.
func (lc *LiveCluster) SetEventSpace(base int64) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if lc.nextE < base {
		lc.nextE = base
	}
}

// contactLocked returns the best join/rejoin contact: the local oracle
// when a local stable root exists, else the configured bootstrap contact.
func (lc *LiveCluster) contactLocked() core.ProcID {
	if c := lc.oracleLocked(); c != core.NoProc {
		return c
	}
	if lc.contactFn != nil {
		return lc.contactFn()
	}
	return core.NoProc
}

// remoteJoinNeededLocked reports whether a joining process must route
// its JOIN remotely even though it is this cluster's first actor: true
// on a networked cluster whenever the joiner is not itself the
// designated bootstrap contact.
func (lc *LiveCluster) remoteJoinNeededLocked(id core.ProcID) bool {
	return lc.remote != nil && lc.contactFn != nil && lc.contactFn() != id
}

// Deliver injects one inbound message from the substrate, as the
// transport's receive loop calls it, waiting for room first (invariant
// 3). The loop bounces it if no such actor exists here when it is popped.
func (lc *LiveCluster) Deliver(m simnet.Message) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if lc.awaitRoomLocked(); lc.closed {
		return
	}
	lc.fifo = append(lc.fifo, m)
	lc.wakeLocked()
}

// InjectEvent starts an asynchronous dissemination from producer and
// returns without waiting for quiescence (the engine.AsyncPublisher
// capability), after waiting for room if it must (invariant 3). It is
// safe for concurrent use. Deliveries, the producer's own included,
// surface through the event hook; there is no receipt census — on a
// multi-daemon overlay no single cluster can see one.
func (lc *LiveCluster) InjectEvent(producer core.ProcID, ev geom.Point) (err error) {
	lc.mu.Lock()
	if lc.awaitRoomLocked(); lc.closed {
		err = fmt.Errorf("proto: live cluster closed")
	} else if lc.actors[producer] == nil {
		err = core.NotMemberf("proto: producer %d not in the cluster", producer)
	} else {
		lc.injectLocked(producer, ev)
	}
	lc.mu.Unlock()
	// Hand the processor to the loop. What a caller does next is write an
	// ack, which wakes its client; local deliveries written a moment after
	// that find the client asleep again and cost it a second wake-up
	// (240µs on bench's steady-3d local Notify p50), so they go first.
	runtime.Gosched()
	return err
}

// ActorState is a diagnostic snapshot of one live actor's protocol
// state (ActorStates): the topmost instance's height, parent, and
// children, plus whether the actor is awaiting a re-join. Daemon
// operators read it through /statsz; integration tests print it when a
// cluster wedges.
type ActorState struct {
	ID            core.ProcID   `json:"id"`
	Top           int           `json:"top"`
	Parent        core.ProcID   `json:"parent"`
	RejoinPending bool          `json:"rejoin_pending"`
	Children      []core.ProcID `json:"children,omitempty"`
}

// ActorStates snapshots every local actor, ordered by process ID.
func (lc *LiveCluster) ActorStates() []ActorState {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	out := make([]ActorState, 0, len(lc.actors))
	for id, a := range lc.actors {
		n := a.node
		st := ActorState{ID: id, Top: n.top, RejoinPending: n.rejoinPending}
		if in := n.at(n.top); in != nil {
			st.Parent = in.parent
			st.Children = append([]core.ProcID(nil), in.childID...)
		}
		out = append(out, st)
	}
	slices.SortFunc(out, func(a, b ActorState) int { return int(a.ID - b.ID) })
	return out
}

// fireHooks runs the hook invocations a turn handed back, outside the
// cluster lock. An invocation is only ever queued with the hook set, and
// queued under the lock, so reading it here is ordered after the write.
func (lc *LiveCluster) fireHooks(fires []hookFire) {
	for _, f := range fires {
		lc.hook(f.proc, f.event, f.ev, f.matched)
	}
}
