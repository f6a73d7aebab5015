package harness

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"drtree/internal/core"
	"drtree/internal/filter"
	"drtree/internal/pubsub"
	"drtree/internal/state"
)

// StoreOpener produces the next incarnation of a durable store. It is
// called once before the first broker incarnation and once after every
// simulated crash; the implementation decides what "reopen" means — the
// same *state.Mem instance (the in-memory store survives Close, so it
// models a disk), or closing the previous *state.WAL handle and running
// state.OpenWAL on the directory again (which re-exercises the scan /
// torn-tail-truncate path on every restart).
type StoreOpener func() (state.Store, error)

// RecoveryReport summarizes one CertifyRecovery run.
type RecoveryReport struct {
	Steps     int
	Crashes   int            // broker incarnations killed (one per settle)
	Probes    int            // post-recovery certification events published
	Recovered int            // subscribers recovered, summed over restarts
	Snapshots int            // restarts whose baseline was a snapshot
	Skipped   map[string]int // ops outside the durable control plane
}

func (r RecoveryReport) String() string {
	return fmt.Sprintf("steps=%d crashes=%d probes=%d recovered=%d snapshots=%d",
		r.Steps, r.Crashes, r.Probes, r.Recovered, r.Snapshots)
}

// recoverRunner carries one CertifyRecovery run: the current broker
// incarnation plus the oracle — the subscription set that a crash must
// not lose.
type recoverRunner struct {
	s     *Schedule
	space *filter.Space
	open  StoreOpener
	opts  []pubsub.Option
	store state.Store
	b     *pubsub.Broker
	live  map[int]filter.Filter
	rep   *RecoveryReport
}

// CertifyRecovery replays a schedule's control-plane operations against
// a durable broker and certifies crash recovery at every settle window:
// the broker incarnation is abandoned where it stands (never shut down,
// so nothing is flushed on the way out), the store is reopened through
// the opener, a fresh broker recovers from it, and the recovered state
// must (a) contain exactly the subscriptions the oracle says are live
// and (b) route a deterministic probe sweep with zero false negatives
// against that oracle.
//
// The mapping from schedule to control plane: join is subscribe (a
// re-join is a filter update), leave is unsubscribe, crash is an
// uncontrolled subscriber failure (Broker.Fail), publish is an
// in-flight routing check. Corruption and network-fault ops target the
// overlay fault model, not the durable subscription state, and are
// counted in Skipped rather than applied — the overlay they would
// corrupt does not survive the crash anyway; recovery rebuilds it from
// the journal.
//
// Even-numbered settle windows checkpoint (snapshot + compact) before
// the kill, so one run certifies both recovery baselines: snapshot plus
// journal suffix, and cold journal replay.
//
// opts configure every broker incarnation (default a fixed 4-gateway
// pool). Passing pubsub.WithGatewayPolicy certifies the adaptive tier's
// durability too: on every restart the recovered pool size and the
// per-subscriber gateway assignment must match the pre-crash broker
// exactly, not just the subscription set.
func CertifyRecovery(s *Schedule, open StoreOpener, opts ...pubsub.Option) (*RecoveryReport, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	if len(opts) == 0 {
		opts = []pubsub.Option{pubsub.WithGateways(4)}
	}
	r := &recoverRunner{
		s:     s,
		space: filter.MustSpace("x", "y"),
		open:  open,
		opts:  opts,
		live:  make(map[int]filter.Filter),
		rep:   &RecoveryReport{Skipped: make(map[string]int)},
	}
	if err := r.reopen(); err != nil {
		return nil, err
	}
	settles := 0
	for i, st := range s.Steps {
		r.rep.Steps++
		var err error
		switch st.Op {
		case OpJoin:
			err = r.join(st.ID, rectFilter(st.Rect))
		case OpLeave:
			if _, ok := r.live[st.ID]; ok {
				err = r.b.Unsubscribe(core.ProcID(st.ID))
				delete(r.live, st.ID)
			}
		case OpCrash:
			if _, ok := r.live[st.ID]; ok {
				err = r.b.Fail(core.ProcID(st.ID))
				delete(r.live, st.ID)
			}
		case OpPublish:
			err = r.probe(i, "publish", filter.Event{"x": st.Point[0], "y": st.Point[1]})
		case OpSettle:
			err = r.settleCrash(i, settles)
			settles++
		default:
			// Overlay corruption and network faults: see the doc comment.
			r.rep.Skipped[st.Op]++
		}
		if err != nil {
			return r.rep, err
		}
	}
	err := r.b.Close()
	if cerr := r.store.Close(); err == nil {
		err = cerr
	}
	return r.rep, err
}

// reopen advances to the next store incarnation and builds a fresh
// broker over it. The previous broker, if any, is abandoned on purpose.
func (r *recoverRunner) reopen() error {
	s, err := r.open()
	if err != nil {
		return fmt.Errorf("harness: reopen store: %w", err)
	}
	tree, err := core.New(core.Params{MinFanout: r.s.MinFanout, MaxFanout: r.s.MaxFanout})
	if err != nil {
		return fmt.Errorf("harness: rebuild engine: %w", err)
	}
	b, err := pubsub.New(r.space, tree, append([]pubsub.Option{pubsub.WithStore(s)}, r.opts...)...)
	if err != nil {
		return fmt.Errorf("harness: rebuild broker: %w", err)
	}
	r.store, r.b = s, b
	return nil
}

func (r *recoverRunner) join(id int, f filter.Filter) error {
	if _, ok := r.live[id]; ok {
		if err := r.b.UpdateFilter(core.ProcID(id), f); err != nil {
			return err
		}
	} else if err := r.b.Subscribe(core.ProcID(id), f); err != nil {
		return err
	}
	r.live[id] = f
	return nil
}

// settleCrash is the certification window: kill, recover, verify.
func (r *recoverRunner) settleCrash(stepIdx, settles int) error {
	if settles%2 == 0 {
		if err := r.b.Checkpoint(); err != nil {
			return fmt.Errorf("harness: checkpoint before crash: %w", err)
		}
	}
	// The pre-crash pool oracle: the recovered broker must rebuild not
	// just the subscription set but the same gateway tier — pool size
	// and per-subscriber assignment (trivially true for a fixed pool,
	// the real certification under WithGatewayPolicy).
	wantPool := r.b.Gateways()
	wantAssign := make(map[int]core.ProcID, len(r.live))
	for id := range r.live {
		wantAssign[id] = r.b.GatewayOf(core.ProcID(id))
	}
	// The crash: the old incarnation is dropped mid-flight. Only what
	// the store already made durable may inform the new one.
	r.rep.Crashes++
	if err := r.reopen(); err != nil {
		return err
	}
	st, err := r.b.Recover()
	if err != nil {
		return &Violation{StepIndex: stepIdx, Engine: "durable", Kind: "recovery",
			Detail: fmt.Sprintf("recover after crash: %v", err)}
	}
	r.rep.Recovered += st.Subscribers
	if st.Snapshot {
		r.rep.Snapshots++
	}
	if st.Subscribers != len(r.live) {
		return &Violation{StepIndex: stepIdx, Engine: "durable", Kind: "recovery",
			Detail: fmt.Sprintf("recovered %d subscribers, oracle has %d live", st.Subscribers, len(r.live))}
	}
	if got := r.b.Gateways(); got != wantPool {
		return &Violation{StepIndex: stepIdx, Engine: "durable", Kind: "recovery",
			Detail: fmt.Sprintf("recovered a %d-gateway pool, pre-crash had %d", got, wantPool)}
	}
	for id, want := range wantAssign {
		if got := r.b.GatewayOf(core.ProcID(id)); got != want {
			return &Violation{StepIndex: stepIdx, Engine: "durable", Kind: "recovery",
				Detail: fmt.Sprintf("subscriber %d recovered onto gateway %d, was on %d", id, got, want)}
		}
	}
	r.b.Repair()
	// Deterministic probe sweep: points inside live filters (guaranteed
	// interest) interleaved with uniform points over the world.
	rng := rand.New(rand.NewPCG(r.s.Seed, uint64(stepIdx)))
	probes := r.s.Probes
	if probes <= 0 {
		probes = 4
	}
	ids := make([]int, 0, len(r.live))
	for id := range r.live {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for p := 0; p < probes && len(ids) > 0; p++ {
		var ev filter.Event
		if p%2 == 0 {
			f := r.live[ids[rng.IntN(len(ids))]]
			xlo, xhi, _ := f.Interval("x")
			ylo, yhi, _ := f.Interval("y")
			ev = filter.Event{
				"x": xlo + rng.Float64()*(xhi-xlo),
				"y": ylo + rng.Float64()*(yhi-ylo),
			}
		} else {
			ev = filter.Event{"x": rng.Float64() * 500, "y": rng.Float64() * 500}
		}
		if err := r.probe(stepIdx, "recovery", ev); err != nil {
			return err
		}
	}
	return nil
}

// probe publishes ev from a live producer and certifies the notified
// set against the oracle: exactly the live subscribers whose filters
// match. A missing subscriber after a crash is the false negative this
// phase exists to catch; an extra one means recovery resurrected a
// ghost.
func (r *recoverRunner) probe(stepIdx int, kind string, ev filter.Event) error {
	var producer core.ProcID
	found := false
	for id := range r.live {
		if !found || core.ProcID(id) < producer {
			producer, found = core.ProcID(id), true
		}
	}
	if !found {
		return nil // nobody live: nothing to certify
	}
	note, err := r.b.Publish(producer, ev)
	if err != nil {
		return fmt.Errorf("harness: publish %v: %w", ev, err)
	}
	if len(note.FalseNegatives) != 0 {
		return &Violation{StepIndex: stepIdx, Engine: "durable", Kind: "false-negative",
			Detail: fmt.Sprintf("%s event %v missed %v", kind, ev, note.FalseNegatives)}
	}
	var want []core.ProcID
	for id, f := range r.live {
		if f.Match(ev) {
			want = append(want, core.ProcID(id))
		}
	}
	slices.Sort(want)
	got := slices.Clone(note.Interested)
	slices.Sort(got)
	if !slices.Equal(got, want) {
		return &Violation{StepIndex: stepIdx, Engine: "durable", Kind: "false-negative",
			Detail: fmt.Sprintf("%s event %v notified %v, oracle wants %v", kind, ev, got, want)}
	}
	r.rep.Probes++
	return nil
}

// rectFilter maps a schedule rect [x1 y1 x2 y2] onto the harness filter
// space: the conjunction x in [x1, x2] && y in [y1, y2].
func rectFilter(xs []float64) filter.Filter {
	return filter.Range("x", xs[0], xs[2]).And(filter.Range("y", xs[1], xs[3]))
}
