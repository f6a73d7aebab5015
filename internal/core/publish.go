package core

import (
	"fmt"
	"slices"

	"drtree/internal/geom"
)

// Delivery reports the outcome of disseminating one event (paper §2.3 and
// the worked example of §3): which subscribers received it, how many
// inter-process messages it took, and the routing accuracy.
type Delivery struct {
	// Received lists every process that physically received the event
	// (via any of its instances), ascending.
	Received []ProcID
	// TruePositives are receivers whose filter matches the event.
	TruePositives []ProcID
	// FalsePositives are receivers whose filter does not match.
	FalsePositives []ProcID
	// Messages is the number of inter-process messages used. Traffic
	// between two instances of the same process is free (it stays inside
	// one peer).
	Messages int
	// InstanceVisits counts tree-node visits (instances entered),
	// including same-process hops; the protocol-step metric.
	InstanceVisits int
	// Rounds is the number of network rounds the dissemination took.
	// Message-passing engines report it; the sequential engine delivers
	// synchronously and always reports 0.
	Rounds int
}

// pubCtx is the tree's dissemination scratch state (Tree.pub): a
// slot-indexed generation-stamp table for O(1) per-event dedup and the
// receiver accumulator.
//
// Stamps are monotonic int64 generations and are never cleared: a slot
// recycled to a new process still holds a stamp strictly below every
// future generation, so it reads as "not seen" without zeroing.
type pubCtx struct {
	stamp []int64
	gen   int64
	ids   []ProcID
}

// receive records the physical delivery of the current event to process
// id (idempotent within the current generation).
func (st *pubCtx) receive(id ProcID, sl int32) {
	if st.stamp[sl] == st.gen {
		return
	}
	st.stamp[sl] = st.gen
	st.ids = append(st.ids, id)
}

// grow makes the stamp table cover n slots.
func (st *pubCtx) grow(n int32) {
	if int32(len(st.stamp)) < n {
		st.stamp = append(st.stamp, make([]int64, int(n)-len(st.stamp))...)
	}
}

// Publish disseminates an event produced by process producer: the event
// climbs from the producer's topmost instance to the root and, at every
// step, descends into each sibling subtree whose MBR contains it
// (paper §3, dissemination example).
func (t *Tree) Publish(producer ProcID, ev geom.Point) (Delivery, error) {
	if t.procs[producer] == nil {
		return Delivery{}, NotMemberf("core: producer %d not in the tree", producer)
	}
	if d := t.dims(); len(ev) != d {
		return Delivery{}, fmt.Errorf("core: event has %d dims, tree uses %d", len(ev), d)
	}
	var d Delivery
	t.pub.grow(t.nslots)
	t.pub.gen++
	t.pub.ids = t.pub.ids[:0]
	t.disseminate(producer, ev, &d)

	// Exactly three result allocations: receivers, then true and false
	// positives at their exact sizes (counted up front).
	ids := t.pub.ids
	d.Received = make([]ProcID, len(ids))
	copy(d.Received, ids)
	slices.Sort(d.Received)
	ntp := 0
	for _, id := range ids {
		if t.procs[id].Filter.ContainsPoint(ev) {
			ntp++
		}
	}
	if ntp > 0 {
		d.TruePositives = make([]ProcID, 0, ntp)
	}
	if nfp := len(ids) - ntp; nfp > 0 {
		d.FalsePositives = make([]ProcID, 0, nfp)
	}
	for _, id := range d.Received {
		p := t.procs[id]
		p.Delivered++
		if p.Filter.ContainsPoint(ev) {
			d.TruePositives = append(d.TruePositives, id)
		} else {
			p.FalsePos++
			d.FalsePositives = append(d.FalsePositives, id)
		}
	}
	return d, nil
}

// disseminate runs one event through the overlay, recording receivers in
// t.pub.ids (unsorted) and the message/visit counters in d. Callers
// materialize the Delivery slices from t.pub.ids afterwards and account
// the per-process delivery counters while classifying. The traversal
// writes resolved parentH/kidH handles back into the arena's caches.
func (t *Tree) disseminate(producer ProcID, ev geom.Point, d *Delivery) {
	p := t.procs[producer]

	// The producer trivially receives its own event.
	t.pub.receive(producer, p.slot)

	// Descend into the producer's own subtree from its topmost instance.
	t.descendEv(p.at(p.Top), producer, p.Top, ev, d)

	// Climb to the root; at each parent, fan out into sibling subtrees
	// whose MBR contains the event.
	cur, h := producer, p.Top
	x := p.at(p.Top)
	for !(cur == t.rootID && h == t.rootH) {
		if x == nilH {
			break
		}
		parent := t.ar.parent[x]
		pp := t.procs[parent]
		if parent == NoProc || pp == nil {
			break
		}
		if parent != cur {
			d.Messages++
		}
		d.InstanceVisits++
		t.pub.receive(parent, pp.slot)
		px := t.ar.parentH[x]
		if !t.liveH(px, parent, h+1) {
			px = pp.at(h + 1)
			t.ar.parentH[x] = px
		}
		if t.params.TrackReorgStats {
			t.noteSeen(px, parent, ev)
		}
		if px == nilH {
			break
		}
		kids := t.ar.kids[px]
		for i, c := range kids {
			if c == cur {
				continue
			}
			ch := t.kidHandle(px, i, c, h)
			if ch == nilH || !t.ar.mbr[ch].ContainsPoint(ev) {
				continue
			}
			if c != parent {
				d.Messages++
			}
			d.InstanceVisits++
			t.pub.receive(c, t.ar.slot[ch])
			t.descendEv(ch, c, h, ev, d)
		}
		cur, h, x = parent, h+1, px
	}
}

// Publication is one entry of a publish batch: an event and the process
// that produces it.
type Publication struct {
	Producer ProcID
	Event    geom.Point
}

// PublishBatch disseminates a batch of events and returns one Delivery
// per entry, index-aligned with the batch. Deliveries are identical to
// len(batch) sequential Publish calls (the routing is the same state
// transition, certified by internal/enginetest); the batch amortizes the
// per-event costs — input validation and the dimensionality check happen
// once, the per-tree dissemination scratch stays hot, and the result
// slices of the whole batch share three backing arrays instead of
// allocating three per event.
func (t *Tree) PublishBatch(batch []Publication) ([]Delivery, error) {
	out := make([]Delivery, len(batch))
	if len(batch) == 0 {
		return out, nil
	}
	dims := t.dims()
	for i := range batch {
		if t.procs[batch[i].Producer] == nil {
			return nil, NotMemberf("core: producer %d not in the tree", batch[i].Producer)
		}
		if len(batch[i].Event) != dims {
			return nil, fmt.Errorf("core: event has %d dims, tree uses %d", len(batch[i].Event), dims)
		}
	}

	// One receiver arena for the whole batch: segments are cut after the
	// dissemination loop because append may move the backing array.
	t.pub.grow(t.nslots)
	offs := make([]int, len(batch)+1)
	var arena []ProcID
	for i := range batch {
		t.pub.gen++
		t.pub.ids = t.pub.ids[:0]
		t.disseminate(batch[i].Producer, batch[i].Event, &out[i])
		arena = append(arena, t.pub.ids...)
		offs[i+1] = len(arena)
	}
	t.classifySegments(batch, out, arena, offs)
	return out, nil
}

// classifySegments sorts each event's receiver segment, classifies the
// receivers into true/false positives (two further shared arenas), and
// applies the per-process delivery counters.
func (t *Tree) classifySegments(batch []Publication, out []Delivery, arena []ProcID, offs []int) {
	// Every receiver is exactly one of true/false positive, so two more
	// arenas of the same total capacity hold every classification without
	// reallocating (the three-index sub-slices keep segments independent).
	tp := make([]ProcID, 0, len(arena))
	fp := make([]ProcID, 0, len(arena))
	for i := range batch {
		seg := arena[offs[i]:offs[i+1]:offs[i+1]]
		slices.Sort(seg)
		out[i].Received = seg
		t0, f0 := len(tp), len(fp)
		for _, id := range seg {
			p := t.procs[id]
			p.Delivered++
			if p.Filter.ContainsPoint(batch[i].Event) {
				tp = append(tp, id)
			} else {
				p.FalsePos++
				fp = append(fp, id)
			}
		}
		if len(tp) > t0 {
			out[i].TruePositives = tp[t0:len(tp):len(tp)]
		}
		if len(fp) > f0 {
			out[i].FalsePositives = fp[f0:len(fp):len(fp)]
		}
	}
}

// descendEv forwards the event down from instance x = (id, h) into every
// child whose MBR contains it.
func (t *Tree) descendEv(x Handle, id ProcID, h int, ev geom.Point, d *Delivery) {
	if h == 0 || x == nilH {
		return
	}
	if t.params.TrackReorgStats {
		t.noteSeen(x, id, ev)
	}
	kids := t.ar.kids[x]
	for i, c := range kids {
		ch := t.kidHandle(x, i, c, h-1)
		if ch == nilH || !t.ar.mbr[ch].ContainsPoint(ev) {
			continue
		}
		if c != id {
			d.Messages++
		}
		d.InstanceVisits++
		t.pub.receive(c, t.ar.slot[ch])
		t.descendEv(ch, c, h-1, ev, d)
	}
}

// noteSeen updates the per-instance statistics used by the dynamic
// reorganization of §3.2: the instance's own would-be false positive and,
// for each child, the false positives the child would have experienced in
// the parent's place. x is the instance of process id; leaves and missing
// instances are skipped.
func (t *Tree) noteSeen(x Handle, id ProcID, ev geom.Point) {
	if x == nilH || t.ar.height[x] == 0 {
		return
	}
	t.ar.seen[x]++
	if !t.procs[id].Filter.ContainsPoint(ev) {
		t.ar.selfFP[x]++
	}
	for _, c := range t.ar.kids[x] {
		if c == id {
			continue
		}
		cp := t.procs[c]
		if cp != nil && !cp.Filter.ContainsPoint(ev) {
			t.ar.childFP[x][c]++
		}
	}
}

// ReorgStats summarizes a CheckReorg sweep.
type ReorgStats struct {
	Exchanges int
}

// CheckReorg performs the paper's false-positive-driven reorganization:
// each interior instance compares its own false-positive count with the
// count each child would have had in its place; when a child would do
// strictly better, parent and child exchange positions. Counters reset
// after each exchange. Requires Params.TrackReorgStats.
func (t *Tree) CheckReorg() ReorgStats {
	var st ReorgStats
	if !t.params.TrackReorgStats {
		return st
	}
	for _, id := range t.ProcIDs() {
		p := t.procs[id]
		if p == nil {
			continue
		}
		for h := 1; h <= p.Top; h++ {
			x := p.at(h)
			if x == nilH || t.ar.seen[x] == 0 {
				continue
			}
			best := NoProc
			bestFP := t.ar.selfFP[x]
			for _, c := range t.ar.kids[x] {
				if c == id {
					continue
				}
				if fp, ok := t.ar.childFP[x][c]; ok && int32(fp) < bestFP {
					best, bestFP = c, int32(fp)
				}
			}
			if best != NoProc {
				t.resetReorgCounters(id)
				t.resetReorgCounters(best)
				t.exchangeRoles(id, best, h)
				st.Exchanges++
				break
			}
		}
	}
	return st
}

func (t *Tree) resetReorgCounters(id ProcID) {
	p := t.procs[id]
	if p == nil {
		return
	}
	for _, x := range p.inst {
		if x == nilH {
			continue
		}
		t.ar.seen[x], t.ar.selfFP[x] = 0, 0
		if t.ar.childFP[x] != nil {
			t.ar.childFP[x] = make(map[ProcID]int)
		}
	}
}

// ResetDeliveryStats clears the per-process delivery counters.
func (t *Tree) ResetDeliveryStats() {
	for _, p := range t.procs {
		p.Delivered, p.FalsePos = 0, 0
	}
}

// AccuracyReport aggregates delivery accuracy over a published workload
// for experiment E6.
type AccuracyReport struct {
	Events         int
	Deliveries     int
	TruePositives  int
	FalsePositives int
	FalseNegatives int
	Messages       int
}

// FPRate returns false positives per delivery (0 if none).
func (r AccuracyReport) FPRate() float64 {
	if r.Deliveries == 0 {
		return 0
	}
	return float64(r.FalsePositives) / float64(r.Deliveries)
}

// PublishAll publishes every event from the given producer (as one
// batch through the amortized pipeline) and verifies delivery against
// the ground truth (every matching subscriber must receive every event —
// no false negatives, §2.3).
func (t *Tree) PublishAll(producer ProcID, events []geom.Point) (AccuracyReport, error) {
	var rep AccuracyReport
	batch := make([]Publication, len(events))
	for i, ev := range events {
		batch[i] = Publication{Producer: producer, Event: ev}
	}
	ds, err := t.PublishBatch(batch)
	if err != nil {
		return rep, err
	}
	ids := t.ProcIDs()
	got := make(map[ProcID]bool, len(t.procs))
	for i, d := range ds {
		ev := events[i]
		rep.Events++
		rep.Deliveries += len(d.Received)
		rep.TruePositives += len(d.TruePositives)
		rep.FalsePositives += len(d.FalsePositives)
		rep.Messages += d.Messages
		clear(got)
		for _, id := range d.Received {
			got[id] = true
		}
		for _, id := range ids {
			if t.procs[id].Filter.ContainsPoint(ev) && !got[id] {
				rep.FalseNegatives++
			}
		}
	}
	return rep, nil
}
