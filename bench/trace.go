package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// span is one timed interval of the traced run. Spans of one event
// share its ID; Parent names the span that caused this one. Times are
// nanoseconds on the run's clock.
type span struct {
	ID     int32          `json:"id"` // event index; 0 on replay spans
	Name   string         `json:"name"`
	Parent string         `json:"parent,omitempty"`
	Start  int64          `json:"start_ns"`
	End    int64          `json:"end_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// tracedSlice says which open-loop slices of a traced run record
// spans. Even slices do, odd ones do not: the two halves run
// interleaved on the same cluster, and the difference in their
// notify_p50_us is the tracing overhead.
func tracedSlice(slice int) bool { return slice%2 == 0 }

func untracedSlice(slice int) bool { return !tracedSlice(slice) }

// eventSpans builds the client-side spans of every sampled event of the
// phase: the publish write, the wait for its ack, and one notify child
// per delivery, tagged with the daemon it came from.
func (b *bench) eventSpans(ph *phase, sampled map[int32][]tracedNote) []span {
	var out []span
	for e := ph.lo; e < ph.hi; e++ {
		if b.wroteAt[e] == 0 {
			continue
		}
		end := b.rec.doneAt[e].Load()
		out = append(out,
			span{ID: e, Name: "event", Start: b.due[e], End: end,
				Attrs: map[string]any{"x": b.in.events[e].x, "y": b.in.events[e].y, "expected": len(b.exp[e])}},
			span{ID: e, Name: "publish_write", Parent: "event", Start: b.sentAt[e], End: b.wroteAt[e]},
			span{ID: e, Name: "publish_ack", Parent: "event", Start: b.wroteAt[e], End: b.rec.ackAt[e].Load()},
		)
		for _, n := range sampled[e] {
			where := "remote"
			switch n.daemon {
			case 0:
				where = "local"
			case -1:
				where = "websocket"
			}
			out = append(out, span{ID: e, Name: "notify", Parent: "event", Start: b.wroteAt[e], End: n.at,
				Attrs: map[string]any{"subscriber": n.sub, "daemon": max(n.daemon, 0), "path": where}})
		}
	}
	return out
}

// tracedNote is a delivery of a sampled event, kept for its span.
type tracedNote struct {
	daemon int
	note
}

func writeTrace(workload string, spans []span) (string, error) {
	path := filepath.Join(outDir, "trace-"+workload+".json")
	buf, err := json.Marshal(spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(buf, '\n'), 0o644)
}

// ledger fills the per-layer metrics of a traced run: what the client
// side saw per path, what /statsz and /proc say, and the layer replay.
func (b *bench) ledger(buildS float64) error {
	r, t := b.res, &b.tot
	lat := t.lat
	events := float64(t.openEvents)

	// loadgen: is the generator itself trustworthy on this run.
	r.set("loadgen.delivery_ratio", float64(t.received)/float64(t.expected), "ratio")
	r.set("loadgen.late_p99_us", pct(t.late, 99)/1e3, "us")
	r.set("loadgen.late_max_us", pct(t.late, 100)/1e3, "us")
	if t.cpuOK {
		r.set("loadgen.cpu_share", t.selfCPU/(t.selfCPU+sum(t.cpu)), "ratio")
	}
	r.set("loadgen.build_s", buildS, "s")
	off, on := lat.all.pct(50, untracedSlice), lat.all.pct(50, tracedSlice)
	r.set("loadgen.trace_overhead_pct", (on-off)/off*100, "%")

	// tail: recorded for context, never gating.
	r.set("tail.notify_p99_us", lat.all.pct(99, nil)/1e3, "us")
	r.set("tail.notify_p999_us", lat.all.pct(99.9, nil)/1e3, "us")
	r.set("tail.notify_max_us", lat.all.max()/1e3, "us")
	r.Samples["tail.notify_p99_us"] = lat.all.count()

	// drtreed: client-side view per path, plus /proc.
	slices.Sort(t.acks)
	r.set("drtreed.publish_ack_p50_us", pct(t.acks, 50)/1e3, "us")
	local, remote := lat.local.pct(50, nil), lat.remote.pct(50, nil)
	r.set("drtreed.notify_local_p50_us", local/1e3, "us")
	r.set("drtreed.notify_remote_p50_us", remote/1e3, "us")
	r.set("drtreed.hop_delta_p50_us", (remote-local)/1e3, "us")
	r.set("drtreed.ws_notify_p50_us", lat.ws.pct(50, nil)/1e3, "us")
	b.controlPlane()
	r.Samples["drtreed.notify_local_p50_us"] = lat.local.count()
	r.Samples["drtreed.notify_remote_p50_us"] = lat.remote.count()
	if t.cpuOK {
		for i, c := range t.cpu {
			r.set(fmt.Sprintf("drtreed.cpu_us_per_event_d%d", i), c*1e6/events, "us")
		}
		r.set("drtreed.rss_peak_mb", t.rssMiB, "MiB")
	}
	r.set("drtreed.seq_gaps", float64(t.seqGaps), "count")

	// transport and proto: /statsz deltas across the open-loop phase,
	// and across a second of silence before it.
	var sent, bounced, dropped, reconnects float64
	var actors, height int
	for i := range t.after {
		a, b := t.after[i].Transport, t.before[i].Transport
		sent += float64(a.Sent - b.Sent)
		bounced += float64(a.Bounced - b.Bounced)
		dropped += float64(a.Dropped - b.Dropped)
		reconnects += float64(a.Reconnects - b.Reconnects)
		actors += len(t.after[i].Actors)
		for _, ac := range t.after[i].Actors {
			height = max(height, ac.Top)
		}
	}
	// Stabilization probes keep flowing under load; what is left is the
	// traffic the events themselves caused.
	r.set("transport.idle_msgs_s", t.idleMsgsPerS, "1/s")
	r.set("transport.sent_per_event", (sent-t.idleMsgsPerS*float64(t.openNanos)/1e9)/events, "count")
	r.set("transport.bounced", bounced, "count")
	r.set("transport.dropped", dropped, "count")
	r.set("transport.reconnects", reconnects, "count")
	r.set("proto.actors", float64(actors), "count")
	r.set("proto.tree_height", float64(height), "count")

	// The cluster is down by now, so the replay runs on a quiet box.
	rp, err := newReplayer(b, &lat.spans)
	if err != nil {
		return err
	}
	rp.all()

	path, err := writeTrace(b.spec.Name, lat.spans)
	if err != nil {
		return err
	}
	r.notef("trace: %d spans in %s", len(lat.spans), path)
	return nil
}

// measureIdle returns the overlay messages per second of a second
// without publishes: the stabilization probes.
func (b *bench) measureIdle() (float64, error) {
	s0, err := b.cl.scrapeAll()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	time.Sleep(time.Second)
	s1, err := b.cl.scrapeAll()
	if err != nil {
		return 0, err
	}
	var sent float64
	for i := range s1 {
		sent += float64(s1[i].Transport.Sent - s0[i].Transport.Sent)
	}
	return sent / time.Since(t0).Seconds(), nil
}
