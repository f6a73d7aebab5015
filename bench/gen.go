package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
)

// world is the side of the square attribute space [0, world]² every
// workload lives in.
const world = 1000.0

// Subscriber ID blocks. Stable subscription k has ID k+1; the producer
// and the churning IDs sit far above any population.
const (
	producerID  int64 = 1_000_000
	churnIDBase int64 = 2_000_000
	pinIDBase   int64 = 3_000_000 // a multiple of the gateway pool size
)

// producerExpr parks the publishing subscription outside the world, so
// it never matches an event and adds no delivery of its own.
const producerExpr = "x in [5000, 5001] && y in [5000, 5001]"

// The two corners of the world a gateway is pinned to (run.go,
// pinGateways).
const (
	pinLowExpr  = "x in [0, 0.001] && y in [0, 0.001]"
	pinHighExpr = "x in [999.999, 1000] && y in [999.999, 1000]"
)

// spec is one workload: the shape of the system under test and of the
// traffic offered to it. The three shipped specs are constants; a later
// change that wants a different shape adds a workload, it does not edit
// these.
type spec struct {
	Name string
	Why  string
	// Daemons is the number of drtreed processes; subscription k lives on
	// daemon k mod Daemons.
	Daemons int
	// Subs is the stable population.
	Subs int
	// SideLo and SideHi bound a subscription's side as a share of the
	// world's side (drawn uniformly, independently per dimension).
	SideLo, SideHi float64
	// WSSubs is how many of daemon 0's first subscriptions ride the JSON
	// WebSocket session instead of the binary one.
	WSSubs int
	// Rate is the open-loop publish rate in events/s.
	Rate int
	// Window is the closed-loop window: events published but not yet
	// fully delivered.
	Window int
	// Durable runs every daemon with -data-dir.
	Durable bool
	// ChurnIDs is the number of subscriptions the churn session cycles
	// with Unsubscribe→Subscribe pairs beside the publish load (0: no
	// churn). A multiple of churnWorkers.
	ChurnIDs int
}

var workloads = []spec{
	{
		Name: "steady-3d", Daemons: 3, Subs: 3000, SideLo: 0.01, SideHi: 0.08,
		Rate: 600, Window: 8,
		Why: "mixed baseline: ~6 matches/event, two thirds remote, so overlay hop and framing cost show here and not on fanout-1d",
	},
	{
		Name: "fanout-1d", Daemons: 1, Subs: 1000, SideLo: 0.20, SideHi: 0.40, WSSubs: 100,
		Rate: 250, Window: 4,
		Why: "one daemon, ~90 matches/event, a tenth on WebSocket: isolates match-to-socket delivery; overlay changes must show nothing",
	},
	{
		Name: "churn-durable-3d", Daemons: 3, Subs: 3000, SideLo: 0.01, SideHi: 0.08,
		Rate: 300, Window: 8, Durable: true, ChurnIDs: 300,
		Why: "durable daemons with unsubscribe/subscribe pairs beside the publish load: WAL fsync and control-plane locks against data-plane reads",
	},
}

func findSpec(name string) (spec, bool) {
	for _, s := range workloads {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}

// rect is a closed subscription rectangle, the bench's own twin of
// filter.Parse("x in [x0, x1] && y in [y0, y1]").
type rect struct{ x0, x1, y0, y1 float64 }

func (r rect) contains(e event) bool {
	return r.x0 <= e.x && e.x <= r.x1 && r.y0 <= e.y && e.y <= r.y1
}

// expr renders the rectangle in filter.Parse syntax. Bounds are on a
// 1e-3 grid, so the shortest decimal form round-trips exactly.
func (r rect) expr() string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
	return "x in [" + f(r.x0) + ", " + f(r.x1) + "] && y in [" + f(r.y0) + ", " + f(r.y1) + "]"
}

// event is one published point. Its exact (x, y) pair is its identity:
// a Notify is mapped back to the event it carries by these two floats.
type event struct{ x, y float64 }

// inputs is everything a run feeds the system, fixed by (spec, seed,
// event count) alone.
type inputs struct {
	subs   []rect  // stable population, index k ↔ subscriber ID k+1
	churn  []rect  // successive rectangles for the churn session
	events []event // distinct points, consumed in order by the phases
}

// Stream tags keep the three generators independent: asking for more
// events never changes the population.
const (
	streamSubs   = 0x5ab5
	streamChurn  = 0xc4a2
	streamEvents = 0xe7e7
)

func genRect(rng *rand.Rand, lo, hi float64) rect {
	side := func() (a, b float64) {
		w := world * (lo + rng.Float64()*(hi-lo))
		a = rng.Float64() * (world - w)
		return grid(a), grid(a + w)
	}
	var r rect
	r.x0, r.x1 = side()
	r.y0, r.y1 = side()
	return r
}

func grid(v float64) float64 { return math.Round(v*1000) / 1000 }

// generate builds a workload's inputs from the seed. Duplicate event
// points are rejected and redrawn, so identity by coordinates is sound.
func generate(s spec, seed uint64, nEvents, nChurn int) (*inputs, error) {
	in := &inputs{
		subs:   make([]rect, s.Subs),
		churn:  make([]rect, nChurn),
		events: make([]event, 0, nEvents),
	}
	rs := rand.New(rand.NewPCG(seed, streamSubs))
	for i := range in.subs {
		in.subs[i] = genRect(rs, s.SideLo, s.SideHi)
	}
	rc := rand.New(rand.NewPCG(seed, streamChurn))
	for i := range in.churn {
		in.churn[i] = genRect(rc, s.SideLo, s.SideHi)
	}
	re := rand.New(rand.NewPCG(seed, streamEvents))
	seen := make(map[event]struct{}, nEvents)
	for redraws := 0; len(in.events) < nEvents; {
		e := event{re.Float64() * world, re.Float64() * world}
		if _, dup := seen[e]; dup {
			if redraws++; redraws > nEvents {
				return nil, fmt.Errorf("gen: event stream keeps repeating points")
			}
			continue
		}
		seen[e] = struct{}{}
		in.events = append(in.events, e)
	}
	return in, nil
}

// indexEvents maps each event point back to its index, refusing a
// stream in which two events share a point: a Notify carrying that
// point could not be attributed.
func indexEvents(events []event) (map[event]int32, error) {
	idx := make(map[event]int32, len(events))
	for i, e := range events {
		if j, dup := idx[e]; dup {
			return nil, fmt.Errorf("gen: events %d and %d share the point (%v, %v)", j, i, e.x, e.y)
		}
		idx[e] = int32(i)
	}
	return idx, nil
}

// digest fingerprints the inputs; results carry it so two result files
// can be seen to rest on the same traffic.
func (in *inputs) digest() string {
	h := sha256.New()
	var b [8]byte
	put := func(vs ...float64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	for _, r := range in.subs {
		put(r.x0, r.x1, r.y0, r.y1)
	}
	for _, r := range in.churn {
		put(r.x0, r.x1, r.y0, r.y1)
	}
	for _, e := range in.events {
		put(e.x, e.y)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}
