package proto

import (
	"math/rand/v2"
	"testing"

	"drtree/internal/core"
	"drtree/internal/geom"
)

func cfg() Config {
	return Config{MinFanout: 2, MaxFanout: 4}
}

func mustCluster(t *testing.T, c Config) *Cluster {
	t.Helper()
	cl, err := NewCluster(c)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// grow joins n subscribers with random filters, letting the cluster
// stabilize between arrivals, and asserts legality.
func grow(t *testing.T, cl *Cluster, rng *rand.Rand, n int) {
	t.Helper()
	for i := 1; i <= n; i++ {
		x, y := rng.Float64()*500, rng.Float64()*500
		f := geom.R2(x, y, x+10+rng.Float64()*40, y+10+rng.Float64()*40)
		if err := cl.Join(core.ProcID(i), f); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
		if _, ok := cl.RunUntilStable(300); !ok {
			t.Fatalf("no stabilization after join %d: %v\n%s", i, cl.CheckLegal(), cl.Describe())
		}
	}
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := NewCluster(Config{MinFanout: 0, MaxFanout: 4}); err == nil {
		t.Error("m=0 must be rejected")
	}
	if _, err := NewCluster(Config{MinFanout: 3, MaxFanout: 5}); err == nil {
		t.Error("M < 2m must be rejected")
	}
}

// TestJoinValidation keeps the refusals of unknown processes; the join
// refusals are enginetest's TestJoinRefusals, on every engine.
func TestJoinValidation(t *testing.T) {
	cl := mustCluster(t, cfg())
	if err := cl.Leave(42); err == nil {
		t.Error("leaving unknown node must error")
	}
	if err := cl.Crash(42); err == nil {
		t.Error("crashing unknown node must error")
	}
}

func TestSingleNodeIsLegalRoot(t *testing.T) {
	cl := mustCluster(t, cfg())
	if err := cl.Join(1, geom.R2(0, 0, 10, 10)); err != nil {
		t.Fatal(err)
	}
	if err := cl.CheckLegal(); err != nil {
		t.Fatal(err)
	}
	if cl.Oracle() != 1 {
		t.Fatalf("oracle = %d", cl.Oracle())
	}
}

func TestProtocolGrowth(t *testing.T) {
	cl := mustCluster(t, cfg())
	rng := rand.New(rand.NewPCG(1, 1))
	grow(t, cl, rng, 40)
	if cl.Len() != 40 {
		t.Fatalf("Len = %d", cl.Len())
	}
	if err := cl.CheckLegal(); err != nil {
		t.Fatalf("%v\n%s", err, cl.Describe())
	}
}

func TestProtocolJoinCostLogarithmic(t *testing.T) {
	cl := mustCluster(t, cfg())
	rng := rand.New(rand.NewPCG(2, 2))
	grow(t, cl, rng, 60)
	// A single further join must stabilize within a handful of check
	// periods (join routing is O(height) rounds, Lemma 3.2).
	before := cl.NetStats().Delivered
	if err := cl.Join(61, geom.R2(10, 10, 30, 30)); err != nil {
		t.Fatal(err)
	}
	rounds, ok := cl.RunUntilStable(300)
	if !ok {
		t.Fatalf("join did not stabilize: %v", cl.CheckLegal())
	}
	msgs := cl.NetStats().Delivered - before
	t.Logf("join of node 61: %d rounds to stable, %d messages", rounds, msgs)
	if msgs > 1200 {
		t.Fatalf("join cost %d messages is broadcast-like", msgs)
	}
}

func TestControlledLeave(t *testing.T) {
	cl := mustCluster(t, cfg())
	rng := rand.New(rand.NewPCG(3, 3))
	grow(t, cl, rng, 25)
	ids := cl.ProcIDs()
	for _, id := range []core.ProcID{ids[3], ids[10], ids[17]} {
		if err := cl.Leave(id); err != nil {
			t.Fatal(err)
		}
		if _, ok := cl.RunUntilStable(600); !ok {
			t.Fatalf("no stabilization after leave %d: %v\n%s", id, cl.CheckLegal(), cl.Describe())
		}
	}
	if cl.Len() != 22 {
		t.Fatalf("Len = %d", cl.Len())
	}
}

func TestCrashRepair(t *testing.T) {
	cl := mustCluster(t, cfg())
	rng := rand.New(rand.NewPCG(4, 4))
	grow(t, cl, rng, 30)
	// Crash an interior node (one with top >= 1) plus a leaf.
	var interior core.ProcID
	for _, id := range cl.ProcIDs() {
		if cl.Node(id).Top() >= 1 && cl.Node(id).Top() < 3 {
			interior = id
			break
		}
	}
	if interior == core.NoProc {
		t.Skip("no interior node found")
	}
	if err := cl.Crash(interior); err != nil {
		t.Fatal(err)
	}
	rounds, ok := cl.RunUntilStable(800)
	if !ok {
		t.Fatalf("no repair after interior crash: %v\n%s", cl.CheckLegal(), cl.Describe())
	}
	t.Logf("interior crash repaired in %d rounds", rounds)
}

func TestRootCrashRepair(t *testing.T) {
	cl := mustCluster(t, cfg())
	rng := rand.New(rand.NewPCG(5, 5))
	grow(t, cl, rng, 25)
	root := cl.Oracle()
	if err := cl.Crash(root); err != nil {
		t.Fatal(err)
	}
	rounds, ok := cl.RunUntilStable(800)
	if !ok {
		t.Fatalf("no repair after root crash: %v\n%s", cl.CheckLegal(), cl.Describe())
	}
	t.Logf("root crash repaired in %d rounds", rounds)
	if cl.Len() != 24 {
		t.Fatalf("Len = %d", cl.Len())
	}
}

func TestCorruptionRepair(t *testing.T) {
	cl := mustCluster(t, cfg())
	rng := rand.New(rand.NewPCG(6, 6))
	grow(t, cl, rng, 20)
	ids := cl.ProcIDs()

	if err := cl.CorruptParent(ids[4], 0, ids[7]); err != nil {
		t.Fatal(err)
	}
	if err := cl.CorruptMBR(ids[2], 0, geom.R2(0, 0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	root := cl.Oracle()
	rn := cl.Node(root)
	if err := cl.CorruptMBR(root, rn.Top(), geom.R2(0, 0, 2, 2)); err != nil {
		t.Fatal(err)
	}
	rounds, ok := cl.RunUntilStable(800)
	if !ok {
		t.Fatalf("no repair after corruption: %v\n%s", cl.CheckLegal(), cl.Describe())
	}
	t.Logf("corruption repaired in %d rounds", rounds)

	if err := cl.CorruptParent(99, 0, 1); err == nil {
		t.Error("corrupting unknown instance must error")
	}
	if err := cl.CorruptChildren(99, 1, nil); err == nil {
		t.Error("corrupting unknown instance must error")
	}
	if err := cl.CorruptMBR(99, 0, geom.R2(0, 0, 1, 1)); err == nil {
		t.Error("corrupting unknown instance must error")
	}
}

func TestChildrenCorruptionRepair(t *testing.T) {
	cl := mustCluster(t, cfg())
	rng := rand.New(rand.NewPCG(7, 7))
	grow(t, cl, rng, 20)
	root := cl.Oracle()
	rn := cl.Node(root)
	_, children, _, ok := rn.Instance(rn.Top())
	if !ok || len(children) < 2 {
		t.Fatal("root must have children")
	}
	// Drop all but one child from the root's local view.
	if err := cl.CorruptChildren(root, rn.Top(), children[:1]); err != nil {
		t.Fatal(err)
	}
	rounds, okk := cl.RunUntilStable(1000)
	if !okk {
		t.Fatalf("no repair after children corruption: %v\n%s", cl.CheckLegal(), cl.Describe())
	}
	t.Logf("children corruption repaired in %d rounds", rounds)
}

func TestProtocolPublishNoFalseNegatives(t *testing.T) {
	cl := mustCluster(t, cfg())
	rng := rand.New(rand.NewPCG(8, 8))
	grow(t, cl, rng, 30)
	ids := cl.ProcIDs()
	for k := 0; k < 20; k++ {
		ev := geom.Point{rng.Float64() * 550, rng.Float64() * 550}
		res, err := cl.Publish(ids[rng.IntN(len(ids))], ev)
		if err != nil {
			t.Fatal(err)
		}
		if fn := falseNegatives(cl, res, ev); len(fn) != 0 {
			t.Fatalf("event %v: false negatives %v\n%s", ev, fn, cl.Describe())
		}
	}
}

func TestProtocolPublishWorkedExample(t *testing.T) {
	// The Figure 1 scenario over the wire protocol: publishing event a
	// from S2 must reach S2, S3, S4 (and nobody who does not match).
	cl := mustCluster(t, Config{MinFanout: 1, MaxFanout: 3})
	rects := []geom.Rect{
		geom.R2(5, 5, 28, 45),
		geom.R2(10, 50, 45, 90),
		geom.R2(30, 5, 95, 75),
		geom.R2(32, 52, 43, 73),
		geom.R2(55, 55, 90, 95),
		geom.R2(60, 60, 75, 85),
		geom.R2(60, 10, 85, 40),
		geom.R2(40, 15, 70, 35),
	}
	for i, r := range rects {
		if err := cl.Join(core.ProcID(i+1), r); err != nil {
			t.Fatal(err)
		}
		if _, ok := cl.RunUntilStable(300); !ok {
			t.Fatalf("no stabilization after join %d: %v\n%s", i+1, cl.CheckLegal(), cl.Describe())
		}
	}
	res, err := cl.Publish(2, geom.Point{35, 60})
	if err != nil {
		t.Fatal(err)
	}
	if fn := falseNegatives(cl, res, geom.Point{35, 60}); len(fn) != 0 {
		t.Fatalf("false negatives %v: %+v\n%s", fn, res, cl.Describe())
	}
	for _, id := range res.Received {
		if id != 2 && id != 3 && id != 4 {
			t.Logf("note: extra receiver P%d (tree shape differs from sequential engine)", id)
		}
	}
	if len(res.FalsePositives) > 2 {
		t.Fatalf("too many false positives: %+v", res)
	}
}

func TestPublishUnknownProducer(t *testing.T) {
	cl := mustCluster(t, cfg())
	if _, err := cl.Publish(9, geom.Point{1, 2}); err == nil {
		t.Fatal("unknown producer must error")
	}
}

func TestMassiveChurnConvergence(t *testing.T) {
	cl := mustCluster(t, cfg())
	rng := rand.New(rand.NewPCG(9, 9))
	grow(t, cl, rng, 30)
	// Kill a third of the population at once, then let the protocol
	// stabilize (Lemma 3.5 regime).
	ids := cl.ProcIDs()
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	for _, id := range ids[:10] {
		if err := cl.Crash(id); err != nil {
			t.Fatal(err)
		}
	}
	rounds, ok := cl.RunUntilStable(2000)
	if !ok {
		t.Fatalf("no convergence after mass crash: %v\n%s", cl.CheckLegal(), cl.Describe())
	}
	t.Logf("mass crash (10/30) repaired in %d rounds", rounds)
	if cl.Len() != 20 {
		t.Fatalf("Len = %d", cl.Len())
	}
}

func TestNodeAccessors(t *testing.T) {
	cl := mustCluster(t, cfg())
	f := geom.R2(0, 0, 10, 10)
	if err := cl.Join(1, f); err != nil {
		t.Fatal(err)
	}
	n := cl.Node(1)
	if n.ID() != 1 || !n.Filter().Equal(f) || n.Top() != 0 {
		t.Fatalf("accessors: id=%d top=%d", n.ID(), n.Top())
	}
	parent, children, mbr, ok := n.Instance(0)
	if !ok || parent != 1 || len(children) != 0 || !mbr.Equal(f) {
		t.Fatalf("Instance(0) = %v %v %v %v", parent, children, mbr, ok)
	}
	if _, _, _, ok := n.Instance(5); ok {
		t.Fatal("missing instance must report !ok")
	}
}

// falseNegatives lists live subscribers whose filter matches ev but that
// did not receive it — the unified Delivery leaves the ground-truth
// comparison to the caller.
func falseNegatives(cl *Cluster, d core.Delivery, ev geom.Point) []core.ProcID {
	seen := make(map[core.ProcID]bool, len(d.Received))
	for _, id := range d.Received {
		seen[id] = true
	}
	var out []core.ProcID
	for _, id := range cl.ProcIDs() {
		if f, _ := cl.Filter(id); f.ContainsPoint(ev) && !seen[id] {
			out = append(out, id)
		}
	}
	return out
}
