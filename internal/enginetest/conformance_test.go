package enginetest

import (
	"errors"
	"math/rand/v2"
	"slices"
	"testing"

	"drtree/internal/core"
	"drtree/internal/engine"
	"drtree/internal/geom"
	"drtree/internal/proto"
)

// factories is the conformance matrix: every Engine implementation in
// the repository. A future backend joins the certification by adding one
// row here.
var factories = map[string]Factory{
	"core": func(t *testing.T) engine.Engine {
		tr, err := core.New(core.Params{MinFanout: 2, MaxFanout: 4})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	},
	"proto": func(t *testing.T) engine.Engine {
		cl, err := proto.NewCluster(proto.Config{MinFanout: 2, MaxFanout: 4})
		if err != nil {
			t.Fatal(err)
		}
		cl.Net().Rand = rand.New(rand.NewPCG(7, 7))
		return cl
	},
	"live": func(t *testing.T) engine.Engine {
		lc, err := proto.NewLiveCluster(proto.Config{MinFanout: 2, MaxFanout: 4})
		if err != nil {
			t.Fatal(err)
		}
		return lc
	},
}

// TestConformance certifies every engine against the fixed seeded
// schedule's ground truth.
func TestConformance(t *testing.T) {
	for name, mk := range factories {
		t.Run(name, func(t *testing.T) { Run(t, mk) })
	}
}

// TestCrossEngineTranscripts certifies that all engines produce
// identical observable transcripts — memberships, root MBRs, legality
// verdicts and delivery sets — for the fixed schedule.
func TestCrossEngineTranscripts(t *testing.T) {
	ref := Run(t, factories["core"])
	for _, name := range []string{"proto", "live"} {
		got := Run(t, factories[name])
		if err := ref.Equal(got); err != nil {
			t.Errorf("core vs %s: %v", name, err)
		}
	}
}

// TestJoinRefusals certifies that every engine refuses the same joins,
// in core.Tree's terms, and that a refused join leaves no trace: the
// members stabilize to a legal configuration of themselves alone.
func TestJoinRefusals(t *testing.T) {
	unit := geom.R2(0, 0, 1, 1)
	cases := []struct {
		name      string
		join      func(engine.Engine) error
		notMember bool
	}{
		{"id 0", func(e engine.Engine) error { return e.Join(0, unit) }, false},
		{"empty filter", func(e engine.Engine) error { return e.Join(9, geom.Rect{}) }, false},
		{"duplicate id", func(e engine.Engine) error { return e.Join(2, unit) }, false},
		{"unknown contact", func(e engine.Engine) error { return e.JoinFrom(42, 9, unit) }, true},
		{"3-D filter on a 2-D overlay", func(e engine.Engine) error {
			return e.Join(9, geom.MustRect([]float64{0, 0, 0}, []float64{1, 1, 1}))
		}, false},
	}
	members := []core.ProcID{1, 2, 3}
	for name, mk := range factories {
		t.Run(name, func(t *testing.T) {
			e := mk(t)
			defer e.Close()
			for _, id := range members {
				x := float64(id) * 10
				if err := e.Join(id, geom.R2(x, 0, x+15, 20)); err != nil {
					t.Fatal(err)
				}
			}
			if st := e.Stabilize(); !st.Converged {
				t.Fatalf("members did not converge: %v", e.CheckLegal())
			}
			for _, c := range cases {
				err := c.join(e)
				switch {
				case err == nil:
					t.Errorf("%s: join accepted", c.name)
				case c.notMember && !errors.Is(err, core.ErrNotMember):
					t.Errorf("%s: %v does not wrap core.ErrNotMember", c.name, err)
				}
			}
			if st := e.Stabilize(); !st.Converged {
				t.Fatalf("no convergence after the refusals: %v", e.CheckLegal())
			}
			if err := e.CheckLegal(); err != nil {
				t.Fatal(err)
			}
			if got := e.ProcIDs(); !slices.Equal(got, members) {
				t.Fatalf("ProcIDs = %v, want %v", got, members)
			}
		})
	}
}
