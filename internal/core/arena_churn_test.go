package core

import (
	"math/rand/v2"
	"testing"

	"drtree/internal/geom"
)

// TestArenaChurnHandleRecycling is the free-list aliasing property test:
// under sustained Join / Leave / Crash / UpdateFilter churn with batches
// published in between (which fill and re-verify the handle caches), a
// recycled handle must never be reachable from two process tables at
// once, and the arena's live/free accounting must match the process
// tables exactly. The invariants are asserted both by direct sweeps here
// and by the arena-coherence section of CheckLegal.
func TestArenaChurnHandleRecycling(t *testing.T) {
	seeds := []uint64{1, 7, 42}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		rng := rand.New(rand.NewPCG(seed, seed*31))
		tr := MustNew(Params{MinFanout: 2, MaxFanout: 4})
		live := map[ProcID]bool{}
		next := ProcID(1)
		join := func() {
			x, y := rng.Float64()*120, rng.Float64()*120
			if err := tr.Join(next, geom.R2(x, y, x+18, y+18)); err != nil {
				t.Fatalf("seed %d: join %d: %v", seed, next, err)
			}
			live[next] = true
			next++
		}
		pick := func() ProcID {
			ids := tr.ProcIDs()
			return ids[rng.IntN(len(ids))]
		}
		for i := 0; i < 40; i++ {
			join()
		}
		for step := 0; step < 600; step++ {
			switch op := rng.IntN(10); {
			case op < 3:
				join()
			case op < 5 && len(live) > 5:
				id := pick()
				if err := tr.Leave(id); err != nil {
					t.Fatalf("seed %d step %d: leave %d: %v", seed, step, id, err)
				}
				delete(live, id)
			case op < 6 && len(live) > 5:
				id := pick()
				if err := tr.Crash(id); err != nil {
					t.Fatalf("seed %d step %d: crash %d: %v", seed, step, id, err)
				}
				delete(live, id)
				tr.Stabilize()
			case op < 8 && len(live) > 0:
				id := pick()
				x, y := rng.Float64()*120, rng.Float64()*120
				if err := tr.UpdateFilter(id, geom.R2(x, y, x+18, y+18)); err != nil {
					t.Fatalf("seed %d step %d: update %d: %v", seed, step, id, err)
				}
			default:
				if len(live) == 0 {
					continue
				}
				batch := make([]Publication, 16)
				for k := range batch {
					batch[k] = Publication{
						Producer: pick(),
						Event:    geom.Point{rng.Float64() * 140, rng.Float64() * 140},
					}
				}
				if _, err := tr.PublishBatch(batch); err != nil {
					t.Fatalf("seed %d step %d: publish batch: %v", seed, step, err)
				}
			}

			if step%50 == 0 {
				assertArenaCoherent(t, tr, seed, step)
			}
		}
		tr.Stabilize()
		assertArenaCoherent(t, tr, seed, -1)
		if err := tr.CheckLegal(); err != nil {
			t.Fatalf("seed %d: illegal after churn: %v", seed, err)
		}
	}
}

// assertArenaCoherent sweeps every process table and checks the aliasing
// property directly: each live handle is referenced exactly once, carries
// the owner/height/slot of the process that references it, and no handle
// is simultaneously on the free list.
func assertArenaCoherent(t *testing.T, tr *Tree, seed uint64, step int) {
	t.Helper()
	owner := map[Handle][2]int{} // handle -> (procID, height) of first reference
	total := 0
	for _, id := range tr.ProcIDs() {
		p := tr.Proc(id)
		for h := 0; h <= p.Top; h++ {
			x := tr.at(id, h)
			if x == nilH {
				t.Fatalf("seed %d step %d: process %d has a gap at height %d", seed, step, id, h)
			}
			if prev, dup := owner[x]; dup {
				t.Fatalf("seed %d step %d: handle %d aliased by (%d,%d) and (%d,%d)",
					seed, step, x, prev[0], prev[1], id, h)
			}
			owner[x] = [2]int{int(id), h}
			if tr.ar.owner[x] != id || tr.ar.height[x] != int32(h) {
				t.Fatalf("seed %d step %d: handle %d tagged (%d,%d), referenced by (%d,%d)",
					seed, step, x, tr.ar.owner[x], tr.ar.height[x], id, h)
			}
			if tr.ar.slot[x] != p.slot {
				t.Fatalf("seed %d step %d: handle %d carries slot %d, owner %d has slot %d",
					seed, step, x, tr.ar.slot[x], id, p.slot)
			}
			total++
		}
	}
	st := tr.ArenaStats()
	if total != st.Live {
		t.Fatalf("seed %d step %d: process tables own %d instances, arena says %d live", seed, step, total, st.Live)
	}
	if st.Live+st.Free != st.Cap {
		t.Fatalf("seed %d step %d: arena accounting broken: live %d + free %d != cap %d",
			seed, step, st.Live, st.Free, st.Cap)
	}
	for _, x := range tr.ar.free {
		if _, isLive := owner[x]; isLive {
			t.Fatalf("seed %d step %d: handle %d is on the free list while live", seed, step, x)
		}
	}
}
