package core

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"drtree/internal/geom"
	"drtree/internal/split"
)

// Micro-benchmarks of the primitive DR-tree operations; the paper-level
// experiment benchmarks live at the repository root (bench_test.go).

func benchTree(b *testing.B, n int, pol split.Policy) (*Tree, *rand.Rand) {
	b.Helper()
	rng := rand.New(rand.NewPCG(1, uint64(n)))
	tr := MustNew(Params{MinFanout: 2, MaxFanout: 4, Split: pol})
	for i := 1; i <= n; i++ {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		if err := tr.Join(ProcID(i), geom.R2(x, y, x+15, y+15)); err != nil {
			b.Fatal(err)
		}
	}
	return tr, rng
}

func BenchmarkJoin1000(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewPCG(2, 2))
		tr := MustNew(Params{MinFanout: 2, MaxFanout: 4})
		for k := 1; k <= 1000; k++ {
			x, y := rng.Float64()*1000, rng.Float64()*1000
			if err := tr.Join(ProcID(k), geom.R2(x, y, x+15, y+15)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkPublishN1000(b *testing.B) {
	tr, rng := benchTree(b, 1000, split.Quadratic{})
	ids := tr.ProcIDs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := geom.Point{rng.Float64() * 1000, rng.Float64() * 1000}
		if _, err := tr.Publish(ids[i%len(ids)], ev); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLeaveJoinCycle(b *testing.B) {
	tr, rng := benchTree(b, 500, split.Quadratic{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := ProcID(10000 + i)
		x, y := rng.Float64()*1000, rng.Float64()*1000
		if err := tr.Join(id, geom.R2(x, y, x+15, y+15)); err != nil {
			b.Fatal(err)
		}
		if err := tr.Leave(id); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStabilizeAfterCorruption(b *testing.B) {
	rng := rand.New(rand.NewPCG(3, 3))
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tr, _ := benchTree(b, 200, split.Quadratic{})
		tr.CorruptRandom(rng, 5)
		b.StartTimer()
		tr.Stabilize()
	}
}

func BenchmarkCheckLegalN1000(b *testing.B) {
	tr, _ := benchTree(b, 1000, split.Quadratic{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.CheckLegal(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPublishBatch is the before-row for any proposal to change how
// PublishBatch disseminates: population n × batch size b over uniform
// 15×15 filters, one PublishBatch per iteration, reported per event.
func BenchmarkPublishBatch(b *testing.B) {
	for _, n := range []int{16, 1000, 10000} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			tr, rng := benchTree(b, n, split.Quadratic{})
			ids := tr.ProcIDs()
			for _, size := range []int{16, 64, 256, 1024} {
				batch := make([]Publication, size)
				for k := range batch {
					batch[k] = Publication{
						Producer: ids[rng.IntN(len(ids))],
						Event:    geom.Point{rng.Float64() * 1000, rng.Float64() * 1000},
					}
				}
				b.Run(fmt.Sprintf("b%d", size), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, err := tr.PublishBatch(batch); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/event")
				})
			}
		})
	}
}
