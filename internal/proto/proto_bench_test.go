package proto

import (
	"math/rand/v2"
	"testing"

	"drtree/internal/core"
	"drtree/internal/geom"
)

// BenchmarkProtocolJoin measures wire-protocol join cost (rounds are
// bounded by the tree height, Lemma 3.2).
func BenchmarkProtocolJoin(b *testing.B) {
	cl, err := NewCluster(Config{MinFanout: 2, MaxFanout: 4})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 1))
	for i := 1; i <= 40; i++ {
		x, y := rng.Float64()*500, rng.Float64()*500
		if err := cl.Join(core.ProcID(i), geom.R2(x, y, x+30, y+30)); err != nil {
			b.Fatal(err)
		}
		if _, ok := cl.RunUntilStable(400); !ok {
			b.Fatalf("build did not stabilize: %v", cl.CheckLegal())
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := core.ProcID(1000 + i)
		x, y := rng.Float64()*500, rng.Float64()*500
		if err := cl.Join(id, geom.R2(x, y, x+30, y+30)); err != nil {
			b.Fatal(err)
		}
		if _, ok := cl.RunUntilStable(400); !ok {
			b.Fatalf("join did not stabilize: %v", cl.CheckLegal())
		}
		b.StopTimer()
		if err := cl.Leave(id); err != nil {
			b.Fatal(err)
		}
		if _, ok := cl.RunUntilStable(600); !ok {
			b.Fatalf("leave did not stabilize: %v", cl.CheckLegal())
		}
		b.StartTimer()
	}
}

// BenchmarkProtocolPublish measures end-to-end dissemination cost over
// the message substrate.
func BenchmarkProtocolPublish(b *testing.B) {
	cl, err := NewCluster(Config{MinFanout: 2, MaxFanout: 4})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(2, 2))
	for i := 1; i <= 40; i++ {
		x, y := rng.Float64()*500, rng.Float64()*500
		if err := cl.Join(core.ProcID(i), geom.R2(x, y, x+30, y+30)); err != nil {
			b.Fatal(err)
		}
		if _, ok := cl.RunUntilStable(400); !ok {
			b.Fatalf("build did not stabilize: %v", cl.CheckLegal())
		}
	}
	ids := cl.ProcIDs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := geom.Point{rng.Float64() * 500, rng.Float64() * 500}
		if _, err := cl.Publish(ids[i%len(ids)], ev); err != nil {
			b.Fatal(err)
		}
	}
}
