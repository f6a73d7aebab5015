// Wireprotocol: run the DR-tree maintenance protocol as real
// message-passing actors (internal/proto) on the simulated network:
// joins route through the overlay, an interior process and then the root
// crash, and the periodic CHECK_* timers repair the structure. The
// program reports rounds and messages — the protocol-level costs behind
// Lemmas 3.2-3.6.
package main

import (
	"fmt"
	"math/rand/v2"
	"os"

	"drtree/internal/core"
	"drtree/internal/engine"
	"drtree/internal/geom"
	"drtree/internal/proto"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "wireprotocol:", err)
		os.Exit(1)
	}
}

func run() error {
	cl, err := proto.NewCluster(proto.Config{MinFanout: 2, MaxFanout: 4})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewPCG(11, 11))

	// Grow the overlay one join at a time, measuring protocol cost.
	const n = 30
	for i := 1; i <= n; i++ {
		x, y := rng.Float64()*500, rng.Float64()*500
		f := geom.R2(x, y, x+20+rng.Float64()*40, y+20+rng.Float64()*40)
		before := cl.NetStats().Delivered
		if err := cl.Join(core.ProcID(i), f); err != nil {
			return err
		}
		rounds, ok := cl.RunUntilStable(500)
		if !ok {
			return fmt.Errorf("join %d did not stabilize: %v", i, cl.CheckLegal())
		}
		if i%10 == 0 {
			fmt.Printf("after %2d joins: %2d rounds, %3d messages for the last join\n",
				i, rounds, cl.NetStats().Delivered-before)
		}
	}
	fmt.Printf("\noverlay over the wire protocol:\n%s\n", cl.Describe())

	// Publish an event end to end.
	ids := cl.ProcIDs()
	ev := geom.Point{250, 250}
	res, err := cl.Publish(ids[0], ev)
	if err != nil {
		return err
	}
	fn := engine.FalseNegatives(cl, res, ev)
	fmt.Printf("publish: %d receivers, %d messages, %d rounds, false negatives=%d\n\n",
		len(res.Received), res.Messages, res.Rounds, len(fn))
	if len(fn) != 0 {
		return fmt.Errorf("protocol dissemination lost subscribers %v", fn)
	}

	// Crash an interior process, then the root; the CHECK_* timers repair.
	var interior core.ProcID
	for _, id := range cl.ProcIDs() {
		if top := cl.Node(id).Top(); top >= 1 && top < 3 {
			interior = id
			break
		}
	}
	if interior != core.NoProc {
		if err := cl.Crash(interior); err != nil {
			return err
		}
		rounds, ok := cl.RunUntilStable(1500)
		if !ok {
			return fmt.Errorf("interior crash not repaired: %v", cl.CheckLegal())
		}
		fmt.Printf("interior process P%d crashed: repaired in %d rounds\n", interior, rounds)
	}

	root := cl.Oracle()
	if err := cl.Crash(root); err != nil {
		return err
	}
	rounds, ok := cl.RunUntilStable(1500)
	if !ok {
		return fmt.Errorf("root crash not repaired: %v", cl.CheckLegal())
	}
	fmt.Printf("root P%d crashed: repaired in %d rounds; new root P%d\n", root, rounds, cl.Oracle())
	fmt.Printf("final population %d, configuration legal: %v\n", cl.Len(), cl.CheckLegal() == nil)
	return nil
}
