package main

import (
	"slices"
	"testing"
)

// Same seed, byte-identical inputs; another seed, other inputs; and
// asking for more events must not move the population.
func TestGenerateIsDeterministic(t *testing.T) {
	for _, s := range workloads {
		a, err := generate(s, 7, 5000, 100)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(s, 7, 5000, 100)
		if a.digest() != b.digest() || !slices.Equal(a.subs, b.subs) || !slices.Equal(a.events, b.events) || !slices.Equal(a.churn, b.churn) {
			t.Errorf("%s: seed 7 generated two different inputs", s.Name)
		}
		c, _ := generate(s, 8, 5000, 100)
		if a.digest() == c.digest() {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", s.Name)
		}
		longer, _ := generate(s, 7, 6000, 100)
		if !slices.Equal(a.subs, longer.subs) || !slices.Equal(a.events, longer.events[:5000]) {
			t.Errorf("%s: a longer event stream changed the inputs it extends", s.Name)
		}
	}
}

func TestOracleMatchesBruteForce(t *testing.T) {
	for _, s := range workloads {
		in, err := generate(s, 3, 1000, 0)
		if err != nil {
			t.Fatal(err)
		}
		or := newOracle(in.subs)
		if err := or.selfCheck(in.events, 1000); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		// Rectangles are closed: an event on a corner is inside.
		r := in.subs[0]
		for _, e := range []event{{r.x0, r.y0}, {r.x1, r.y1}, {r.x0, r.y1}} {
			if got := or.match(nil, e); !slices.Equal(got, bruteForce(in.subs, e)) || !slices.Contains(got, 0) {
				t.Errorf("%s: corner %v of subscription 0: oracle says %v", s.Name, e, got)
			}
		}
	}
}

func TestDuplicateEventPointsRejected(t *testing.T) {
	in, err := generate(workloads[0], 1, 2000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := indexEvents(in.events); err != nil {
		t.Fatalf("generated stream: %v", err)
	}
	in.events[1999] = in.events[17]
	if _, err := indexEvents(in.events); err == nil {
		t.Error("a stream with a repeated point was accepted")
	}
}
