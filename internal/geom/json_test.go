package geom

import (
	"encoding/json"
	"math"
	"testing"
)

func TestRectJSONRoundTrip(t *testing.T) {
	inf := math.Inf(1)
	for _, tc := range []struct {
		r    Rect
		want string
	}{
		{Rect{}, `null`},
		{R2(0, 1.5, 10, 20), `{"lo":[0,1.5],"hi":[10,20]}`},
		{MustRect([]float64{-inf, 3}, []float64{7, inf}), `{"lo":["-Inf",3],"hi":[7,"+Inf"]}`},
		{MustRect([]float64{0.1, -1e-300, 5}, []float64{0.1, 1e300, 5}), `{"lo":[0.1,-1e-300,5],"hi":[0.1,1e+300,5]}`},
	} {
		buf, err := json.Marshal(tc.r)
		if err != nil {
			t.Fatalf("%v: %v", tc.r, err)
		}
		if string(buf) != tc.want {
			t.Errorf("Marshal(%v) = %s, want %s", tc.r, buf, tc.want)
		}
		back := R2(9, 9, 9, 9) // must be overwritten, null included
		if err := json.Unmarshal(buf, &back); err != nil {
			t.Fatalf("Unmarshal(%s): %v", buf, err)
		}
		if !back.Equal(tc.r) {
			t.Errorf("round trip of %v gave %v", tc.r, back)
		}
	}

	// As a struct field, which is how /statsz carries it.
	type stat struct{ Filter Rect }
	buf, err := json.Marshal(stat{R2(1, 2, 3, 4)})
	if err != nil || string(buf) != `{"Filter":{"lo":[1,2],"hi":[3,4]}}` {
		t.Fatalf("field marshal = %s, %v", buf, err)
	}

	for _, bad := range []string{
		`{"lo":[0],"hi":[1,2]}`,   // dimension mismatch
		`{"lo":[2],"hi":[1]}`,     // inverted
		`{"lo":["NaN"],"hi":[1]}`, // NaN
		`{"lo":[],"hi":[]}`,       // zero-dimensional
		`{"lo":["x"],"hi":[1]}`,   // not a number
		`[1,2]`,                   // wrong shape
	} {
		var r Rect
		if err := json.Unmarshal([]byte(bad), &r); err == nil {
			t.Errorf("Unmarshal(%s) accepted: %v", bad, r)
		}
	}
}
