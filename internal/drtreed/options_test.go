package drtreed

import (
	"net"
	"reflect"
	"slices"
	"testing"
)

// TestWithDefaults pins the zero-value resolution: every default a bare
// Config receives, and that explicit values survive it untouched.
func TestWithDefaults(t *testing.T) {
	d := Config{}.withDefaults()
	if d.Gateways != 4 {
		t.Errorf("default Gateways = %d, want 4", d.Gateways)
	}
	if d.MinFanout != 2 || d.MaxFanout != 4 {
		t.Errorf("default fanout = (%d, %d), want (2, 4)", d.MinFanout, d.MaxFanout)
	}
	if d.Logf == nil {
		t.Error("default Logf must be a discard sink, not nil")
	}
	if d.DataDir != "" || d.SnapshotEvery != 0 {
		t.Errorf("durability must default off, got dir=%q cadence=%d", d.DataDir, d.SnapshotEvery)
	}

	set := Config{Gateways: 7, MinFanout: 3, MaxFanout: 8, SnapshotEvery: 9}.withDefaults()
	if set.Gateways != 7 || set.MinFanout != 3 || set.MaxFanout != 8 || set.SnapshotEvery != 9 {
		t.Errorf("withDefaults clobbered explicit values: %+v", set)
	}
}

// TestConfigFieldAudit fails when Config grows (or renames) a field, so
// whoever adds one is forced here — and from here to the option list
// and the defaults test above. Every field must stay reachable through
// exactly the documented surface: a validated option, a withDefaults
// default, or both.
func TestConfigFieldAudit(t *testing.T) {
	want := []string{
		"Node", "Peers", "Listener", "HTTPAddr", "HTTPListener",
		"Space", "Gateways", "MinFanout", "MaxFanout",
		"DataDir", "SnapshotEvery", "Logf",
	}
	typ := reflect.TypeOf(Config{})
	var got []string
	for i := 0; i < typ.NumField(); i++ {
		got = append(got, typ.Field(i).Name)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("Config fields changed:\n got %v\nwant %v\nextend the Option list, withDefaults, and this audit together", got, want)
	}
}

// TestOptionsCoverConfig proves every Config field is settable through
// the functional-option surface, the only way to construct a daemon: a
// field the option list below leaves at its zero value fails here, so a
// new field cannot land without its option.
func TestOptionsCoverConfig(t *testing.T) {
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lnA.Close()
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lnB.Close()

	var c Config
	for _, opt := range []Option{
		WithNode(3),
		WithPeers("a:1", "b:2", "c:3", "d:4"),
		WithListener(lnA),
		WithHTTPAddr("127.0.0.1:9999"),
		WithHTTPListener(lnB),
		WithSpace("x", "y"),
		WithGateways(5),
		WithFanout(3, 6),
		WithDataDir("/nonexistent/never-opened"),
		WithSnapshotEvery(11),
		WithLogf(func(string, ...any) {}),
	} {
		if err := opt(&c); err != nil {
			t.Fatal(err)
		}
	}
	if c.Node != 3 || !slices.Equal(c.Peers, []string{"a:1", "b:2", "c:3", "d:4"}) ||
		c.Listener != lnA || c.HTTPAddr != "127.0.0.1:9999" || c.HTTPListener != lnB ||
		!slices.Equal(c.Space, []string{"x", "y"}) || c.Gateways != 5 ||
		c.MinFanout != 3 || c.MaxFanout != 6 ||
		c.DataDir != "/nonexistent/never-opened" || c.SnapshotEvery != 11 || c.Logf == nil {
		t.Fatalf("options did not reproduce the Config: %+v", c)
	}
	v := reflect.ValueOf(c)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Errorf("no option above sets Config.%s", v.Type().Field(i).Name)
		}
	}
}
