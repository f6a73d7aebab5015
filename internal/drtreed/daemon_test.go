package drtreed

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"drtree/internal/core"
	"drtree/internal/filter"
	"drtree/internal/geom"
	"drtree/internal/ws"
)

// startCluster boots n two-gateway daemons (see startClusterOf).
func startCluster(t *testing.T, n int) []*Daemon {
	t.Helper()
	return startClusterOf(t, n, 2)
}

// startClusterOf boots n daemons of the given gateway-pool size on
// loopback port-0 listeners and returns them, overlay-listener first so
// peers know each other's real ports. opts follow the defaults given
// here, and so override them.
func startClusterOf(t testing.TB, n, gateways int, opts ...Option) []*Daemon {
	t.Helper()
	lns := make([]net.Listener, n)
	peers := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		peers[i] = ln.Addr().String()
	}
	ds := make([]*Daemon, n)
	for i := range ds {
		hln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		d, err := New(append([]Option{
			WithNode(i),
			WithPeers(peers...),
			WithListener(lns[i]),
			WithHTTPListener(hln),
			WithSpace("price", "volume"),
			WithGateways(gateways),
			WithLogf(t.Logf),
		}, opts...)...)
		if err != nil {
			t.Fatalf("daemon %d: %v", i, err)
		}
		t.Cleanup(func() { d.Close() })
		ds[i] = d
	}
	return ds
}

func dialDaemon(t *testing.T, d *Daemon) *Client {
	t.Helper()
	cl, err := Dial(d.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// collector accumulates the quotes each subscriber received, keyed by
// the quote's unique price.
type collector struct {
	mu  sync.Mutex
	got map[int64]map[float64]bool // subscriber -> price set
}

func newCollector() *collector { return &collector{got: make(map[int64]map[float64]bool)} }

func (c *collector) add(sub int64, ev filter.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.got[sub] == nil {
		c.got[sub] = make(map[float64]bool)
	}
	c.got[sub][ev["price"]] = true
}

func (c *collector) has(sub int64, price float64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.got[sub][price]
}

func (c *collector) drain(ch <-chan ClientEvent) {
	for e := range ch {
		c.add(e.Subscriber, e.Event)
	}
}

// TestThreeDaemonStockticker is the end-to-end acceptance scenario: the
// stockticker traders spread over a 3-daemon loopback cluster (binary
// RPC sessions on all three daemons plus one JSON WebSocket session),
// quotes published from two different daemons, a trader crashing
// mid-session — and zero false negatives among the live traders after
// the churn.
func TestThreeDaemonStockticker(t *testing.T) {
	ds := startCluster(t, 3)
	col := newCollector()

	// The stockticker subscriptions (examples/brokerwire), trader i
	// attached to daemon i%3 — except trader 8, who attaches over
	// WebSocket to daemon 2's HTTP front end.
	subs := []struct {
		id   int64
		expr string
	}{
		{1, "price in [0, 1000] && volume in [0, 100000]"},
		{2, "price in [90, 110] && volume in [0, 100000]"},
		{3, "price in [95, 105] && volume in [5000, 100000]"},
		{4, "price >= 200 && volume >= 10000"},
		{5, "price in [90, 100] && volume in [0, 1000]"},
		{6, "price in [100, 300] && volume in [0, 50000]"},
		{7, "price in [50, 150] && volume in [20000, 100000]"},
	}
	preds := make(map[int64]filter.Filter)
	clients := make(map[int64]*Client)
	for _, s := range subs {
		preds[s.id] = filter.MustParse(s.expr)
		cl := dialDaemon(t, ds[int(s.id)%3])
		if err := cl.Subscribe(s.id, s.expr); err != nil {
			t.Fatalf("trader %d: %v", s.id, err)
		}
		clients[s.id] = cl
		go col.drain(cl.Events())
	}

	// Trader 8 over WebSocket JSON.
	const wsTrader, wsExpr = 8, "price <= 95 && volume in [0, 30000]"
	preds[wsTrader] = filter.MustParse(wsExpr)
	wsc, err := ws.Dial("ws://"+ds[2].HTTPAddr()+"/ws", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wsc.Close() })
	wsReplies := make(chan wsReply, 16)
	go func() {
		for {
			_, payload, err := wsc.ReadMessage()
			if err != nil {
				close(wsReplies)
				return
			}
			var rep wsReply
			if json.Unmarshal(payload, &rep) != nil {
				continue
			}
			if rep.Op == "event" {
				col.add(rep.ID, filter.Event(rep.Event))
				continue
			}
			wsReplies <- rep
		}
	}()
	req, _ := json.Marshal(wsRequest{Op: "subscribe", ID: wsTrader, Filter: wsExpr})
	if err := wsc.WriteText(req); err != nil {
		t.Fatal(err)
	}
	if rep := <-wsReplies; rep.Op != "ok" {
		t.Fatalf("ws subscribe: %+v", rep)
	}

	live := func(exclude ...int64) map[int64]filter.Filter {
		out := make(map[int64]filter.Filter, len(preds))
		for id, f := range preds {
			out[id] = f
		}
		for _, id := range exclude {
			delete(out, id)
		}
		return out
	}

	// publishUntilDelivered drives one quote to zero false negatives:
	// republish (the overlay may still be converging — MBR updates ride
	// the periodic checks) until every matching live trader has it.
	publishUntilDelivered := func(pub *Client, producer int64, quote filter.Event, traders map[int64]filter.Filter) {
		t.Helper()
		var expect []int64
		for id, f := range traders {
			if f.Match(quote) {
				expect = append(expect, id)
			}
		}
		deadline := time.Now().Add(60 * time.Second)
		for {
			if err := pub.Publish(producer, quote); err != nil {
				t.Fatalf("publish %v: %v", quote, err)
			}
			settle := time.Now().Add(500 * time.Millisecond)
			missing := expect
			for len(missing) > 0 && time.Now().Before(settle) {
				var still []int64
				for _, id := range missing {
					if !col.has(id, quote["price"]) {
						still = append(still, id)
					}
				}
				missing = still
				if len(missing) > 0 {
					time.Sleep(5 * time.Millisecond)
				}
			}
			if len(missing) == 0 {
				return
			}
			if time.Now().After(deadline) {
				for i, d := range ds {
					r, h := d.lc.Root()
					t.Logf("daemon %d: root=(%d,%d) actors=%v tp=%+v", i, r, h, d.lc.ProcIDs(), d.tp.Stats())
					for _, a := range d.lc.ActorStates() {
						t.Logf("daemon %d actor %d: top=%d parent=%d pending=%v children=%v", i, a.ID, a.Top, a.Parent, a.RejoinPending, a.Children)
					}
					for _, g := range d.Broker().GatewayStats() {
						t.Logf("daemon %d gw %d: joined=%v subs=%d filter=%v", i, g.ProcID, g.Joined, g.Subscribers, g.Filter)
					}
				}
				t.Fatalf("false negatives for quote %v: traders %v never received it", quote, missing)
			}
		}
	}

	// Phase 1: quotes from trader 1's daemon (daemon 1). Every quote
	// has a unique price so deliveries are attributable.
	quotes := []filter.Event{
		{"price": 100.001, "volume": 500},
		{"price": 92.002, "volume": 25000},
		{"price": 250.003, "volume": 40000},
		{"price": 97.004, "volume": 800},
		{"price": 130.005, "volume": 30000},
	}
	for _, q := range quotes {
		publishUntilDelivered(clients[1], 1, q, live())
	}

	// Churn: trader 3 dies abruptly (socket cut, no unsubscribe) and
	// trader 5 leaves cleanly.
	clients[3].Close()
	if err := clients[5].Unsubscribe(5); err != nil {
		t.Fatalf("trader 5 unsubscribe: %v", err)
	}
	// The daemon tears trader 3's subscriptions down asynchronously
	// with the socket close; wait until its broker (daemon 0, which
	// also hosts trader 6) agrees.
	for deadline := time.Now().Add(10 * time.Second); ; {
		if ds[0].Broker().Len() == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("trader 3's subscription survived its session (daemon 0 holds %d)", ds[0].Broker().Len())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Phase 2: quotes from trader 2 on daemon 2 — a different producer
	// on a different daemon — with zero false negatives among the
	// survivors.
	after := []filter.Event{
		{"price": 101.006, "volume": 6000},
		{"price": 94.007, "volume": 900},
		{"price": 220.008, "volume": 15000},
		{"price": 88.009, "volume": 100},
	}
	for _, q := range after {
		publishUntilDelivered(clients[2], 2, q, live(3, 5))
	}

	// The WebSocket trader unsubscribes cleanly and is acked.
	req, _ = json.Marshal(wsRequest{Op: "unsubscribe", ID: wsTrader})
	if err := wsc.WriteText(req); err != nil {
		t.Fatal(err)
	}
	if rep := <-wsReplies; rep.Op != "ok" {
		t.Fatalf("ws unsubscribe: %+v", rep)
	}
}

func TestSingleDaemonRPCLifecycle(t *testing.T) {
	ds := startCluster(t, 1)
	cl := dialDaemon(t, ds[0])

	if err := cl.Subscribe(1, "price in [10, 20] && volume in [0, 100]"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Subscribe(1, "price in [10, 20]"); err == nil {
		t.Fatal("duplicate subscriber id must be refused")
	}
	if err := cl.Subscribe(2, "price ?? garbage"); err == nil {
		t.Fatal("malformed filter must be refused")
	}
	if err := cl.Publish(99, filter.Event{"price": 15, "volume": 5}); err == nil {
		t.Fatal("publish from an unregistered producer must be refused")
	}

	if err := cl.Publish(1, filter.Event{"price": 15, "volume": 5}); err != nil {
		t.Fatal(err)
	}
	select {
	case e := <-cl.Events():
		if e.Subscriber != 1 || e.Event["price"] != 15 {
			t.Fatalf("got %+v", e)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("subscriber never received its own publish")
	}

	if err := cl.Unsubscribe(1); err != nil {
		t.Fatal(err)
	}
	if err := cl.Unsubscribe(1); err == nil {
		t.Fatal("double unsubscribe must be refused")
	}
}

// frontPeer is one client connection as TestCrossSessionUnsubscribe
// drives it, over either front end. event returns the next delivery's
// subscriber and price.
type frontPeer struct {
	subscribe   func(id int64, expr string) error
	unsubscribe func(id int64) error
	publish     func(producer int64, ev filter.Event) error
	event       func() (int64, float64)
}

func rpcPeer(t *testing.T, d *Daemon) frontPeer {
	cl := dialDaemon(t, d)
	return frontPeer{cl.Subscribe, cl.Unsubscribe, cl.Publish, func() (int64, float64) {
		select {
		case e := <-cl.Events():
			return e.Subscriber, e.Event["price"]
		case <-time.After(10 * time.Second):
			t.Fatal("no delivery")
			return 0, 0
		}
	}}
}

// wsPeer reads on the caller's goroutine: call waits for the ack of its
// request and keeps the event frames that arrive before it.
func wsPeer(t *testing.T, d *Daemon) frontPeer {
	c, err := ws.Dial("ws://"+d.HTTPAddr()+"/ws", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	var events []wsReply
	read := func() wsReply {
		t.Helper()
		c.SetReadDeadline(time.Now().Add(10 * time.Second))
		_, payload, err := c.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		var rep wsReply
		if err := json.Unmarshal(payload, &rep); err != nil {
			t.Fatal(err)
		}
		return rep
	}
	call := func(req wsRequest) error {
		t.Helper()
		buf, _ := json.Marshal(req)
		if err := c.WriteText(buf); err != nil {
			t.Fatal(err)
		}
		for {
			switch rep := read(); rep.Op {
			case "event":
				events = append(events, rep)
			case "error":
				return fmt.Errorf("%s", rep.Error)
			default:
				return nil
			}
		}
	}
	return frontPeer{
		func(id int64, expr string) error { return call(wsRequest{Op: "subscribe", ID: id, Filter: expr}) },
		func(id int64) error { return call(wsRequest{Op: "unsubscribe", ID: id}) },
		func(producer int64, ev filter.Event) error {
			return call(wsRequest{Op: "publish", Producer: producer, Event: ev})
		},
		func() (int64, float64) {
			if len(events) == 0 {
				events = append(events, read())
			}
			e := events[0]
			events = events[1:]
			return e.ID, e.Event["price"]
		},
	}
}

// TestCrossSessionUnsubscribe pins the session trust boundary on both
// front ends: a subscription is ended only by the session that owns it.
func TestCrossSessionUnsubscribe(t *testing.T) {
	for name, dial := range map[string]func(*testing.T, *Daemon) frontPeer{"rpc": rpcPeer, "ws": wsPeer} {
		t.Run(name, func(t *testing.T) {
			d := startCluster(t, 1)[0]
			a, b := dial(t, d), dial(t, d)
			if err := a.subscribe(7, "price in [10, 20] && volume in [0, 100]"); err != nil {
				t.Fatal(err)
			}
			if err := b.unsubscribe(7); err == nil || !strings.Contains(err.Error(), "7") {
				t.Fatalf("unsubscribe of another session's subscription: got %v, want an error naming 7", err)
			}
			if err := a.publish(7, filter.Event{"price": 15, "volume": 5}); err != nil {
				t.Fatal(err)
			}
			if sub, price := a.event(); sub != 7 || price != 15 {
				t.Fatalf("owner received (%d, %v) after the refused unsubscribe, want (7, 15)", sub, price)
			}
			if err := a.unsubscribe(7); err != nil {
				t.Fatalf("owner's unsubscribe: %v", err)
			}
			if n := d.Broker().Len(); n != 0 {
				t.Fatalf("%d subscriptions left after the owner unsubscribed", n)
			}
		})
	}
}

func TestHTTPEndpoints(t *testing.T) {
	ds := startCluster(t, 1)
	base := "http://" + ds[0].HTTPAddr()
	cl := dialDaemon(t, ds[0])
	if err := cl.Subscribe(1, "price in [10, 20] && volume in [0, 100]"); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %s", resp.Status)
	}

	resp, err = http.Get(base + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Node       int `json:"node"`
		Goroutines int `json:"goroutines"`
		Gateways   []struct {
			ProcID int `json:"ProcID"`
			Joined bool
			Filter geom.Rect
		} `json:"gateways"`
		Overlay map[string]float64 `json:"overlay"`
		Store   json.RawMessage    `json:"store"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Store != nil {
		t.Errorf("statsz store = %s on a daemon without a data directory", stats.Store)
	}
	if len(stats.Gateways) != 2 {
		t.Fatalf("statsz gateways = %d, want 2", len(stats.Gateways))
	}
	// Subscriber 1 hashes to gateway 1, whose overlay filter is the
	// subscription's rectangle; the idle gateway's is empty (null).
	if g := stats.Gateways[1]; !g.Joined || !g.Filter.Equal(geom.R2(10, 0, 20, 100)) {
		t.Errorf("statsz gateway 1 = %+v, want joined with filter [10,20]x[0,100]", g)
	}
	if g := stats.Gateways[0]; g.Joined || !g.Filter.IsEmpty() {
		t.Errorf("statsz gateway 0 = %+v, want not joined, empty filter", g)
	}
	// The gateway's join went through the anchor: the overlay counters
	// have seen traffic, and the run loop's queue has stood at least one
	// message deep. There is no drop counter: the runtime has no drop path.
	if stats.Overlay["dispatched"] == 0 || stats.Overlay["queue_high_water"] < 1 {
		t.Errorf("statsz overlay = %+v, want the live runtime's counters", stats.Overlay)
	}
	for _, gone := range []string{"dropped_events", "dropped_protocol"} {
		if _, ok := stats.Overlay[gone]; ok {
			t.Errorf("statsz overlay still reports %q", gone)
		}
	}
	if stats.Goroutines < 1 {
		t.Errorf("statsz goroutines = %d, want the daemon's goroutine count", stats.Goroutines)
	}

	// The client edge: frames per write is readable from /statsz. A lone
	// match leaves in a write of its own (no delay was added to wait for
	// company); twenty matches for one session leave in fewer than twenty.
	// sessions reads sessions.rpc once the write carrying delivery number
	// frames has been counted (the client can see a frame a moment
	// before the daemon has counted its write).
	sessions := func(frames uint64) frontSnapshot {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			resp, err := http.Get(base + "/statsz")
			if err != nil {
				t.Fatal(err)
			}
			var stats struct {
				Sessions struct{ RPC, WS frontSnapshot } `json:"sessions"`
			}
			err = json.NewDecoder(resp.Body).Decode(&stats)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if stats.Sessions.WS != (frontSnapshot{}) {
				t.Errorf("statsz sessions.ws = %+v with no WebSocket session", stats.Sessions.WS)
			}
			if got := stats.Sessions.RPC; got.NotifyFrames >= frames || time.Now().After(deadline) {
				return got
			}
		}
	}
	// The publisher sits on a session of its own, so no ack shares the
	// subscriber's socket.
	pub := dialDaemon(t, ds[0])
	if err := pub.Subscribe(2, "price in [900, 901]"); err != nil {
		t.Fatal(err)
	}
	received := uint64(0) // deliveries read from cl so far
	// publish fires one event and reports whether all its matches
	// arrived; a publish racing a gateway's join may be lost (publishing
	// is fire-and-forget), so the measured publishes follow a converged
	// one.
	publish := func(matches int) bool {
		t.Helper()
		if err := pub.Publish(2, filter.Event{"price": 15, "volume": 5}); err != nil {
			t.Fatal(err)
		}
		timeout := time.After(time.Second)
		for i := 0; i < matches; i++ {
			select {
			case <-cl.Events():
				received++
			case <-timeout:
				return false
			}
		}
		return true
	}
	converged := func(matches int) frontSnapshot {
		t.Helper()
		for tries := 0; !publish(matches); tries++ {
			if tries == 20 {
				t.Fatalf("no publish reached all %d matches", matches)
			}
		}
		return sessions(received)
	}
	before := converged(1)
	if !publish(1) {
		t.Fatal("lone match not delivered on a converged overlay")
	}
	if got := sessions(received); got.Open != 2 || got.NotifyFrames != before.NotifyFrames+1 ||
		got.NotifyWrites != before.NotifyWrites+1 || got.NotifyBytes <= before.NotifyBytes {
		t.Fatalf("statsz sessions.rpc %+v -> %+v, want 2 open and the lone match in a write of its own", base, got)
	}
	for id := int64(101); id < 120; id++ {
		if err := cl.Subscribe(id, "price in [10, 20] && volume in [0, 100]"); err != nil {
			t.Fatal(err)
		}
	}
	before = converged(20)
	if !publish(20) {
		t.Fatal("20 matches not delivered on a converged overlay")
	}
	if got := sessions(received); got.NotifyFrames != before.NotifyFrames+20 || got.NotifyWrites-before.NotifyWrites >= 20 {
		t.Fatalf("statsz sessions.rpc %+v -> %+v, want 20 more frames in fewer than 20 writes", base, got)
	}
}

// TestThreeDaemonIdleBudget is the quiescent-stabilization budget: a
// converged three-daemon overlay (every gateway joined: 13 actors) that
// is left alone sends at most 2000 overlay messages a second across all
// three transports. At a fixed 2ms check period it sent ~15 000.
func TestThreeDaemonIdleBudget(t *testing.T) {
	const gateways = 4
	ds := startClusterOf(t, 3, gateways)
	// Subscriber id lands on gateway id%4 of its daemon: four consecutive
	// ids join all four. Every filter contains the probe quote below.
	got := make(chan int64, 64)
	id := int64(0)
	for _, d := range ds {
		cl := dialDaemon(t, d)
		for g := 0; g < gateways; g++ {
			id++
			if err := cl.Subscribe(id, fmt.Sprintf("price in [0, %d] && volume in [0, 1000]", 100+id)); err != nil {
				t.Fatalf("subscribe %d: %v", id, err)
			}
		}
		go func() {
			for e := range cl.Events() {
				got <- e.Subscriber
			}
		}()
	}
	// Converged: one publish reaches all twelve subscribers. Republish
	// (with a fresh price) while MBRs are still settling.
	pub := dialDaemon(t, ds[1])
	deadline := time.Now().Add(60 * time.Second)
	for price := 50.0; ; price++ {
		if time.Now().After(deadline) {
			t.Fatal("overlay never converged: no publish reached all twelve subscribers")
		}
		for len(got) > 0 {
			<-got
		}
		if err := pub.Publish(5, filter.Event{"price": price, "volume": 10}); err != nil {
			t.Fatal(err)
		}
		seen := make(map[int64]bool)
		for settle := time.After(500 * time.Millisecond); len(seen) < int(id); {
			select {
			case s := <-got:
				seen[s] = true
				continue
			case <-settle:
			}
			break
		}
		if len(seen) == int(id) {
			break
		}
	}

	sent := func() (n uint64) {
		for _, d := range ds {
			n += d.TransportStats().Sent
		}
		return n
	}
	time.Sleep(time.Second)
	before := sent()
	time.Sleep(time.Second)
	idle := sent() - before
	actors, backedOff := 0, 0
	for _, d := range ds {
		actors += d.lc.Len()
		backedOff += d.lc.Stats().BackedOff
	}
	t.Logf("idle second: %d overlay messages, %d of %d actors backed off", idle, backedOff, actors)
	if actors != 1+3*gateways {
		t.Fatalf("%d overlay actors, want the anchor and %d gateways", actors, 3*gateways)
	}
	if idle > 2000 {
		for i, d := range ds {
			t.Logf("daemon %d: overlay %+v actors %+v", i, d.lc.Stats(), d.lc.ActorStates())
		}
		t.Fatalf("%d overlay messages in an idle second, budget is 2000 (%d of %d actors backed off)", idle, backedOff, actors)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(WithNode(2), WithPeers("a"), WithSpace("x")); err == nil {
		t.Error("node outside peer list must be refused")
	}
	if _, err := New(WithNode(0), WithPeers("127.0.0.1:0")); err == nil {
		t.Error("empty space must be refused")
	}
	if _, err := New(WithNode(0), WithPeers("256.0.0.1:http"), WithSpace("x")); err == nil {
		t.Error("unusable listen address must surface")
	}
	// Options validate at application time, before any construction.
	if _, err := New(WithNode(-1)); err == nil {
		t.Error("negative node index must be refused")
	}
	if _, err := New(WithPeers()); err == nil {
		t.Error("empty peer list must be refused")
	}
	if _, err := New(WithSpace()); err == nil {
		t.Error("empty space option must be refused")
	}
	if _, err := New(WithGateways(0)); err == nil {
		t.Error("zero gateways must be refused")
	}
	if _, err := New(WithFanout(2, 3)); err == nil {
		t.Error("fanout violating M >= 2m must be refused")
	}
	if _, err := New(WithSnapshotEvery(0)); err == nil {
		t.Error("zero snapshot cadence must be refused")
	}
}

// TestOwnerMapping pins the process-ID partitioning arithmetic the
// whole deployment hangs on.
func TestOwnerMapping(t *testing.T) {
	cases := []struct {
		p    int
		want int
	}{
		{1, 0}, {2, 0}, {Stride, 0}, {Stride + 1, 1}, {2 * Stride, 1}, {2*Stride + 2, 2},
	}
	for _, c := range cases {
		if got := ownerOf(core.ProcID(c.p)); got != c.want {
			t.Errorf("ownerOf(%d) = %d, want %d", c.p, got, c.want)
		}
	}
	if gatewayBase(1) != core.ProcID(Stride+2) {
		t.Errorf("gatewayBase(1) = %d", gatewayBase(1))
	}
	if ownerOf(gatewayBase(2)) != 2 {
		t.Errorf("gateway base of daemon 2 not owned by daemon 2")
	}
}
