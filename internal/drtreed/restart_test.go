package drtreed

import (
	"encoding/json"
	"net"
	"net/http"
	"testing"
	"time"

	"drtree/internal/filter"
	"drtree/internal/ws"
)

// TestThreeDaemonRestart is the durable variant of the stockticker
// acceptance scenario: traders spread over a 3-daemon cluster whose
// daemons journal to per-daemon data directories, the whole cluster
// shuts down with every client session still open (so no unsubscribe
// runs), restarts from disk on the same addresses — and the full
// subscription set resumes, with fresh client sessions re-attaching by
// subscription ID and receiving post-restart quotes with zero false
// negatives.
func TestThreeDaemonRestart(t *testing.T) {
	const n = 3
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = t.TempDir()
	}

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
	boot := func(i int, ln net.Listener) *Daemon {
		t.Helper()
		hln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		d, err := New(
			WithNode(i),
			WithPeers(peers...),
			WithListener(ln),
			WithHTTPListener(hln),
			WithSpace("price", "volume"),
			WithGateways(2),
			WithDataDir(dirs[i]),
			WithLogf(t.Logf),
		)
		if err != nil {
			t.Fatalf("daemon %d: %v", i, err)
		}
		return d
	}
	ds := make([]*Daemon, n)
	for i := range ds {
		ds[i] = boot(i, lns[i])
	}
	closeAll := func() {
		for _, d := range ds {
			if d != nil {
				d.Close()
			}
		}
	}
	defer closeAll()

	traders := map[int64]string{
		1: "price in [0, 1000] && volume in [0, 100000]",
		2: "price in [90, 110] && volume in [0, 100000]",
		3: "price in [95, 105] && volume in [5000, 100000]",
		4: "price >= 200 && volume >= 10000",
		5: "price in [90, 100] && volume in [0, 1000]",
		6: "price in [100, 300] && volume in [0, 50000]",
	}
	preds := make(map[int64]filter.Filter, len(traders))
	for id, expr := range traders {
		preds[id] = filter.MustParse(expr)
	}

	col := newCollector()
	clients := make(map[int64]*Client)
	dial := func(id int64) *Client {
		t.Helper()
		cl, err := Dial(ds[int(id)%n].Addr(), 5*time.Second)
		if err != nil {
			t.Fatalf("trader %d: %v", id, err)
		}
		clients[id] = cl
		go col.drain(cl.Events())
		return cl
	}
	for id, expr := range traders {
		if err := dial(id).Subscribe(id, expr); err != nil {
			t.Fatalf("trader %d subscribe: %v", id, err)
		}
	}

	// Each daemon journaled its two traders, and /statsz says what that
	// cost: two records, and between one fsync (a shared one) and two.
	for i, d := range ds {
		resp, err := http.Get("http://" + d.HTTPAddr() + "/statsz")
		if err != nil {
			t.Fatal(err)
		}
		var stats struct {
			Store *struct {
				Records  int    `json:"records"`
				Appended uint64 `json:"appended"`
				Syncs    uint64 `json:"syncs"`
			} `json:"store"`
		}
		err = json.NewDecoder(resp.Body).Decode(&stats)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st := stats.Store; st == nil || st.Records != 2 || st.Appended != 2 || st.Syncs < 1 || st.Syncs > 2 {
			t.Fatalf("daemon %d statsz store = %+v, want 2 records appended in 1..2 syncs", i, st)
		}
	}

	// publishUntilDelivered drives one quote to zero false negatives,
	// republishing while the overlay converges.
	publishUntilDelivered := func(pub *Client, producer int64, quote filter.Event) {
		t.Helper()
		var expect []int64
		for id, f := range preds {
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
				t.Fatalf("false negatives for quote %v: traders %v never received it", quote, missing)
			}
		}
	}

	// Pre-crash sanity: the cluster routes.
	publishUntilDelivered(clients[1], 1, filter.Event{"price": 99.001, "volume": 500})
	publishUntilDelivered(clients[1], 1, filter.Event{"price": 240.002, "volume": 20000})

	// The whole cluster goes down with every session still open: no
	// teardown unsubscribes run, the journals keep all six traders.
	closeAll()
	for _, cl := range clients {
		cl.Close()
	}
	clients = map[int64]*Client{}

	// Restart from disk on the same addresses, anchor daemon first.
	for i := range ds {
		ln, err := net.Listen("tcp", peers[i])
		if err != nil {
			t.Fatalf("rebinding %s: %v", peers[i], err)
		}
		ds[i] = boot(i, ln)
	}
	total := 0
	for i, d := range ds {
		got := d.Broker().Len()
		total += got
		t.Logf("daemon %d recovered %d subscribers", i, got)
	}
	if total != len(traders) {
		t.Fatalf("cluster recovered %d subscribers, want %d", total, len(traders))
	}

	// Fresh sessions re-attach by subscription ID — no resubscribe.
	// Trader 6 re-attaches over the WebSocket front end instead; the
	// binary clients use the Attach RPC.
	for id := range traders {
		if id == 6 {
			continue
		}
		if err := dial(id).Attach(id); err != nil {
			t.Fatalf("trader %d attach: %v", id, err)
		}
	}
	if err := clients[1].Attach(999); err == nil {
		t.Fatal("attach to an unknown subscription must be refused")
	}

	wsc, err := ws.Dial("ws://"+ds[0].HTTPAddr()+"/ws", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer wsc.Close()
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
	req, _ := json.Marshal(wsRequest{V: WSProtoVersion, Op: "attach", ID: 6})
	if err := wsc.WriteText(req); err != nil {
		t.Fatal(err)
	}
	if rep := <-wsReplies; rep.Op != "ok" || rep.V != WSProtoVersion {
		t.Fatalf("ws attach: %+v", rep)
	}

	// Post-restart quotes reach every matching trader: zero false
	// negatives from the recovered subscription set.
	publishUntilDelivered(clients[2], 2, filter.Event{"price": 101.003, "volume": 700})
	publishUntilDelivered(clients[4], 4, filter.Event{"price": 205.004, "volume": 40000})
	publishUntilDelivered(clients[2], 2, filter.Event{"price": 93.005, "volume": 950})
}
