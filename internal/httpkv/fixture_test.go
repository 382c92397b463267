package httpkv

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"ycsbt/internal/cluster"
	"ycsbt/internal/db"
	"ycsbt/internal/kvstore"
	"ycsbt/internal/kvwire"
	"ycsbt/internal/obs"
	"ycsbt/internal/properties"
)

// testNode is one in-process server wired the way cmd/kvserver wires
// it: an engine behind one shared Core, a frame listener, and the HTTP
// surface advertising that listener. Both listeners are open before the
// Server exists, so a shard map can name the node's URL first.
type testNode struct {
	URL      string
	wireAddr string
	srv      *httptest.Server
	wireLn   net.Listener
	h        atomic.Pointer[Server]
	httpReqs atomic.Int64 // HTTP requests the node has been sent

	// Set by serve.
	store *kvstore.Store // nil when serve was handed a decorated engine
	state *cluster.State // nil outside cluster mode
	reg   *obs.Registry  // the node's httpkv_*, kvwire_* and cluster series
}

// listenNode opens a node's two listeners; serve completes it.
func listenNode(t testing.TB) *testNode {
	t.Helper()
	tn := &testNode{reg: obs.NewRegistry()}
	tn.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tn.httpReqs.Add(1)
		if s := tn.h.Load(); s != nil {
			s.ServeHTTP(w, r)
			return
		}
		http.Error(w, "booting", http.StatusServiceUnavailable)
	}))
	t.Cleanup(tn.srv.Close)
	tn.URL = tn.srv.URL
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tn.wireLn, tn.wireAddr = ln, ln.Addr().String()
	return tn
}

// serve starts both front ends over eng. cs puts the node in cluster
// mode (nil: standalone); maxInflight is the core's admission limit.
func (tn *testNode) serve(t testing.TB, eng kvstore.Engine, cs *cluster.State, maxInflight int) {
	t.Helper()
	tn.state = cs
	tn.store, _ = eng.(*kvstore.Store)
	core := kvwire.NewCore(eng, cs, maxInflight)
	core.Instrument(tn.reg)
	ws := kvwire.NewServer(core, kvwire.ServerOptions{Metrics: tn.reg})
	go ws.Serve(tn.wireLn)
	t.Cleanup(func() { ws.Close() })
	tn.h.Store(NewServerWithOptions(eng, ServerOptions{Metrics: tn.reg, Core: core, WireAddr: tn.wireAddr}))
}

// startNode boots one standalone node over eng (nil: a fresh store).
func startNode(t testing.TB, eng kvstore.Engine) *testNode {
	t.Helper()
	tn := listenNode(t)
	if eng == nil {
		eng = openTestStore(t)
	}
	tn.serve(t, eng, nil, 0)
	return tn
}

func openTestStore(t testing.TB) *kvstore.Store {
	t.Helper()
	return openRetainingStore(t, kvstore.DefaultRetention)
}

// openRetainingStore is openTestStore with a retention window, as
// kvserver -retention sets one: unpinned as-of reads inside it are
// exact.
func openRetainingStore(t testing.TB, retention time.Duration) *kvstore.Store {
	t.Helper()
	store, err := kvstore.Open(kvstore.Options{Shards: 2, Retention: retention})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return store
}

// startTestCluster boots n cluster-mode nodes sharing one uniform
// hash map over the given slot count.
func startTestCluster(t testing.TB, n, slots int) []*testNode {
	t.Helper()
	return startTestClusterWithMap(t, n, func(addrs []string) (*cluster.Map, error) {
		return cluster.NewUniform(cluster.PlacementHash, slots, addrs, nil)
	})
}

// startTestClusterWithMap boots n cluster-mode nodes sharing the map
// build returns for their addresses.
func startTestClusterWithMap(t testing.TB, n int, build func(addrs []string) (*cluster.Map, error)) []*testNode {
	t.Helper()
	nodes := make([]*testNode, n)
	addrs := make([]string, n)
	for i := range nodes {
		nodes[i] = listenNode(t)
		addrs[i] = nodes[i].URL
	}
	m, err := build(addrs)
	if err != nil {
		t.Fatal(err)
	}
	for _, tn := range nodes {
		cs, err := cluster.NewState(tn.URL, m, tn.reg)
		if err != nil {
			t.Fatal(err)
		}
		tn.serve(t, openTestStore(t), cs, 0)
	}
	return nodes
}

// client returns a Client for the node with its transport settled by
// rawhttp.wire = mode (WireModeAuto finds the frame listener,
// WireModeOff stays on HTTP) plus any further key, value property
// pairs.
func (tn *testNode) client(t testing.TB, mode string, props ...string) *Client {
	t.Helper()
	c := NewClient(tn.URL, nil)
	if err := c.Init(propsOf(append([]string{"rawhttp.wire", mode}, props...)...)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Cleanup() })
	return c
}

// propsOf builds properties from key, value pairs.
func propsOf(kv ...string) *properties.Properties {
	p := properties.New()
	for i := 0; i+1 < len(kv); i += 2 {
		p.Set(kv[i], kv[i+1])
	}
	return p
}

// counter reads one of the node's registry counters.
func (tn *testNode) counter(name string, labels ...string) int64 {
	return tn.reg.Counter(name, labels...).Value()
}

// bothTransports runs fn once per transport.
func bothTransports(t *testing.T, fn func(t *testing.T, mode string)) {
	for _, mode := range []string{WireModeOff, WireModeAuto} {
		t.Run("wire="+mode, func(t *testing.T) { fn(t, mode) })
	}
}

// keyOwnedBy generates a key the given node owns under m.
func keyOwnedBy(t testing.TB, m *cluster.Map, addr, prefix string) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		k := fmt.Sprintf("%s%05d", prefix, i)
		if owner, _ := m.Owner(k); owner == addr {
			return k
		}
	}
	t.Fatalf("no key with prefix %q owned by %s", prefix, addr)
	return ""
}

func rec(v string) db.Record { return db.Record{"f": []byte(v)} }

// loadFixtureKeys inserts user00000..user<n-1> with values v00000...
func loadFixtureKeys(t testing.TB, c *Client, n int) {
	t.Helper()
	ops := make([]db.BatchOp, 0, n)
	for i := 0; i < n; i++ {
		ops = append(ops, db.BatchOp{
			Op: db.OpInsert, Table: "t", Key: fmt.Sprintf("user%05d", i),
			Values: rec(fmt.Sprintf("v%05d", i)),
		})
	}
	for _, res := range c.ExecBatch(context.Background(), ops) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
}

// checkScan expects got to be count fixture records from index start.
func checkScan(t testing.TB, got []db.KV, start, count int) {
	t.Helper()
	if len(got) != count {
		t.Fatalf("scan returned %d records, want %d", len(got), count)
	}
	for i, kv := range got {
		wantKey := fmt.Sprintf("user%05d", start+i)
		if kv.Key != wantKey || string(kv.Record["f"]) != fmt.Sprintf("v%05d", start+i) {
			t.Fatalf("record %d = %s/%q, want %s", i, kv.Key, kv.Record["f"], wantKey)
		}
	}
}
