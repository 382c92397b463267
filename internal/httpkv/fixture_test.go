package httpkv

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"testing"
	"time"

	"ycsbt/internal/cluster"
	"ycsbt/internal/db"
	"ycsbt/internal/kvstore"
	"ycsbt/internal/obs"
	"ycsbt/internal/properties"
)

// testNode is one in-process node booted through ServeNode. Both
// listeners are open before the node serves, so a shard map can name
// its URL first.
type testNode struct {
	URL      string
	wireAddr string
	httpLn   net.Listener
	wireLn   net.Listener
	hc       *http.Client // a client of the test's own, closed with it
	node     *Node

	// Set by serve.
	eng   kvstore.Engine
	opts  NodeOptions
	store *kvstore.Store // nil when serve was handed a decorated engine
	state *cluster.State // nil outside cluster mode
	reg   *obs.Registry  // the node's httpkv_*, kvwire_* and cluster series
}

// listenNode opens a node's two listeners; serve completes it.
func listenNode(t testing.TB) *testNode {
	t.Helper()
	tn := &testNode{httpLn: listenOn(t, "127.0.0.1:0"), wireLn: listenOn(t, "127.0.0.1:0"), reg: obs.NewRegistry()}
	tn.URL, tn.wireAddr = "http://"+tn.httpLn.Addr().String(), tn.wireLn.Addr().String()
	tn.hc = &http.Client{Transport: &http.Transport{}}
	t.Cleanup(tn.hc.CloseIdleConnections)
	return tn
}

// listenOn listens on addr ("127.0.0.1:0": any free loopback port).
func listenOn(t testing.TB, addr string) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// serve boots the node over eng; o.Metrics defaults to the node's
// registry.
func (tn *testNode) serve(t testing.TB, eng kvstore.Engine, o NodeOptions) {
	t.Helper()
	if o.Metrics == nil {
		o.Metrics = tn.reg
	}
	tn.eng, tn.opts, tn.state, tn.reg = eng, o, o.Cluster, o.Metrics
	tn.store, _ = eng.(*kvstore.Store)
	nd := ServeNode(eng, tn.httpLn, tn.wireLn, o)
	tn.node = nd
	t.Cleanup(func() { shutdown(nd) })
}

// join serves eng as m's member at tn.URL.
func (tn *testNode) join(t testing.TB, m *cluster.Map, eng kvstore.Engine, o NodeOptions) {
	t.Helper()
	cs, err := cluster.NewState(tn.URL, m, tn.reg)
	if err != nil {
		t.Fatal(err)
	}
	o.Cluster = cs
	tn.serve(t, eng, o)
}

// shutdown drains a node for at most five seconds.
func shutdown(nd *Node) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return nd.Shutdown(ctx)
}

// restart shuts the node down and boots it again on the same HTTP
// address over the same engine and options, with a new frame listener
// when wire is set and none otherwise.
func (tn *testNode) restart(t testing.TB, wire bool) {
	t.Helper()
	if err := shutdown(tn.node); err != nil {
		t.Fatal(err)
	}
	tn.httpLn = listenOn(t, tn.httpLn.Addr().String())
	tn.wireLn, tn.wireAddr = nil, ""
	if wire {
		tn.wireLn = listenOn(t, "127.0.0.1:0")
		tn.wireAddr = tn.wireLn.Addr().String()
	}
	tn.serve(t, tn.eng, tn.opts)
}

// startNode boots one standalone node over eng (nil: a fresh store).
func startNode(t testing.TB, eng kvstore.Engine) *testNode {
	t.Helper()
	tn := listenNode(t)
	if eng == nil {
		eng = openTestStore(t)
	}
	tn.serve(t, eng, NodeOptions{})
	return tn
}

// startHTTPNode boots one node over eng that serves HTTP only.
func startHTTPNode(t testing.TB, eng kvstore.Engine, o NodeOptions) *testNode {
	t.Helper()
	tn := listenNode(t)
	tn.wireLn.Close()
	tn.wireLn, tn.wireAddr = nil, ""
	tn.serve(t, eng, o)
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
		tn.join(t, m, openTestStore(t), NodeOptions{})
	}
	return nodes
}

// startPair boots two cluster-mode nodes over the given engines under
// one uniform hash map of 8 slots.
func startPair(t testing.TB, engA, engB kvstore.Engine) (a, b *testNode, m *cluster.Map) {
	t.Helper()
	a, b = listenNode(t), listenNode(t)
	m, err := cluster.NewUniform(cluster.PlacementHash, 8, []string{a.URL, b.URL}, nil)
	if err != nil {
		t.Fatal(err)
	}
	a.join(t, m, engA, NodeOptions{})
	b.join(t, m, engB, NodeOptions{})
	return a, b, m
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

// httpReqs is the HTTP requests the node has answered:
// httpkv_responses_total over every code.
func (tn *testNode) httpReqs() int64 {
	n := tn.counter("httpkv_responses_total", "code", "other")
	for _, code := range trackedCodes {
		n += tn.counter("httpkv_responses_total", "code", strconv.Itoa(code))
	}
	return n
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

// discard reads a response of the test's own net/http client to EOF
// and closes it.
func discard(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

func rec(v string) db.Record { return db.Record{"f": []byte(v)} }

// loadFixtureKeys inserts user00000..user<n-1> with values v00000...
func loadFixtureKeys(t testing.TB, c *Client, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := c.Insert(context.Background(), "t", fmt.Sprintf("user%05d", i), rec(fmt.Sprintf("v%05d", i))); err != nil {
			t.Fatal(err)
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
		if kv.Key != wantKey || string(kv.Fields.Map()["f"]) != fmt.Sprintf("v%05d", start+i) {
			t.Fatalf("record %d = %s/%q, want %s", i, kv.Key, kv.Fields.Map()["f"], wantKey)
		}
	}
}
