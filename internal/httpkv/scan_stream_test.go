package httpkv

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"

	"ycsbt/internal/db"
	"ycsbt/internal/kvstore"
	"ycsbt/internal/kvwire"
	"ycsbt/internal/obs"
)

// startStreamListenerFor boots a metrics-instrumented binary listener
// so tests can assert which transport scans actually rode.
func startStreamListenerFor(t *testing.T, core *kvwire.Core) (string, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	core.Instrument(reg)
	ws := kvwire.NewServer(core, kvwire.ServerOptions{Metrics: reg})
	go ws.Serve(ln)
	t.Cleanup(func() { ws.Close() })
	return ln.Addr().String(), reg
}

func loadFixtureKeys(t *testing.T, c *Client, n int) {
	t.Helper()
	ctx := context.Background()
	ops := make([]db.BatchOp, 0, n)
	for i := 0; i < n; i++ {
		ops = append(ops, db.BatchOp{
			Op: db.OpInsert, Table: "t", Key: fmt.Sprintf("user%05d", i),
			Values: rec(fmt.Sprintf("v%05d", i)),
		})
	}
	for _, res := range c.ExecBatch(ctx, ops) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
}

func checkScan(t *testing.T, got []db.KV, start, count int) {
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

// TestScanInteropNewClientNewServer: once the stream capability is
// sniffed, scans ride chunked frames — the HTTP request count freezes
// while the server's chunk counter moves — with results identical to
// the HTTP path.
func TestScanInteropNewClientNewServer(t *testing.T) {
	ctx := context.Background()
	store, err := kvstore.Open(kvstore.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	core := kvwire.NewCore(store, nil, 0)
	addr, reg := startStreamListenerFor(t, core)
	var httpCount int64
	inner := NewServerWithOptions(store, ServerOptions{Core: core, WireAddr: addr})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		httpCount++
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)

	c := newWireClient(t, srv.URL, nil)
	if err := c.Insert(ctx, "t", "sniff", rec("x")); err != nil { // primes the capability sniff
		t.Fatal(err)
	}
	if !c.caps.wireStream.Load() {
		t.Fatal("stream capability not sniffed from X-KV-Wire-Stream")
	}
	loadFixtureKeys(t, c, 600)
	base := httpCount

	got, err := c.Scan(ctx, "t", "user00100", 400, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkScan(t, got, 100, 400)
	if httpCount != base {
		t.Errorf("HTTP requests grew %d -> %d; scan did not ride the stream", base, httpCount)
	}
	if n := reg.Counter("kvwire_scan_chunks_total").Value(); n == 0 {
		t.Error("kvwire_scan_chunks_total = 0; scan served without chunk frames?")
	}
}

// TestScanInteropNewClientOldWireServer: a server whose binary
// listener predates streams advertises X-KV-Wire without
// X-KV-Wire-Stream. Scans must stay on HTTP — the client never sends
// stream frames the listener would reject — while request/response
// ops still ride the wire.
func TestScanInteropNewClientOldWireServer(t *testing.T) {
	ctx := context.Background()
	store, err := kvstore.Open(kvstore.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	core := kvwire.NewCore(store, nil, 0)
	addr, reg := startStreamListenerFor(t, core)
	inner := NewServerWithOptions(store, ServerOptions{Core: core, WireAddr: addr})
	// Strip the stream advertisement, faking a request/response-only
	// wire build.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inner.ServeHTTP(&headerStripper{ResponseWriter: w, strip: WireStreamHeader}, r)
	}))
	t.Cleanup(srv.Close)

	c := newWireClient(t, srv.URL, nil)
	if err := c.Insert(ctx, "t", "sniff", rec("x")); err != nil {
		t.Fatal(err)
	}
	if c.caps.wireAddr.Load() == nil {
		t.Fatal("wire address not sniffed")
	}
	if c.caps.wireStream.Load() {
		t.Fatal("stream capability latched without the advertisement")
	}
	loadFixtureKeys(t, c, 100)

	got, err := c.Scan(ctx, "t", "user00000", 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkScan(t, got, 0, 50)
	if n := reg.Counter("kvwire_scan_chunks_total").Value(); n != 0 {
		t.Errorf("kvwire_scan_chunks_total = %d; client streamed against a non-advertising server", n)
	}
	// The request/response path still negotiated.
	if c.caps.wireEp.Load() == nil {
		t.Error("request/response wire path should still be live")
	}
}

// headerStripper deletes one response header at write time.
type headerStripper struct {
	http.ResponseWriter
	strip string
}

func (h *headerStripper) WriteHeader(code int) {
	h.Header().Del(h.strip)
	h.ResponseWriter.WriteHeader(code)
}

// TestScanInteropOldClientNewServer: with the binary path disabled the
// scan serves over HTTP against a stream-capable server, chunk-free.
func TestScanInteropOldClientNewServer(t *testing.T) {
	ctx := context.Background()
	store, err := kvstore.Open(kvstore.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	core := kvwire.NewCore(store, nil, 0)
	addr, reg := startStreamListenerFor(t, core)
	srv := httptest.NewServer(NewServerWithOptions(store, ServerOptions{Core: core, WireAddr: addr}))
	t.Cleanup(srv.Close)

	c := newWireClient(t, srv.URL, map[string]string{"rawhttp.wire": WireModeOff})
	loadFixtureKeys(t, c, 100)
	got, err := c.Scan(ctx, "t", "user00000", 80, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkScan(t, got, 0, 80)
	if n := reg.Counter("kvwire_scan_chunks_total").Value(); n != 0 {
		t.Errorf("kvwire_scan_chunks_total = %d with rawhttp.wire=off", n)
	}
	if c.caps.wireEp.Load() != nil {
		t.Error("wire endpoint created despite rawhttp.wire=off")
	}
}

// TestScanInteropNewClientNoWireServer: no advertisement at all —
// scans serve over HTTP, full semantics (the fourth pairing).
func TestScanInteropNewClientNoWireServer(t *testing.T) {
	ctx := context.Background()
	store, err := kvstore.Open(kvstore.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	srv := httptest.NewServer(NewServer(store))
	t.Cleanup(srv.Close)
	c := newWireClient(t, srv.URL, nil)
	loadFixtureKeys(t, c, 100)
	got, err := c.Scan(ctx, "t", "user00010", 60, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkScan(t, got, 10, 60)
	if c.caps.wireEp.Load() != nil {
		t.Error("client invented a wire endpoint no server advertised")
	}
}

// upgradeClusterNodeToStreams mounts a stream-capable wire listener on
// one in-process cluster node, returning the listener's registry.
func upgradeClusterNodeToStreams(t *testing.T, tn *clusterNode) *obs.Registry {
	t.Helper()
	core := kvwire.NewCore(tn.store, tn.state, 0)
	addr, reg := startStreamListenerFor(t, core)
	tn.h.Store(NewServerWithOptions(tn.store, ServerOptions{
		Cluster: tn.state, Core: core, WireAddr: addr,
	}))
	return reg
}

// TestRouterScanStreamsAcrossFleet: a routed scan against a
// stream-capable fleet merges per-node chunk streams — every node's
// chunk counter moves, and the merged order and values match the
// key space.
func TestRouterScanStreamsAcrossFleet(t *testing.T) {
	nodes := startTestCluster(t, 3, 12)
	regs := make([]*obs.Registry, len(nodes))
	for i, tn := range nodes {
		regs[i] = upgradeClusterNodeToStreams(t, tn)
	}
	r := newTestRouter(t, nodes, nil)
	ctx := context.Background()

	n := 400
	ops := make([]db.BatchOp, 0, n)
	for i := 0; i < n; i++ {
		ops = append(ops, db.BatchOp{
			Op: db.OpInsert, Table: "t", Key: fmt.Sprintf("user%05d", i),
			Values: rec(fmt.Sprintf("v%05d", i)),
		})
	}
	for _, res := range r.ExecBatch(ctx, ops) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}

	got, err := r.Scan(ctx, "t", "user00050", 300, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkScan(t, got, 50, 300)
	for i, reg := range regs {
		if c := reg.Counter("kvwire_scan_chunks_total").Value(); c == 0 {
			t.Errorf("node %d served no scan chunks; its slice of the merge did not stream", i)
		}
	}
}

// TestMigrateSlotOverWire: the migration copy rides scan/ingest frames
// when both ends advertise streams — the destination's streamed-ingest
// counter moves, records (and CAS-relevant versions) survive the move,
// and DisableWire forces the HTTP copy for the same migration shape.
func TestMigrateSlotOverWire(t *testing.T) {
	nodes := startTestCluster(t, 2, 8)
	a, b := nodes[0], nodes[1]
	upgradeClusterNodeToStreams(t, a)
	regB := upgradeClusterNodeToStreams(t, b)
	ctx := context.Background()
	m := a.state.Map()

	ca := NewClient(a.URL, a.srv.Client())
	cb := NewClient(b.URL, b.srv.Client())
	keys := make([]string, 0, 64)
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("user%05d", i)
		keys = append(keys, k)
		cl := ca
		if owner, _ := m.Owner(k); owner == b.URL {
			cl = cb
		}
		if err := cl.Insert(ctx, "t", k, rec("v-"+k)); err != nil {
			t.Fatalf("insert %s: %v", k, err)
		}
	}
	// Find a slot node a owns that actually holds keys.
	slot := -1
	for _, k := range keys {
		if owner, _ := m.Owner(k); owner == a.URL {
			slot = m.SlotOf(k)
			break
		}
	}
	if slot < 0 {
		t.Fatal("no key landed on node a")
	}

	next, err := MigrateSlot(ctx, a.srv.Client(), m, slot, b.URL)
	if err != nil {
		t.Fatalf("MigrateSlot: %v", err)
	}
	ingested := regB.Counter("kvwire_ingest_records_total").Value()
	if ingested == 0 {
		t.Error("kvwire_ingest_records_total = 0 on destination; copy did not ride the wire")
	}
	// Every key in the moved slot now serves from b with its value.
	moved := 0
	for _, k := range keys {
		if next.SlotOf(k) != slot {
			continue
		}
		moved++
		got, err := cb.Read(ctx, "t", k, nil)
		if err != nil || string(got["f"]) != "v-"+k {
			t.Fatalf("post-migration read %s from dest: %v %v", k, got, err)
		}
	}
	if moved == 0 {
		t.Fatal("migrated slot held no test keys")
	}

	// Migrate the slot back with the wire disabled: the HTTP copy path
	// must still work and the streamed-ingest counter must not move.
	base := regB.Counter("kvwire_ingest_records_total").Value()
	if _, err := MigrateSlotOpts(ctx, a.srv.Client(), next, slot, a.URL, MigrateOptions{DisableWire: true}); err != nil {
		t.Fatalf("MigrateSlotOpts(DisableWire): %v", err)
	}
	if n := regB.Counter("kvwire_ingest_records_total").Value(); n != base {
		t.Errorf("streamed-ingest counter moved %d -> %d despite DisableWire", base, n)
	}
	for _, k := range keys {
		if next.SlotOf(k) != slot {
			continue
		}
		got, err := ca.Read(ctx, "t", k, nil)
		if err != nil || string(got["f"]) != "v-"+k {
			t.Fatalf("post-rollback read %s from source: %v %v", k, got, err)
		}
	}
}
