package httpkv

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"ycsbt/internal/db"
	"ycsbt/internal/kvstore"
	"ycsbt/internal/kvwire"
)

// An endpoint rides exactly one data plane, chosen once: with frames
// (discovered or named) the server's HTTP request count stops at the
// probe while frames and scan pages move; with the wire off no frame
// is ever sent. Same answers either way.
func TestOneTransportPerEndpoint(t *testing.T) {
	for _, tc := range []struct {
		name     string
		mode     func(tn *testNode) string
		httpReqs int64 // control-plane requests Init may send
		frames   bool
	}{
		{"auto", func(*testNode) string { return WireModeAuto }, 1, true},
		{"explicit", func(tn *testNode) string { return tn.wireAddr }, 0, true},
		{"off", func(*testNode) string { return WireModeOff }, 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			tn := startNode(t, nil)
			c := tn.client(t, tc.mode(tn))
			if got := tn.httpReqs(); got != tc.httpReqs {
				t.Fatalf("Init sent %d HTTP requests, want %d", got, tc.httpReqs)
			}

			loadFixtureKeys(t, c, 300)
			if err := c.Update(ctx, "t", "user00007", rec("v00007")); err != nil {
				t.Fatal(err)
			}
			got, err := c.Read(ctx, "t", "user00007", nil)
			if err != nil || string(got["f"]) != "v00007" {
				t.Fatalf("read = %v, %v", got, err)
			}
			if _, err := c.Read(ctx, "t", "nope", nil); !errors.Is(err, db.ErrNotFound) {
				t.Fatalf("read of missing key: %v, want ErrNotFound", err)
			}
			if err := c.PutIfVersion(ctx, "t", "user00007", rec("x"), 99); !errors.Is(err, db.ErrConflict) {
				t.Fatalf("stale CAS: %v, want ErrConflict", err)
			}
			if err := c.Delete(ctx, "t", "user00299"); err != nil {
				t.Fatal(err)
			}
			kvs, err := c.Scan(ctx, "t", "user00100", 150, nil)
			if err != nil {
				t.Fatal(err)
			}
			checkScan(t, kvs, 100, 150)

			frames, chunks := tn.counter("kvwire_frames_total", "dir", "in"), tn.counter("kvwire_scan_chunks_total")
			if tc.frames {
				if got := tn.httpReqs(); got != tc.httpReqs {
					t.Errorf("HTTP requests grew %d -> %d after Init: an op left the frames", tc.httpReqs, got)
				}
				if frames == 0 || chunks == 0 {
					t.Errorf("frames in = %d, scan pages = %d; want both > 0", frames, chunks)
				}
			} else if frames != 0 || chunks != 0 {
				t.Errorf("frames in = %d, scan pages = %d with the wire off", frames, chunks)
			}
		})
	}
}

// An advertised listener without a usable host takes the one the client
// reaches the server by; an address without a port is unusable.
func TestResolveWireAddr(t *testing.T) {
	for _, tc := range []struct{ base, adv, want string }{
		{"127.0.0.1:8077", "10.0.0.2:9077", "10.0.0.2:9077"},
		{"127.0.0.1:8077", ":9077", "127.0.0.1:9077"},
		{"kv.example:8077", "0.0.0.0:9077", "kv.example:9077"},
		{"[::1]:8077", "[::]:9077", "[::1]:9077"},
		{"127.0.0.1:8077", "9077", ""},
		{"127.0.0.1:8077", "10.0.0.2:", ""},
	} {
		if got := resolveWireAddr(tc.base, tc.adv); got != tc.want {
			t.Errorf("resolveWireAddr(%q, %q) = %q, want %q", tc.base, tc.adv, got, tc.want)
		}
	}
}

// The frame listener is advertised where probeWire looks for it, on
// /healthz, and nowhere else: a record GET carries no X-KV-Wire.
func TestWireListenerAdvertisedOnHealthzOnly(t *testing.T) {
	tn := startNode(t, nil)
	if _, err := tn.store.Put("t", "k", map[string][]byte{"f": []byte("v")}); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]string{"/healthz": tn.wireAddr, "/v1/t/k": ""} {
		resp, err := http.Get(tn.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		discard(resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if got := resp.Header.Get(WireAddrHeader); got != want {
			t.Errorf("GET %s: %s = %q, want %q", path, WireAddrHeader, got, want)
		}
	}
}

// A probe that cannot reach the server fails Init; it is not read as
// "no listener, use HTTP".
func TestInitFailedProbeIsNotADowngrade(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	url := srv.URL
	srv.Close()
	c := NewClient(url, nil)
	if err := c.Init(propsOf("rawhttp.wire", WireModeAuto)); err == nil {
		t.Fatal("Init succeeded against an unreachable server")
	}
	if c.wire != nil {
		t.Fatal("failed probe left an endpoint behind")
	}
}

// newAsOfNode seeds a node with a known snapshot and mutates past it:
// at ts k1..k4 = "old"; after it k1 = "new", k3 deleted, k5 inserted.
// Its readers hold no pin on the server, so the node keeps a minute of
// overwritten versions (kvserver -retention 1m). The node serves an
// audited engine: the test fails if a record it handed out was mutated.
func newAsOfNode(t *testing.T) (tn *testNode, ts int64) {
	t.Helper()
	audit := kvstore.NewAuditEngine(openRetainingStore(t, time.Minute))
	t.Cleanup(func() {
		if err := audit.Verify(); err != nil {
			t.Error(err)
		}
	})
	tn = startNode(t, audit)
	for i := 1; i <= 4; i++ {
		if _, err := tn.eng.Put("t", "k"+strconv.Itoa(i), map[string][]byte{"v": []byte("old")}); err != nil {
			t.Fatal(err)
		}
	}
	ts = tn.eng.SnapshotTS()
	if _, err := tn.eng.Put("t", "k1", map[string][]byte{"v": []byte("new")}); err != nil {
		t.Fatal(err)
	}
	if err := tn.eng.Delete("t", "k3"); err != nil {
		t.Fatal(err)
	}
	if _, err := tn.eng.Put("t", "k5", map[string][]byte{"v": []byte("late")}); err != nil {
		t.Fatal(err)
	}
	return tn, ts
}

// At a snapshot ts, get, scan and a frame of gets all answer from the
// frozen snapshot — over frames, the only place as-of reads exist.
func TestAsOfReadsOverFrames(t *testing.T) {
	ctx := context.Background()
	tn, ts := newAsOfNode(t)
	c := tn.client(t, WireModeAuto)
	rs := &RemoteStore{name: "remote", c: c}

	if now, err := c.SnapshotTS(ctx); err != nil || now <= ts {
		t.Fatalf("SnapshotTS = %d, %v; want > snapshot", now, err)
	}
	for key, want := range map[string]string{"k1": "old", "k3": "old"} {
		rec, err := rs.GetAsOf(ctx, "t", key, ts)
		if err != nil || string(rec.Field("v")) != want {
			t.Fatalf("GetAsOf %s = %v, %v; want %q", key, rec, err, want)
		}
	}
	if _, err := rs.GetAsOf(ctx, "t", "k5", ts); !errors.Is(err, db.ErrNotFound) {
		t.Fatalf("GetAsOf later-inserted k5: %v, want ErrNotFound", err)
	}
	kvs, err := rs.ScanAsOf(ctx, "t", "", 10, ts)
	if err != nil || len(kvs) != 4 {
		t.Fatalf("as-of scan saw %d keys, %v; want 4", len(kvs), err)
	}
	for _, kv := range kvs {
		if got := string(kv.Record.Field("v")); got != "old" {
			t.Fatalf("as-of scan %s = %q, want \"old\"", kv.Key, got)
		}
	}
	// Several as-of gets in one request frame, each stamped with the
	// snapshot as the single reads are.
	res, err := c.exec(ctx, []kvwire.Op{
		{Kind: kvwire.KindGet, Table: "t", Key: "k1", AsOf: ts},
		{Kind: kvwire.KindGet, Table: "t", Key: "k3", AsOf: ts},
		{Kind: kvwire.KindGet, Table: "t", Key: "k5", AsOf: ts},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := wireResultErr(res[i]); err != nil || string(res[i].Fields["v"]) != "old" {
			t.Fatalf("batch item %d = %v, %v; want \"old\"", i, res[i].Fields, err)
		}
	}
	if err := wireResultErr(res[2]); !errors.Is(err, db.ErrNotFound) {
		t.Fatalf("batch read of later-inserted k5: %v, want ErrNotFound", err)
	}
	// A ts drawn from the server's clock now freezes the head as of
	// the draw.
	now, err := c.SnapshotTS(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.eng.Put("t", "k1", map[string][]byte{"v": []byte("newer")}); err != nil {
		t.Fatal(err)
	}
	if rec, err := rs.GetAsOf(ctx, "t", "k1", now); err != nil || string(rec.Field("v")) != "new" {
		t.Fatalf("read at the drawn ts = %v, %v; want \"new\"", rec, err)
	}
}

// TestAsOfRemoteStoreSnapshot drives the txn-facing SnapshotStore
// capability end to end: draw a ts, keep reading the frozen cut through
// GetAsOf/ScanAsOf while the head moves on.
func TestAsOfRemoteStoreSnapshot(t *testing.T) {
	ctx := context.Background()
	tn, _ := newAsOfNode(t)
	rs, err := NewRemoteStore("remote", tn.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.c.Cleanup()

	ts, release, err := rs.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if _, err := tn.eng.Put("t", "k1", map[string][]byte{"v": []byte("newer")}); err != nil {
		t.Fatal(err)
	}
	rec, err := rs.GetAsOf(ctx, "t", "k1", ts)
	if err != nil || string(rec.Field("v")) != "new" {
		t.Fatalf("remote GetAsOf = %v, %v; want \"new\"", rec, err)
	}
	if _, err := rs.GetAsOf(ctx, "t", "k3", ts); !errors.Is(err, kvstore.ErrNotFound) {
		t.Fatalf("remote GetAsOf deleted key: %v, want kvstore.ErrNotFound", err)
	}
	kvs, err := rs.ScanAsOf(ctx, "t", "", 10, ts)
	if err != nil || len(kvs) != 4 {
		t.Fatalf("remote ScanAsOf = %d keys, %v; want 4", len(kvs), err)
	}
}

// An unpinned as-of read over frames — RemoteStore.Snapshot cannot pin
// the server — fails typed against a default node once the version it
// wants is overwritten, on the point and the scan path; against a node
// run with -retention 1m the same reads are exact.
func TestRemoteAsOfBelowHorizon(t *testing.T) {
	ctx := context.Background()
	for _, retention := range []time.Duration{kvstore.DefaultRetention, time.Minute} {
		t.Run("retention="+retention.String(), func(t *testing.T) {
			tn := startNode(t, openRetainingStore(t, retention))
			put := func(v string) {
				t.Helper()
				if _, err := tn.store.Put("t", "k", map[string][]byte{"v": []byte(v)}); err != nil {
					t.Fatal(err)
				}
			}
			put("old")
			rs, err := NewRemoteStore("remote", tn.URL)
			if err != nil {
				t.Fatal(err)
			}
			defer rs.c.Cleanup()
			ts, release, err := rs.Snapshot(ctx)
			if err != nil {
				t.Fatal(err)
			}
			defer release()
			put("new")

			rec, getErr := rs.GetAsOf(ctx, "t", "k", ts)
			kvs, scanErr := rs.ScanAsOf(ctx, "t", "", 10, ts)
			if retention == 0 {
				if !errors.Is(getErr, kvstore.ErrBelowHorizon) || !errors.Is(scanErr, kvstore.ErrBelowHorizon) {
					t.Fatalf("default node: GetAsOf = %v, ScanAsOf = %v; want kvstore.ErrBelowHorizon from both", getErr, scanErr)
				}
				return
			}
			if getErr != nil || string(rec.Field("v")) != "old" {
				t.Fatalf("GetAsOf = %v, %v; want \"old\"", rec, getErr)
			}
			if scanErr != nil || len(kvs) != 1 || string(kvs[0].Record.Field("v")) != "old" {
				t.Fatalf("ScanAsOf = %d records, %v; want k=\"old\"", len(kvs), scanErr)
			}
		})
	}
}

// The one HTTP scan is bounded: whatever count a request names, a
// response holds at most kvwire.ScanPageCap records, and the client
// pages its way to any larger count in key order.
func TestHTTPScanIsPaged(t *testing.T) {
	ctx := context.Background()
	tn := startNode(t, nil)
	c := tn.client(t, WireModeOff)
	const n = 2*kvwire.ScanPageCap + 300
	loadFixtureKeys(t, c, n)

	for _, count := range []string{"2000000000", strconv.Itoa(kvwire.ScanPageCap + 1)} {
		resp, err := http.Get(tn.URL + "/v1/t?start=&count=" + count)
		if err != nil {
			t.Fatal(err)
		}
		// Read to EOF: the server counts a response once its handler
		// returns, which the body's end (not its closing bracket)
		// follows, so the request count below starts settled.
		var page []wireRecord
		err = unmarshalFrom(resp.Body, &page)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(page) != kvwire.ScanPageCap {
			t.Fatalf("count=%s: response holds %d records, want the cap %d", count, len(page), kvwire.ScanPageCap)
		}
	}
	resp, err := http.Get(tn.URL + "/v1/t?start=&count=-1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("count=-1: status %d, want 400", resp.StatusCode)
	}

	before := tn.httpReqs()
	kvs, err := c.Scan(ctx, "t", "user00010", kvwire.ScanPageCap+500, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkScan(t, kvs, 10, kvwire.ScanPageCap+500)
	if pages := tn.httpReqs() - before; pages != 2 {
		t.Errorf("a %d-record scan took %d requests, want 2", kvwire.ScanPageCap+500, pages)
	}
	// Past the table's end the scan stops at a short page.
	if kvs, err = c.Scan(ctx, "t", "user00010", 1<<40, nil); err != nil {
		t.Fatal(err)
	}
	checkScan(t, kvs, 10, n-10)
	if kvs, err = c.Scan(ctx, "t", "", -1, nil); err != nil || len(kvs) != n {
		t.Fatalf("unbounded scan: %d records, %v; want %d", len(kvs), err, n)
	}
}

// A mutation whose outcome is unknown must surface as the transport
// error it is. The frame listener here applies every request and then
// hangs up without answering — the connection dying between apply and
// response. A client that re-sent the put some other way would find
// its own write in the way and report a conflict for a put that
// landed. The broken frame listener is the subject, so this node is
// wired by hand rather than by ServeNode.
func TestUnknownOutcomeIsNotResent(t *testing.T) {
	ctx := context.Background()
	store := openTestStore(t)
	core := kvwire.NewCore(store, nil, 0)
	wireLn := listenOn(t, "127.0.0.1:0")
	t.Cleanup(func() { wireLn.Close() })
	srv := httptest.NewServer(NewServerWithOptions(store, ServerOptions{Core: core, WireAddr: wireLn.Addr().String()}))
	t.Cleanup(srv.Close)
	go func() {
		for {
			conn, err := wireLn.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				br := bufio.NewReader(conn)
				var magic [len(kvwire.Magic)]byte
				if _, err := io.ReadFull(br, magic[:]); err != nil {
					return
				}
				conn.Write(magic[:])
				_, _, payload, err := kvwire.ReadFrame(br, nil)
				if err != nil {
					return
				}
				if _, ops, err := kvwire.DecodeRequest(payload, nil); err == nil {
					core.ExecBatch(ctx, ops)
				}
			}()
		}
	}()

	v1, err := store.Put("t", "k", map[string][]byte{"f": []byte("v1")})
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(srv.URL, nil)
	t.Cleanup(func() { c.Cleanup() })
	if err := c.Init(propsOf("rawhttp.wire", WireModeAuto)); err != nil {
		t.Fatal(err)
	}
	_, err = c.mutate(ctx, kvwire.KindPut, "t", "k", rec("v2"), v1)
	if err == nil {
		t.Fatal("put reported success though no response ever arrived")
	}
	if errors.Is(err, db.ErrConflict) {
		t.Fatalf("put that landed reported as a conflict (re-sent on another path?): %v", err)
	}
	got, err := store.Get("t", "k")
	if err != nil || got.Version != v1+1 || string(got.Field("f")) != "v2" {
		t.Fatalf("engine holds %+v, %v; want exactly one new version v%d = v2", got, err, v1+1)
	}
	// Same for a merge-update: applied once, not once per transport.
	if err := c.Update(ctx, "t", "k", rec("v3")); err == nil {
		t.Fatal("update reported success though no response ever arrived")
	}
	if got, _ := store.Get("t", "k"); got.Version != v1+2 {
		t.Fatalf("update applied %d times, want once", int64(got.Version)-int64(v1+1))
	}
}
