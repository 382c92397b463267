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

	"ycsbt/internal/db"
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
