// End-to-end exercises of the framed binary protocol: the transport's
// ops/s ceiling on 16-op request frames (the BENCH_wire.json cells;
// EXPERIMENTS.md "Single data plane" stores the ratios against the
// HTTP/NDJSON batch route these frames replaced), a fidelity check
// that a load lands identical records on either transport, and the
// kvserver binary's boot: where it says it listens, and its refusals.
package ycsbt_test

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ycsbt/internal/client"
	"ycsbt/internal/cluster"
	"ycsbt/internal/httpkv"
	"ycsbt/internal/kvstore"
	"ycsbt/internal/kvwire"
	"ycsbt/internal/measurement"
	"ycsbt/internal/properties"
	"ycsbt/internal/workload"
)

// wireLoadCell runs one load phase (pure inserts across 32 client
// threads, one operation per thread at a time) over the rawhttp binding
// with the transport set by wireMode — one request frame per insert,
// or with the wire off one REST call per insert.
func wireLoadCell(tb testing.TB, url string, records int64, wireMode string) {
	tb.Helper()
	p := properties.FromMap(map[string]string{
		"workload":     "core",
		"recordcount":  fmt.Sprint(records),
		"threadcount":  "32",
		"fieldcount":   "1",
		"fieldlength":  "100",
		"rawhttp.wire": wireMode,
	})
	w, err := workload.New("core")
	if err != nil {
		tb.Fatal(err)
	}
	reg := measurement.NewRegistry(0)
	if err := w.Init(p, reg); err != nil {
		tb.Fatal(err)
	}
	raw := httpkv.NewClient(url, nil)
	if err := raw.Init(p); err != nil {
		tb.Fatal(err)
	}
	cfg := client.BuildConfig(p)
	cfg.SkipValidation = true
	c, err := client.New(cfg, w, raw, reg)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := c.Load(context.Background()); err != nil {
		tb.Fatal(err)
	}
}

// wireAddrOf returns the frame listener a node advertises on /healthz.
func wireAddrOf(tb testing.TB, url string) string {
	tb.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		tb.Fatal(err)
	}
	resp.Body.Close()
	addr := resp.Header.Get(httpkv.WireAddrHeader)
	if resp.StatusCode != http.StatusOK || addr == "" {
		tb.Fatalf("GET %s/healthz: status %d, %s %q; want 200 and a frame listener", url, resp.StatusCode, httpkv.WireAddrHeader, addr)
	}
	return addr
}

// transportCell times 32 client threads shipping 16-op request frames
// through a kvwire endpoint, with no binding or workload harness in
// the way: the transport's ops/s ceiling. mkOps fills the frame for
// sequence number n.
func transportCell(b *testing.B, url string, mkOps func(n int64, ops []kvwire.Op)) {
	b.Helper()
	ep := kvwire.NewEndpoint(wireAddrOf(b, url), kvwire.DefaultMaxConns)
	defer ep.Close()
	ctx := context.Background()
	// Prime the connection pool so the timed region measures steady
	// state, not dialling.
	if _, err := ep.Exec(ctx, []kvwire.Op{{Kind: kvwire.KindGet, Table: "usertable", Key: "prime"}}); err != nil {
		b.Fatal(err)
	}
	var seq, opsDone atomic.Int64
	b.SetParallelism(32)
	b.ResetTimer()
	start := time.Now()
	b.RunParallel(func(pb *testing.PB) {
		ops := make([]kvwire.Op, 16)
		for pb.Next() {
			mkOps(seq.Add(1), ops)
			res, err := ep.Exec(ctx, ops)
			if err != nil {
				b.Error(err)
				return
			}
			for _, r := range res {
				if r.Status != http.StatusOK && r.Status != http.StatusNoContent {
					b.Errorf("item answered %d: %s", r.Status, r.Err)
					return
				}
			}
			opsDone.Add(int64(len(ops)))
		}
	})
	b.ReportMetric(float64(opsDone.Load())/time.Since(start).Seconds(), "tput_ops/s")
}

// BenchmarkWireTransport is the protocol benchmark: 16-op request
// frames at 32 client threads. On read frames the per-result field
// encode/decode is the whole per-op cost; on inserts the engine's
// write path (version chains, shard locks) shares it.
func BenchmarkWireTransport(b *testing.B) {
	val := make([]byte, 100)
	b.Run("Read", func(b *testing.B) {
		store, url := startKVServer(b, 0)
		for i := 0; i < 1000; i++ {
			if _, err := store.Put("usertable", fmt.Sprintf("user%04d", i), map[string][]byte{"field0": val}); err != nil {
				b.Fatal(err)
			}
		}
		transportCell(b, url, func(n int64, ops []kvwire.Op) {
			for j := range ops {
				ops[j] = kvwire.Op{
					Kind: kvwire.KindGet, Table: "usertable",
					Key: fmt.Sprintf("user%04d", (int(n)+j)%1000),
				}
			}
		})
	})
	b.Run("Insert", func(b *testing.B) {
		_, url := startKVServer(b, 0)
		transportCell(b, url, func(n int64, ops []kvwire.Op) {
			for j := range ops {
				ops[j] = kvwire.Op{
					Kind: kvwire.KindPut, Table: "usertable",
					Key:    fmt.Sprintf("user%08d-%02d", n, j),
					Fields: map[string][]byte{"field0": val},
					Expect: kvstore.AnyVersion,
				}
			}
		})
	})
}

// TestWireLoadFidelity checks the binary transport on two axes: it
// lands exactly the records the HTTP transport lands, and what was
// written over frames reads back over HTTP.
func TestWireLoadFidelity(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive e2e cell")
	}
	const records = 1200
	httpStore, httpURL := startKVServer(t, 0)
	wireLoadCell(t, httpURL, records, httpkv.WireModeOff)
	wireStore, wireURL := startKVServer(t, 0)
	wireLoadCell(t, wireURL, records, httpkv.WireModeAuto)

	if n := wireStore.Len("usertable"); n != records {
		t.Fatalf("binary load landed %d records, want %d", n, records)
	}
	if httpStore.Len("usertable") != wireStore.Len("usertable") {
		t.Fatalf("record counts diverge: http=%d wire=%d",
			httpStore.Len("usertable"), wireStore.Len("usertable"))
	}
	// Spot-check one record end to end across transports: written over
	// binary, read over HTTP.
	c := httpkv.NewClient(wireURL, nil)
	p := properties.New()
	p.Set("rawhttp.wire", httpkv.WireModeOff)
	if err := c.Init(p); err != nil {
		t.Fatal(err)
	}
	defer c.Cleanup()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rec, err := c.Read(ctx, "usertable", "user0", nil)
	if err != nil || len(rec) == 0 {
		kvs, serr := c.Scan(ctx, "usertable", "", 1, nil)
		if serr != nil || len(kvs) == 0 {
			t.Fatalf("read-back over HTTP of binary-written data: %v / scan %v", err, serr)
		}
	}
}

// Routing and migration exist on frames only, so each place that would
// need a frame listener and finds none says so at once, by name,
// instead of degrading.
func TestMissingFrameListenerFailsLoud(t *testing.T) {
	// Two cluster nodes that serve HTTP only.
	store, err := kvstore.Open(kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	lns := []net.Listener{listenLoopback(t), listenLoopback(t)}
	urls := []string{"http://" + lns[0].Addr().String(), "http://" + lns[1].Addr().String()}
	m, err := cluster.NewUniform(cluster.PlacementHash, 4, urls, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, ln := range lns {
		cs, err := cluster.NewState(urls[i], m, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer shutdown(httpkv.ServeNode(store, ln, nil, httpkv.NodeOptions{Cluster: cs}))
	}
	noWire := func(err error, node string) error {
		var nw *httpkv.NoWireError
		if err != nil && (!errors.As(err, &nw) || nw.Node != node) {
			return fmt.Errorf("not a NoWireError naming %s: %w", node, err)
		}
		return err
	}

	for _, tc := range []struct {
		name string
		run  func() error
		want string // the error names what is missing
	}{
		{"kvserver -cluster-node-id without -wire-addr", func() error {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			out, err := exec.CommandContext(ctx, buildKVServer(t),
				"-addr", "127.0.0.1:0", "-cluster-node-id", urls[0], "-peers", urls[0]).CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				return fmt.Errorf("kvserver did not exit 1: %v\n%s", err, out)
			}
			if lines := strings.Count(strings.TrimSpace(string(out)), "\n") + 1; lines != 1 {
				return fmt.Errorf("kvserver printed %d lines, want one:\n%s", lines, out)
			}
			return errors.New(string(out))
		}, "-wire-addr"},
		{"router over a node that advertises no listener", func() error {
			_, err := httpkv.NewRouter(urls[1:], nil, nil)
			return noWire(err, urls[0])
		}, urls[0]},
		{"migration from a node that advertises no listener", func() error {
			_, err := httpkv.MigrateSlot(context.Background(), m, m.SlotsOf(urls[1])[0], urls[0])
			return noWire(err, urls[1])
		}, urls[1]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run()
			if err == nil {
				t.Fatal("succeeded")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error does not mention %q: %v", tc.want, err)
			}
		})
	}
}

// buildKVServer compiles cmd/kvserver into the test's temp dir.
func buildKVServer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "kvserver")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/kvserver").CombinedOutput(); err != nil {
		t.Fatalf("building kvserver: %v\n%s", err, out)
	}
	return bin
}

// kvserver binds before it says where: the address on its first line
// is the one it serves, port 0 resolved, and the frame listener that
// address advertises answers the protocol handshake.
func TestKVServerPrintsBoundAddress(t *testing.T) {
	cmd := exec.Command(buildKVServer(t), "-addr", "127.0.0.1:0", "-wire-addr", "127.0.0.1:0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
	line, err := bufio.NewReader(stdout).ReadString('\n')
	url, _, _ := strings.Cut(strings.TrimPrefix(line, "kvserver listening on "), " ")
	if err != nil || !strings.HasPrefix(url, "http://127.0.0.1:") || strings.HasSuffix(url, ":0") {
		t.Fatalf("first line %q (%v) names no bound address", line, err)
	}

	wireAddr := wireAddrOf(t, url)
	ep := kvwire.NewEndpoint(wireAddr, 1) // its first dial is the KVW4 handshake
	defer ep.Close()
	if _, err := ep.Exec(context.Background(), []kvwire.Op{{Kind: kvwire.KindGet, Table: "t", Key: "k"}}); err != nil {
		t.Fatalf("a request frame to %s: %v", wireAddr, err)
	}
}
