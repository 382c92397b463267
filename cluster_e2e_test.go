// Multi-process cluster end to end: three real kvserver processes
// behind one shard map, client-coordinated CEW transactions routed
// across them by the cluster binding, and a live slot migration in
// the middle of the timed run. The closed economy must balance to an
// anomaly score of zero — transactions spanning nodes, surviving a
// rebalance, losing nothing.
package ycsbt_test

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ycsbt/internal/client"
	"ycsbt/internal/db"
	"ycsbt/internal/history"
	"ycsbt/internal/measurement"
	"ycsbt/internal/properties"
	"ycsbt/internal/workload"

	_ "ycsbt/internal/txn" // register the txnkv binding
)

// freeAddrs reserves n distinct loopback ports by listening and
// immediately closing; the tiny reuse race is acceptable in tests.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
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

// startClusterProcs builds the kvserver binary once and spawns one
// real process per address, all sharing a uniform bootstrap map. Every
// node also gets a binary wire listener and an ops listener, so the
// fleet exercises the framed protocol end to end and the test can
// confirm from kvwire_* metrics that traffic really rode it; opsURLs
// receives one ops base URL per node when non-nil.
func startClusterProcs(t *testing.T, addrs []string, slots int, opsURLs *[]string) []string {
	t.Helper()
	bin := buildKVServer(t)
	urls := make([]string, len(addrs))
	for i, a := range addrs {
		urls[i] = "http://" + a
	}
	peers := strings.Join(urls, ",")
	wireAddrs := freeAddrs(t, len(addrs))
	opsAddrs := freeAddrs(t, len(addrs))
	for i, a := range addrs {
		cmd := exec.Command(bin,
			"-addr", a,
			"-cluster-node-id", urls[i],
			"-peers", peers,
			"-cluster-slots", fmt.Sprint(slots),
			"-wire-addr", wireAddrs[i],
			"-ops-addr", opsAddrs[i],
		)
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting node %d: %v", i, err)
		}
		t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
	}
	if opsURLs != nil {
		for _, a := range opsAddrs {
			*opsURLs = append(*opsURLs, "http://"+a)
		}
	}
	for _, u := range urls {
		ok := false
		for i := 0; i < 100; i++ {
			resp, err := http.Get(u + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					ok = true
					break
				}
			}
			time.Sleep(50 * time.Millisecond)
		}
		if !ok {
			t.Fatalf("node %s never became healthy", u)
		}
	}
	return urls
}

// adminMigrate drives one live migration through the admin route.
func adminMigrate(u string, slot int, dest string) error {
	resp, err := http.Post(fmt.Sprintf("%s/admin/migrate?slot=%d&dest=%s", u, slot, dest), "", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("migrate via %s: %s", u, resp.Status)
	}
	return nil
}

func TestClusterCEWZeroAnomalyAcrossMigration(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e cell")
	}
	ctx := context.Background()
	const slots = 12
	var opsURLs []string
	urls := startClusterProcs(t, freeAddrs(t, 3), slots, &opsURLs)

	p := properties.FromMap(map[string]string{
		"workload":                  "closedeconomy",
		"recordcount":               "150",
		"totalcash":                 "15000",
		"operationcount":            "1000000000", // bounded by MaxExecutionTime
		"threadcount":               "8",
		"readproportion":            "0.2",
		"readmodifywriteproportion": "0.8",
		"requestdistribution":       "zipfian",
		"fieldcount":                "1",
		"fieldlength":               "32",
		"txnkv.backend":             "cluster",
		"cluster.nodes":             strings.Join(urls, ","),
	})
	d, err := db.Open("txnkv")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Init(p); err != nil {
		t.Fatal(err)
	}
	defer d.Cleanup()
	w, err := workload.New("closedeconomy")
	if err != nil {
		t.Fatal(err)
	}
	reg := measurement.NewRegistry(0)
	if err := w.Init(p, reg); err != nil {
		t.Fatal(err)
	}

	// Capture the full operation history — the offline checker must
	// certify the cross-node, cross-migration run serializable.
	histPath := filepath.Join(t.TempDir(), "history.ndjson")
	sink, err := history.OpenFile(histPath, history.SinkOptions{})
	if err != nil {
		t.Fatal(err)
	}

	loadCfg := client.BuildConfig(p)
	loadCfg.SkipValidation = true
	loadCfg.History = sink
	lc, err := client.New(loadCfg, w, d, reg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lc.Load(ctx); err != nil {
		t.Fatalf("cluster load: %v", err)
	}

	// Two live migrations fire while the timed run is in flight. The
	// bootstrap map assigns slots round-robin, so slot 0 starts on
	// node 0 and slot 1 on node 1.
	migErr := make(chan error, 1)
	go func() {
		time.Sleep(500 * time.Millisecond)
		if err := adminMigrate(urls[0], 0, urls[1]); err != nil {
			migErr <- err
			return
		}
		time.Sleep(300 * time.Millisecond)
		migErr <- adminMigrate(urls[1], 1, urls[2])
	}()

	runCfg := client.BuildConfig(p)
	runCfg.MaxExecutionTime = 2500 * time.Millisecond
	runCfg.SkipValidation = true // the run deadline would cut the scan short; validate below
	runCfg.History = sink
	rc, err := client.New(runCfg, w, d, reg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rc.Run(ctx)
	if err != nil {
		t.Fatalf("cluster CEW run: %v", err)
	}
	if err := <-migErr; err != nil {
		t.Fatalf("mid-run migration: %v", err)
	}
	if res.Operations == 0 {
		t.Fatal("cluster CEW cell completed zero operations")
	}
	v, err := w.Validate(ctx, d)
	if err != nil {
		t.Fatalf("cluster CEW validation: %v", err)
	}
	t.Logf("cluster CEW: %d ops, %d aborts, anomaly score %g (%s)",
		res.Operations, res.Aborts, v.AnomalyScore, v.Detail)
	if !v.Valid || v.AnomalyScore != 0 {
		t.Errorf("cross-node transactions lost money across migration: %+v", v)
	}

	// Both migrations really happened: the fleet converged on map v3.
	for _, u := range urls {
		resp, err := http.Get(u + "/v1/shardmap")
		if err != nil {
			t.Fatal(err)
		}
		ver := resp.Header.Get("X-Shard-Map-Version")
		resp.Body.Close()
		if ver != "3" {
			t.Errorf("node %s at map v%s after two migrations, want v3", u, ver)
		}
	}

	// The run really rode the binary protocol: every node's wire
	// listener saw frames.
	for i, u := range opsURLs {
		resp, err := http.Get(u + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		frames := 0.0
		for _, line := range strings.Split(string(body), "\n") {
			if strings.HasPrefix(line, `kvwire_frames_total{dir="in"}`) {
				fmt.Sscanf(line, `kvwire_frames_total{dir="in"} %g`, &frames)
			}
		}
		if frames == 0 {
			t.Errorf("node %d (%s): kvwire_frames_total{dir=in} = 0; cluster traffic never rode the wire", i, urls[i])
		}
	}

	// Offline certification: replay the captured history and certify
	// the whole run — client-coordinated transactions across three
	// nodes and two live migrations — serializable.
	if err := sink.Close(); err != nil {
		t.Fatalf("history sink: %v", err)
	}
	events, dropped := sink.Stats()
	if events == 0 {
		t.Fatal("history sink captured nothing")
	}
	if dropped != 0 {
		t.Errorf("history sink dropped %d records", dropped)
	}
	recs, _, err := history.LoadFile(histPath)
	if err != nil {
		t.Fatalf("decoding history: %v", err)
	}
	cert := history.Check(recs)
	t.Logf("histcheck: %s", cert.Summary())
	if cert.Committed == 0 {
		t.Fatal("history holds no committed transactions")
	}
	if !cert.Serializable {
		t.Errorf("cluster CEW history refuted: %+v", cert.Cycles)
	}
}
