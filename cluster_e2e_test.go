// Cluster end to end: three nodes booted as kvserver boots one, behind
// one shard map, client-coordinated CEW transactions routed across
// them by the cluster binding, and two live slot migrations through
// the admin route in the middle of the timed run. The closed economy
// must balance to an anomaly score of zero — transactions spanning
// nodes, surviving a rebalance, losing nothing.
package ycsbt_test

import (
	"context"
	"fmt"
	"net/http"
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

	_ "ycsbt/internal/percolator" // register the percolator binding
	_ "ycsbt/internal/txn"        // register the txnkv binding
)

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
		t.Skip("timed e2e cell")
	}
	ctx := context.Background()
	nodes, _ := startFleet(t, 3, 12, nil)
	urls := nodeURLs(nodes)

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
	for i, nd := range nodes {
		if nd.reg.Counter("kvwire_frames_total", "dir", "in").Value() == 0 {
			t.Errorf("node %d (%s): kvwire_frames_total{dir=in} = 0; cluster traffic never rode the wire", i, nd.url)
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

// TestPercolatorClusterCEW runs the closed economy through the
// percolator binding over the cluster backend — the one store the
// protocol needs, spread across a two-node fleet by the shard map —
// and must balance to an anomaly score of zero.
func TestPercolatorClusterCEW(t *testing.T) {
	ctx := context.Background()
	nodes, _ := startFleet(t, 2, 8, nil)
	p := properties.FromMap(map[string]string{
		"workload":                  "closedeconomy",
		"recordcount":               "100",
		"totalcash":                 "10000",
		"operationcount":            "400",
		"threadcount":               "4",
		"readproportion":            "0.2",
		"readmodifywriteproportion": "0.8",
		"requestdistribution":       "zipfian",
		"fieldcount":                "1",
		"fieldlength":               "32",
		"percolator.backend":        "cluster",
		"cluster.nodes":             strings.Join(nodeURLs(nodes), ","),
	})
	d, err := db.Open("percolator")
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
	loadCfg := client.BuildConfig(p)
	loadCfg.SkipValidation = true
	lc, err := client.New(loadCfg, w, d, reg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lc.Load(ctx); err != nil {
		t.Fatalf("load: %v", err)
	}
	rc, err := client.New(client.BuildConfig(p), w, d, reg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rc.Run(ctx)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if v := res.Validation; v == nil || !v.Valid || v.AnomalyScore != 0 {
		t.Errorf("percolator over the cluster lost money: %+v", v)
	}
	for i, nd := range nodes {
		if nd.store.Len("usertable") == 0 {
			t.Errorf("node %d holds no accounts: the shard map never spread them", i)
		}
	}
}
