// Closed Economy Workload demo: the same CEW run twice — once against
// the raw (non-transactional) store and once through the
// client-coordinated transaction library — showing Tier 6 in action:
// the raw store accumulates lost-update anomalies under concurrency
// while the transactional run keeps the anomaly score at exactly 0.
//
//	go run ./examples/closedeconomy
package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"time"

	"ycsbt/internal/bench"
	"ycsbt/internal/client"
	"ycsbt/internal/httpkv"
	"ycsbt/internal/kvstore"
	"ycsbt/internal/measurement"
	"ycsbt/internal/properties"
	"ycsbt/internal/txn"
	"ycsbt/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "closedeconomy:", err)
		os.Exit(1)
	}
}

func props(threads int) *properties.Properties {
	return properties.FromMap(map[string]string{
		"workload":                  "closedeconomy",
		"recordcount":               "1000",
		"totalcash":                 "1000000",
		"operationcount":            "30000",
		"threadcount":               fmt.Sprint(threads),
		"readproportion":            "0.5",
		"readmodifywriteproportion": "0.5",
		"requestdistribution":       "zipfian",
	})
}

func run() error {
	ctx := context.Background()
	const threads = 16

	// --- Run 1: raw store over HTTP, no transactions. -------------
	nontxScore, err := rawRun(ctx, threads)
	if err != nil {
		return err
	}

	// --- Run 2: the same workload through the txn library. --------
	txScore, aborts, err := txnRun(ctx, threads)
	if err != nil {
		return err
	}

	fmt.Println("\n=== Tier 6 verdict ===")
	fmt.Printf("non-transactional anomaly score: %g\n", nontxScore)
	fmt.Printf("transactional anomaly score:     %g (%d conflicting txns aborted cleanly)\n",
		txScore, aborts)
	if txScore != 0 {
		return fmt.Errorf("transactional run should have score 0")
	}
	return nil
}

// rawRun drives CEW through the HTTP interface with no transactions,
// like the paper's Section V-C setup, and returns the anomaly score.
func rawRun(ctx context.Context, threads int) (float64, error) {
	store := kvstore.OpenMemory()
	defer store.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	// 200µs per read and update stands in for the storage engine's I/O.
	eng := bench.SlowEngine{Engine: store, Delay: 200 * time.Microsecond}
	defer httpkv.ServeNode(eng, ln, nil, httpkv.NodeOptions{}).Shutdown(ctx)

	p := props(threads)
	w, err := workload.New("closedeconomy")
	if err != nil {
		return 0, err
	}
	reg := measurement.NewRegistry(0)
	if err := w.Init(p, reg); err != nil {
		return 0, err
	}
	raw := httpkv.NewClient("http://"+ln.Addr().String(), nil)
	c, err := client.New(client.BuildConfig(p), w, raw, reg)
	if err != nil {
		return 0, err
	}
	fmt.Printf("== non-transactional CEW over HTTP, %d threads ==\n", threads)
	if _, err := c.Load(ctx); err != nil {
		return 0, err
	}
	res, err := c.Run(ctx)
	if err != nil {
		return 0, err
	}
	v := res.Validation
	fmt.Printf("throughput %.0f ops/sec; counted %d vs expected %d → anomaly score %g\n",
		res.Throughput, v.Counted, v.Expected, v.AnomalyScore)
	return v.AnomalyScore, nil
}

// txnRun drives the identical workload through client-coordinated
// transactions and returns the anomaly score and abort count.
func txnRun(ctx context.Context, threads int) (float64, int64, error) {
	inner := kvstore.OpenMemory()
	defer inner.Close()
	m, err := txn.NewManager(txn.Options{}, txn.NewLocalStore("local", inner))
	if err != nil {
		return 0, 0, err
	}
	binding := txn.NewBinding(m)

	p := props(threads)
	w, err := workload.New("closedeconomy")
	if err != nil {
		return 0, 0, err
	}
	reg := measurement.NewRegistry(0)
	if err := w.Init(p, reg); err != nil {
		return 0, 0, err
	}
	c, err := client.New(client.BuildConfig(p), w, binding, reg)
	if err != nil {
		return 0, 0, err
	}
	fmt.Printf("\n== transactional CEW (client-coordinated), %d threads ==\n", threads)
	if _, err := c.Load(ctx); err != nil {
		return 0, 0, err
	}
	res, err := c.Run(ctx)
	if err != nil {
		return 0, 0, err
	}
	v := res.Validation
	fmt.Printf("throughput %.0f txn/sec; counted %d vs expected %d → anomaly score %g\n",
		res.Throughput, v.Counted, v.Expected, v.AnomalyScore)
	return v.AnomalyScore, res.Aborts, nil
}
