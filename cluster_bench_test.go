// Cluster scaling acceptance bench: the same read-heavy workload
// against a 1-node and a 3-node fleet of cluster-mode servers, each
// node given an identical fixed service capacity (one request frame at
// a time, fixed service latency — the cloudsim idiom for modeling a
// capacity-bound store). Aggregate capacity triples with the node
// count, so routed throughput must scale; the acceptance bound is
// 3-node ≥ 2x 1-node.
package ycsbt_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"ycsbt/internal/client"
	"ycsbt/internal/httpkv"
	"ycsbt/internal/kvstore"
	"ycsbt/internal/measurement"
	"ycsbt/internal/properties"
	"ycsbt/internal/workload"
)

// perNodeService is the modeled service time of one request on one
// node; with the one-at-a-time admission below it caps each node at
// roughly 1/perNodeService ops/s regardless of host parallelism.
const perNodeService = 150 * time.Microsecond

// startCapacityCluster boots n in-process cluster nodes, each behind
// the fixed capacity model, and returns their base URLs.
func startCapacityCluster(tb testing.TB, n, slots int) []string {
	tb.Helper()
	nodes, _ := startFleet(tb, n, slots, func(eng kvstore.Engine) kvstore.Engine {
		return &serviceModel{Engine: eng, delay: perNodeService, sem: make(chan struct{}, 1)}
	})
	return nodeURLs(nodes)
}

// clusterReadCell loads records through the router, then measures a
// read-only core workload cell and returns its throughput.
func clusterReadCell(tb testing.TB, urls []string, records int64, cellTime time.Duration) float64 {
	tb.Helper()
	ctx := context.Background()
	r, err := httpkv.NewRouter(urls, nil, nil)
	if err != nil {
		tb.Fatal(err)
	}
	defer r.Cleanup()

	p := properties.FromMap(map[string]string{
		"workload":            "core",
		"recordcount":         fmt.Sprint(records),
		"operationcount":      "1000000000", // bounded by MaxExecutionTime
		"threadcount":         "24",
		"readproportion":      "1.0",
		"updateproportion":    "0",
		"requestdistribution": "uniform",
		"fieldcount":          "1",
		"fieldlength":         "64",
	})
	w, err := workload.New("core")
	if err != nil {
		tb.Fatal(err)
	}
	reg := measurement.NewRegistry(0)
	if err := w.Init(p, reg); err != nil {
		tb.Fatal(err)
	}
	loadCfg := client.BuildConfig(p)
	loadCfg.SkipValidation = true
	lc, err := client.New(loadCfg, w, r, reg)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := lc.Load(ctx); err != nil {
		tb.Fatal(err)
	}
	runCfg := client.BuildConfig(p)
	runCfg.SkipValidation = true
	runCfg.MaxExecutionTime = cellTime
	rc, err := client.New(runCfg, w, r, reg)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := rc.Run(ctx)
	if err != nil {
		tb.Fatal(err)
	}
	return res.Throughput
}

// BenchmarkClusterScaling is the acceptance benchmark behind `make
// bench-cluster`: identical capacity-bound nodes, read-heavy load,
// 1 node versus 3. The 3-node cell should clear 2x.
func BenchmarkClusterScaling(b *testing.B) {
	for _, n := range []int{1, 3} {
		b.Run(fmt.Sprintf("Nodes%d", n), func(b *testing.B) {
			var tput float64
			for i := 0; i < b.N; i++ {
				urls := startCapacityCluster(b, n, 12)
				tput = clusterReadCell(b, urls, 400, 800*time.Millisecond)
			}
			b.ReportMetric(tput, "tput_ops/s")
		})
	}
}

// TestClusterScalingSpeedup keeps a loose version of the bound in the
// regular suite: 3 capacity-bound nodes must beat 1. The strict ≥2x
// claim lives in BenchmarkClusterScaling where cells are longer.
func TestClusterScalingSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive e2e cell")
	}
	one := clusterReadCell(t, startCapacityCluster(t, 1, 12), 300, 500*time.Millisecond)
	three := clusterReadCell(t, startCapacityCluster(t, 3, 12), 300, 500*time.Millisecond)
	t.Logf("read-heavy tput: 1 node=%.0f ops/s, 3 nodes=%.0f ops/s (%.1fx)", one, three, three/one)
	if three <= one {
		t.Errorf("3-node fleet no faster than 1 node: %.0f <= %.0f ops/s", three, one)
	}
}
