// Figure-level benchmarks: one testing.B benchmark per table/figure
// of the paper's evaluation section, plus ablation benches for the
// design choices called out in DESIGN.md. Each iteration executes one
// complete benchmark cell (load + timed transaction phase) and
// reports throughput and anomaly score as custom metrics.
//
// Full-size sweeps (the paper's exact parameter grids) live in
// cmd/experiments; these benches use reduced cells so `go test
// -bench=.` completes in minutes.
package ycsbt_test

import (
	"context"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"ycsbt/internal/bench"
	"ycsbt/internal/client"
	"ycsbt/internal/cloudsim"
	"ycsbt/internal/db"
	"ycsbt/internal/history"
	"ycsbt/internal/kvstore"
	"ycsbt/internal/measurement"
	"ycsbt/internal/properties"
	"ycsbt/internal/txn"
	"ycsbt/internal/workload"
)

// benchOpts sizes one sweep cell for a testing.B iteration.
func benchOpts(threads int) bench.SweepOptions {
	return bench.SweepOptions{
		Quick:       true,
		RecordCount: 500,
		CellTime:    150 * time.Millisecond,
		Threads:     []int{threads},
	}
}

// reportLast attaches the sweep's final point as benchmark metrics.
func reportLast(b *testing.B, s bench.Series) {
	if len(s.Points) == 0 {
		return
	}
	pt := s.Points[len(s.Points)-1]
	b.ReportMetric(pt.Throughput, "tput_ops/s")
	b.ReportMetric(pt.AnomalyScore, "anomaly_score")
	b.ReportMetric(float64(pt.Aborts), "aborts")
}

// BenchmarkFigure2 regenerates one cell of Figure 2 (transactional
// CEW on simulated WAS) per mix at 16 threads.
func BenchmarkFigure2(b *testing.B) {
	for _, mix := range []struct {
		name string
		read float64
	}{{"Mix90_10", 0.9}, {"Mix80_20", 0.8}, {"Mix70_30", 0.7}} {
		b.Run(mix.name, func(b *testing.B) {
			var last []bench.Series
			for i := 0; i < b.N; i++ {
				series, err := bench.Figure2(context.Background(), bench.SweepOptions{
					Quick: true, RecordCount: 500,
					CellTime: 150 * time.Millisecond, Threads: []int{16},
				})
				if err != nil {
					b.Fatal(err)
				}
				last = series
			}
			// Figure2 returns all three mixes; report the requested one.
			for _, s := range last {
				if s.Label == "read:write "+mix.name[3:5]+":"+mix.name[6:8] {
					reportLast(b, s)
				}
			}
		})
	}
}

// BenchmarkFigure3 regenerates Figure 3's two curves at 8 threads.
func BenchmarkFigure3(b *testing.B) {
	var last []bench.Series
	for i := 0; i < b.N; i++ {
		series, err := bench.Figure3(context.Background(), benchOpts(8))
		if err != nil {
			b.Fatal(err)
		}
		last = series
	}
	for _, s := range last {
		pt := s.Points[len(s.Points)-1]
		b.ReportMetric(pt.Throughput, s.Label+"_ops/s")
	}
}

// BenchmarkFigure4 regenerates one Figure 4/5 cell (non-transactional
// CEW over HTTP) at 8 threads; anomaly_score is the Figure 4 value
// and tput_ops/s the Figure 5 value.
func BenchmarkFigure4And5(b *testing.B) {
	var last bench.Series
	for i := 0; i < b.N; i++ {
		fig4, _, err := bench.Figure45(context.Background(), benchOpts(8))
		if err != nil {
			b.Fatal(err)
		}
		last = fig4
	}
	reportLast(b, last)
}

// BenchmarkTier5Overhead regenerates the per-operation latency table
// and reports the transactional read-modify-write cost.
func BenchmarkTier5Overhead(b *testing.B) {
	var rows []bench.OverheadRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.Tier5Overhead(context.Background(), benchOpts(8))
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Series == "TX-READMODIFYWRITE" {
			b.ReportMetric(r.TxUS, "tx_rmw_us")
		}
		if r.Series == "READ-MODIFY-WRITE" && r.NonTxUS > 0 {
			b.ReportMetric(r.NonTxUS, "nontx_rmw_us")
		}
	}
}

// BenchmarkMiddlewareChain measures the per-operation cost of the
// middleware stack itself: a read against the in-memory binding, bare
// and under the metered layer. The delta between the sub-benchmarks is
// the interception overhead that layer adds.
func BenchmarkMiddlewareChain(b *testing.B) {
	cases := []struct {
		name  string
		chain func(base db.DB, reg *measurement.Registry) db.DB
	}{
		{"Bare", func(base db.DB, _ *measurement.Registry) db.DB {
			return base
		}},
		{"Metered", func(base db.DB, reg *measurement.Registry) db.DB {
			return db.Chain(base, db.Metered(reg.Recorder()))
		}},
	}
	ctx := context.Background()
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			base := db.NewMemory()
			if err := base.Insert(ctx, "t", "k", db.Record{"f": []byte("v")}); err != nil {
				b.Fatal(err)
			}
			d := c.chain(base, measurement.NewRegistry(0))
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := d.Read(ctx, "t", "k", nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// cewCell runs one in-memory transactional CEW cell and returns
// (operations, aborts); shared by the ablation benches.
func cewCell(b *testing.B, m *txn.Manager, over map[string]string) (int64, int64) {
	b.Helper()
	props := map[string]string{
		"workload":                  "closedeconomy",
		"recordcount":               "300",
		"totalcash":                 "30000",
		"operationcount":            "20000",
		"threadcount":               "8",
		"readproportion":            "0.2",
		"readmodifywriteproportion": "0.8",
		"requestdistribution":       "zipfian",
	}
	for k, v := range over {
		props[k] = v
	}
	p := properties.FromMap(props)
	w, err := workload.New("closedeconomy")
	if err != nil {
		b.Fatal(err)
	}
	reg := measurement.NewRegistry(0)
	if err := w.Init(p, reg); err != nil {
		b.Fatal(err)
	}
	c, err := client.New(client.BuildConfig(p), w, txn.NewBinding(m), reg)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, err := c.Load(ctx); err != nil {
		b.Fatal(err)
	}
	res, err := c.Run(ctx)
	if err != nil {
		b.Fatal(err)
	}
	v := res.Validation
	if v != nil && !v.Valid {
		b.Fatalf("transactional ablation broke the invariant: %+v", v)
	}
	return res.Operations, res.Aborts
}

// BenchmarkAblationLockOrder compares ordered vs unordered prepare
// (DESIGN.md ablation 1): correctness is identical, but the abort
// rate under contention differs.
func BenchmarkAblationLockOrder(b *testing.B) {
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"Ordered", false}, {"Unordered", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var ops, aborts int64
			for i := 0; i < b.N; i++ {
				inner := kvstore.OpenMemory()
				m, err := txn.NewManager(txn.Options{DisableOrderedPrepare: mode.disable},
					txn.NewLocalStore("local", inner))
				if err != nil {
					b.Fatal(err)
				}
				ops, aborts = cewCell(b, m, nil)
				inner.Close()
			}
			b.ReportMetric(float64(aborts)/float64(ops)*100, "abort_%")
		})
	}
}

// BenchmarkAblationDistribution compares the anomaly score of the
// non-transactional store under zipfian vs uniform key choice
// (DESIGN.md ablation 2): skew concentrates conflicts.
func BenchmarkAblationDistribution(b *testing.B) {
	for _, dist := range []string{"zipfian", "uniform"} {
		b.Run(dist, func(b *testing.B) {
			var score float64
			for i := 0; i < b.N; i++ {
				o := benchOpts(8)
				fig4, _, err := bench.Figure45WithDistribution(context.Background(), o, dist)
				if err != nil {
					b.Fatal(err)
				}
				score = fig4.Points[len(fig4.Points)-1].AnomalyScore
			}
			b.ReportMetric(score, "anomaly_score")
		})
	}
}

// BenchmarkAblationWAL measures the embedded engine's write path with
// the write-ahead log off, on, and on+fsync (DESIGN.md ablation 3 —
// the paper's "latency versus durability" trade-off).
func BenchmarkAblationWAL(b *testing.B) {
	cases := []struct {
		name string
		open func(dir string) (*kvstore.Store, error)
	}{
		{"NoWAL", func(string) (*kvstore.Store, error) { return kvstore.OpenMemory(), nil }},
		{"WAL", func(dir string) (*kvstore.Store, error) {
			return kvstore.Open(kvstore.Options{Path: dir + "/w.wal"})
		}},
		{"WALSync", func(dir string) (*kvstore.Store, error) {
			return kvstore.Open(kvstore.Options{Path: dir + "/w.wal", SyncWrites: true})
		}},
	}
	val := map[string][]byte{"field0": make([]byte, 100)}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			s, err := c.open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Put("t", fmt.Sprintf("key%07d", i%100000), val); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStoreParallel measures the embedded engine's point-op path
// under parallel load with one partition (the pre-sharding single
// lock) versus the default eight. Run with -cpu=1,8,32 to see the
// shard win grow with parallelism.
func BenchmarkStoreParallel(b *testing.B) {
	const keys = 100000
	val := map[string][]byte{"field0": make([]byte, 100)}
	keyset := make([]string, keys)
	for i := range keyset {
		keyset[i] = fmt.Sprintf("key%07d", i)
	}
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("Shards%d", shards), func(b *testing.B) {
			s, err := kvstore.Open(kvstore.Options{Shards: shards})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			for i := 0; i < keys; i++ {
				if _, err := s.Put("t", keyset[i], val); err != nil {
					b.Fatal(err)
				}
			}
			var goroutine atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				// Decorrelate goroutines: each starts at its own offset
				// and walks a coprime stride, so concurrent accesses
				// spread across the key space (and hence the shards)
				// instead of marching through it in lockstep.
				g := goroutine.Add(1)
				i := int(g * 31337 % keys)
				for pb.Next() {
					k := keyset[i]
					if i%5 == 0 { // 20% writes, 80% reads
						if _, err := s.Put("t", k, val); err != nil {
							b.Fatal(err)
						}
					} else {
						if _, err := s.Get("t", k); err != nil {
							b.Fatal(err)
						}
					}
					i = (i + 7919) % keys
				}
			})
		})
	}
}

// BenchmarkStoreScanMerge measures the ordered cross-partition scan:
// with one partition it is a plain tree walk, with eight it k-way
// merges the per-shard trees through the cursor heap.
func BenchmarkStoreScanMerge(b *testing.B) {
	const keys = 100000
	val := map[string][]byte{"field0": make([]byte, 100)}
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("Shards%d", shards), func(b *testing.B) {
			s, err := kvstore.Open(kvstore.Options{Shards: shards})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			for i := 0; i < keys; i++ {
				if _, err := s.Put("t", fmt.Sprintf("key%07d", i), val); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := fmt.Sprintf("key%07d", (i*997)%keys)
				kvs, err := s.Scan("t", start, 100)
				if err != nil {
					b.Fatal(err)
				}
				if len(kvs) == 0 {
					b.Fatal("empty scan")
				}
			}
		})
	}
}

// BenchmarkAblationPool sweeps the simulated container's
// connection-pool size at fixed high concurrency (DESIGN.md ablation
// 4): smaller pools push the contention knee earlier, the Figure 2
// decline mechanism.
func BenchmarkAblationPool(b *testing.B) {
	for _, pool := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("Pool%d", pool), func(b *testing.B) {
			var tput float64
			for i := 0; i < b.N; i++ {
				cfg := cloudsim.WASPreset()
				cfg.PoolSize = pool
				cfg.ReadLatency = 500 * time.Microsecond
				cfg.WriteLatency = time.Millisecond
				cfg.RateLimit = 0
				inner := kvstore.OpenMemory()
				cloud := cloudsim.NewOver(cfg, inner)
				m, err := txn.NewManager(txn.Options{}, cloud)
				if err != nil {
					b.Fatal(err)
				}
				loadM, err := txn.NewManager(txn.Options{}, txn.NewLocalStore("was", inner))
				if err != nil {
					b.Fatal(err)
				}
				tput = poolCell(b, loadM, m)
				inner.Close()
			}
			b.ReportMetric(tput, "tput_ops/s")
		})
	}
}

func poolCell(b *testing.B, loadM, runM *txn.Manager) float64 {
	b.Helper()
	p := properties.FromMap(map[string]string{
		"workload":                  "closedeconomy",
		"recordcount":               "300",
		"totalcash":                 "30000",
		"operationcount":            "1000000000",
		"maxexecutiontime":          "1",
		"threadcount":               "64",
		"readproportion":            "0.9",
		"readmodifywriteproportion": "0.1",
		"requestdistribution":       "zipfian",
	})
	w, err := workload.New("closedeconomy")
	if err != nil {
		b.Fatal(err)
	}
	reg := measurement.NewRegistry(0)
	if err := w.Init(p, reg); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	loadCfg := client.BuildConfig(p)
	loadCfg.SkipValidation = true
	lc, err := client.New(loadCfg, w, txn.NewBinding(loadM), reg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := lc.Load(ctx); err != nil {
		b.Fatal(err)
	}
	runCfg := client.BuildConfig(p)
	runCfg.SkipValidation = true
	runCfg.MaxExecutionTime = 150 * time.Millisecond
	rc, err := client.New(runCfg, w, txn.NewBinding(runM), reg)
	if err != nil {
		b.Fatal(err)
	}
	res, err := rc.Run(ctx)
	if err != nil {
		b.Fatal(err)
	}
	return res.Throughput
}

// BenchmarkHistoryCaptureOverhead measures what history capture costs
// per transaction, with and without a sink streaming to a real
// history file. Two cell families:
//
//   - TxnKV: one RMW transaction through the txnkv binding (the
//     native capture path — txn.Manager emits at commit). This is the
//     deployment the ≤5% throughput budget governs; capture adds one
//     record build and one channel send to a full prepare/TSR/
//     roll-forward commit.
//   - Middleware: the same RMW against the raw in-memory kvstore
//     binding through the capture middleware — the adversarial floor,
//     where the whole transaction is a handful of map operations and
//     the write-behind encoder competes for the same cores. Overhead
//     here bounds what any realistic binding can see.
//
// CI uploads both families as BENCH_history.json.
func BenchmarkHistoryCaptureOverhead(b *testing.B) {
	const keys = 1024
	keyset := make([]string, keys)
	for i := range keyset {
		keyset[i] = fmt.Sprintf("key%07d", i)
	}
	val := db.Record{"field0": make([]byte, 100)}
	ctx := context.Background()

	for _, capture := range []bool{false, true} {
		name := "TxnKV/CaptureOff"
		if capture {
			name = "TxnKV/CaptureOn"
		}
		b.Run(name, func(b *testing.B) {
			s, err := kvstore.Open(kvstore.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			m, err := txn.NewManager(txn.Options{}, txn.NewLocalStore("local", s))
			if err != nil {
				b.Fatal(err)
			}
			binding := txn.NewBinding(m)
			for i := range keyset {
				if err := binding.Insert(ctx, "t", keyset[i], val); err != nil {
					b.Fatal(err)
				}
			}
			var sink *history.Sink
			if capture {
				sink, err = history.OpenFile(filepath.Join(b.TempDir(), "history.ndjson"), history.SinkOptions{})
				if err != nil {
					b.Fatal(err)
				}
				binding.SetHistorySink(sink)
			}
			var goroutine atomic.Int64
			b.ResetTimer()
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				g := goroutine.Add(1)
				i := int(g * 31337 % keys)
				for pb.Next() {
					tctx, err := binding.Start(ctx)
					if err != nil {
						b.Fatal(err)
					}
					v := binding.WithTx(tctx)
					k := keyset[i]
					// Conflicts between racing goroutines are normal txnkv
					// behaviour; an aborted attempt still counts as one
					// iteration (both cells pay the same abort rate).
					ok := true
					if _, err := v.Read(ctx, "t", k, nil); err != nil {
						ok = false
					}
					if ok && v.Update(ctx, "t", k, val) != nil {
						ok = false
					}
					if !ok || binding.Commit(ctx, tctx) != nil {
						binding.Abort(ctx, tctx)
					}
					i = (i + 7919) % keys
				}
			})
			b.StopTimer()
			if capture {
				if err := sink.Close(); err != nil {
					b.Fatal(err)
				}
				events, dropped := sink.Stats()
				b.ReportMetric(float64(dropped)/float64(events+1), "dropped/event")
			}
		})
	}

	for _, capture := range []bool{false, true} {
		name := "Middleware/CaptureOff"
		if capture {
			name = "Middleware/CaptureOn"
		}
		b.Run(name, func(b *testing.B) {
			s, err := kvstore.Open(kvstore.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			binding := kvstore.NewBinding(s)
			for i := range keyset {
				if err := binding.Insert(ctx, "t", keyset[i], val); err != nil {
					b.Fatal(err)
				}
			}
			var sink *history.Sink
			if capture {
				sink, err = history.OpenFile(filepath.Join(b.TempDir(), "history.ndjson"), history.SinkOptions{})
				if err != nil {
					b.Fatal(err)
				}
			}
			var session atomic.Int64
			b.ResetTimer()
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				d := db.DB(binding)
				if capture {
					d = db.Chain(binding, history.Middleware(sink, int(session.Add(1))))
				}
				tdb := db.Transactional(d)
				g := session.Add(1)
				i := int(g * 31337 % keys)
				for pb.Next() {
					tctx, err := tdb.Start(ctx)
					if err != nil {
						b.Fatal(err)
					}
					k := keyset[i]
					if _, err := d.Read(ctx, "t", k, nil); err != nil {
						b.Fatal(err)
					}
					if err := d.Update(ctx, "t", k, val); err != nil {
						b.Fatal(err)
					}
					if err := tdb.Commit(ctx, tctx); err != nil {
						b.Fatal(err)
					}
					i = (i + 7919) % keys
				}
			})
			b.StopTimer()
			if capture {
				if err := sink.Close(); err != nil {
					b.Fatal(err)
				}
				events, dropped := sink.Stats()
				b.ReportMetric(float64(dropped)/float64(events+1), "dropped/event")
			}
		})
	}
}
