// Package bench regenerates every figure of the YCSB+T paper's
// evaluation section (Section V) as a parameter sweep over the
// reproduction's substrates:
//
//	Figure 2 — transactional throughput vs client threads on a
//	           simulated WAS container, for 90:10, 80:20 and 70:30
//	           read:write mixes.
//	Figure 3 — the same store accessed directly (non-transactional)
//	           vs through the client-coordinated transaction library.
//	Figure 4 — anomaly score vs threads for the non-transactional
//	           embedded store under CEW.
//	Figure 5 — throughput vs threads for the same runs.
//	Tier 5   — per-operation latency in transactional and
//	           non-transactional modes (the Section V-B narrative).
//
// Every sweep returns structured series plus a text-table renderer,
// so cmd/experiments, bench_test.go and EXPERIMENTS.md all draw from
// the same code. A Check* predicate per figure asserts the shape the
// sweep must reproduce; it compares first and last cells only, so it
// holds for the tests' two-cell sweeps and cmd/experiments' longer ones.
package bench

import (
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"time"

	"ycsbt/internal/client"
	"ycsbt/internal/cloudsim"
	"ycsbt/internal/db"
	"ycsbt/internal/httpkv"
	"ycsbt/internal/kvstore"
	"ycsbt/internal/measurement"
	"ycsbt/internal/properties"
	"ycsbt/internal/txn"
	"ycsbt/internal/workload"
)

// Point is one measurement cell of a sweep.
type Point struct {
	Threads      int     `json:"threads"`
	Throughput   float64 `json:"throughput_ops_sec"`
	AnomalyScore float64 `json:"anomaly_score"`
	Operations   int64   `json:"operations"`
	Aborts       int64   `json:"aborts"`
}

// Series is one labelled line of a figure.
type Series struct {
	Label  string  `json:"label"`
	Points []Point `json:"points"`
}

// SweepOptions sizes a sweep. Zero values take the mode's defaults.
type SweepOptions struct {
	// Quick shrinks record counts, op counts and thread ranges so the
	// sweep finishes in seconds; used by tests and testing.B benches.
	Quick bool
	// RecordCount overrides the number of CEW accounts.
	RecordCount int64
	// CellTime bounds each cell's transaction phase.
	CellTime time.Duration
	// Threads overrides the thread counts swept.
	Threads []int
	// Log receives progress lines (nil = silent).
	Log io.Writer
}

func (o SweepOptions) withDefaults(fullThreads []int) SweepOptions {
	if o.RecordCount == 0 {
		if o.Quick {
			o.RecordCount = 500
		} else {
			o.RecordCount = 10000 // the paper's 10 000 records
		}
	}
	if o.CellTime == 0 {
		if o.Quick {
			o.CellTime = 250 * time.Millisecond
		} else {
			o.CellTime = 2 * time.Second
		}
	}
	if len(o.Threads) == 0 {
		o.Threads = fullThreads
		if o.Quick && len(fullThreads) > 4 {
			o.Threads = fullThreads[:4]
		}
	}
	return o
}

// newInner builds the embedded partitioned engine one cell runs
// against.
func newInner() *kvstore.Store {
	s, err := kvstore.Open(kvstore.Options{Shards: kvstore.DefaultShards})
	if err != nil {
		panic(err) // unreachable: in-memory opens perform no I/O
	}
	return s
}

func (o SweepOptions) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// cewProps builds the CEW property set of the paper's Listing 2,
// parameterized by mix and sizing.
func cewProps(o SweepOptions, threads int, readProportion float64) *properties.Properties {
	return properties.FromMap(map[string]string{
		"workload":                  "closedeconomy",
		"recordcount":               fmt.Sprint(o.RecordCount),
		"totalcash":                 fmt.Sprint(o.RecordCount * 100),
		"operationcount":            "1000000000", // bounded by maxexecutiontime
		"maxexecutiontime":          fmt.Sprint(int64(o.CellTime.Seconds()) + 1),
		"threadcount":               fmt.Sprint(threads),
		"readproportion":            fmt.Sprint(readProportion),
		"readmodifywriteproportion": fmt.Sprint(1 - readProportion),
		"requestdistribution":       "zipfian",
		"fieldcount":                "1",
		"fieldlength":               "100",
	})
}

// runCell executes load + transaction phase for one cell and returns
// the result of the transaction phase.
func runCell(ctx context.Context, p *properties.Properties, loadDB, runDB db.DB, cellTime time.Duration) (*client.Result, *workload.ValidationResult, error) {
	reg := measurement.NewRegistry(0)
	w, err := workload.New("closedeconomy")
	if err != nil {
		return nil, nil, err
	}
	if err := w.Init(p, reg); err != nil {
		return nil, nil, err
	}

	// Load through the zero-latency path with plenty of threads.
	loadCfg := client.BuildConfig(p)
	loadCfg.Threads = 16
	loadCfg.SkipValidation = true
	loadCfg.MaxExecutionTime = 0
	lc, err := client.New(loadCfg, w, loadDB, reg)
	if err != nil {
		return nil, nil, err
	}
	if _, err := lc.Load(ctx); err != nil {
		return nil, nil, err
	}

	runCfg := client.BuildConfig(p)
	runCfg.MaxExecutionTime = cellTime
	runCfg.SkipValidation = true // validated separately against loadDB
	rc, err := client.New(runCfg, w, runDB, reg)
	if err != nil {
		return nil, nil, err
	}
	res, err := rc.Run(ctx)
	if err != nil {
		return nil, nil, err
	}
	v, err := w.Validate(ctx, loadDB)
	if err != nil {
		return nil, nil, err
	}
	return res, v, nil
}

// point records one cell's result at x, its thread count (or, in the
// oracle sweep, the oracle RTT in ms).
func point(x int, res *client.Result, v *workload.ValidationResult) Point {
	return Point{Threads: x, Throughput: res.Throughput, AnomalyScore: v.AnomalyScore,
		Operations: res.Operations, Aborts: res.Aborts}
}

// fig2Threads is the paper's Figure 2 thread sweep.
var fig2Threads = []int{1, 2, 4, 8, 16, 32, 64, 128}

// fig35Threads is the paper's Figure 3/4/5 thread sweep.
var fig35Threads = []int{1, 2, 4, 8, 16}

// Figure2 sweeps transactional CEW throughput over threads and
// read:write mixes against a simulated WAS container.
func Figure2(ctx context.Context, o SweepOptions) ([]Series, error) {
	o = o.withDefaults(fig2Threads)
	mixes := []struct {
		label string
		read  float64
	}{
		{"90:10", 0.9},
		{"80:20", 0.8},
		{"70:30", 0.7},
	}
	var out []Series
	for _, mix := range mixes {
		s := Series{Label: "read:write " + mix.label}
		for _, th := range o.Threads {
			inner := newInner()
			cloud := cloudsim.NewOver(cloudsim.WASPreset(), inner)
			loadM, err := txn.NewManager(txn.Options{}, txn.NewLocalStore("was", inner))
			if err != nil {
				return nil, err
			}
			runM, err := txn.NewManager(txn.Options{}, cloud)
			if err != nil {
				return nil, err
			}
			p := cewProps(o, th, mix.read)
			res, v, err := runCell(ctx, p, txn.NewBinding(loadM), txn.NewBinding(runM), o.CellTime)
			inner.Close()
			if err != nil {
				return nil, err
			}
			s.Points = append(s.Points, point(th, res, v))
			o.logf("fig2 %s threads=%d: %.1f txn/s (%d ops, %d aborts)",
				mix.label, th, res.Throughput, res.Operations, res.Aborts)
		}
		out = append(out, s)
	}
	return out, nil
}

// Figure3 compares non-transactional and transactional access to the
// same simulated store, CEW 90:10.
func Figure3(ctx context.Context, o SweepOptions) ([]Series, error) {
	o = o.withDefaults(fig35Threads)
	nontx := Series{Label: "non-transactional"}
	tx := Series{Label: "transactional"}
	for _, th := range o.Threads {
		// Non-transactional: the cloudsim binding directly.
		{
			inner := newInner()
			cloud := cloudsim.NewOver(cloudsim.WASPreset(), inner)
			raw := cloudsim.NewBinding(cloud)
			// CEW writes full records, so the raw client's update is a
			// single PUT, as against a real cloud store.
			raw.BlindUpdates = true
			p := cewProps(o, th, 0.9)
			res, v, err := runCell(ctx, p, kvstore.NewBinding(inner), raw, o.CellTime)
			inner.Close()
			if err != nil {
				return nil, err
			}
			nontx.Points = append(nontx.Points, point(th, res, v))
			o.logf("fig3 non-tx threads=%d: %.1f ops/s", th, res.Throughput)
		}
		// Transactional: the txn library over the same kind of store.
		{
			inner := newInner()
			cloud := cloudsim.NewOver(cloudsim.WASPreset(), inner)
			loadM, err := txn.NewManager(txn.Options{}, txn.NewLocalStore("was", inner))
			if err != nil {
				return nil, err
			}
			runM, err := txn.NewManager(txn.Options{}, cloud)
			if err != nil {
				return nil, err
			}
			p := cewProps(o, th, 0.9)
			res, v, err := runCell(ctx, p, txn.NewBinding(loadM), txn.NewBinding(runM), o.CellTime)
			inner.Close()
			if err != nil {
				return nil, err
			}
			tx.Points = append(tx.Points, point(th, res, v))
			o.logf("fig3 tx threads=%d: %.1f txn/s", th, res.Throughput)
		}
	}
	return []Series{nontx, tx}, nil
}

// Figure45 sweeps the non-transactional store under CEW through its
// HTTP interface — the paper's Tier 6 testbed ("a WiredTiger
// key-value store augmented with an HTTP interface ... server and the
// YCSB+T client run on the same machine") — returning the
// anomaly-score series (Figure 4) and the throughput series (Figure
// 5) from the same runs, as the paper does. The loopback HTTP hop
// provides both the request latency that lets thread counts scale
// throughput and the widened race window that produces lost-update
// anomalies.
func Figure45(ctx context.Context, o SweepOptions) (fig4, fig5 Series, err error) {
	return Figure45WithDistribution(ctx, o, "zipfian")
}

// Figure45WithDistribution is Figure45 under an arbitrary request
// distribution — the DESIGN.md "zipfian vs uniform" ablation: skew
// concentrates conflicting read-modify-writes on hot keys, driving
// the anomaly score.
func Figure45WithDistribution(ctx context.Context, o SweepOptions, dist string) (fig4, fig5 Series, err error) {
	o = o.withDefaults(fig35Threads)
	fig4 = Series{Label: "anomaly score"}
	fig5 = Series{Label: "throughput"}
	for _, th := range o.Threads {
		pt, err := figure45Cell(ctx, o, th, dist)
		if err != nil {
			return fig4, fig5, err
		}
		fig4.Points = append(fig4.Points, pt)
		fig5.Points = append(fig5.Points, pt)
		o.logf("fig4/5 threads=%d: %.0f ops/s, score %.3g", th, pt.Throughput, pt.AnomalyScore)
	}
	return fig4, fig5, nil
}

func figure45Cell(ctx context.Context, o SweepOptions, threads int, dist string) (Point, error) {
	inner := newInner()
	defer inner.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return Point{}, fmt.Errorf("bench: listening for figure 4/5 server: %w", err)
	}
	// Each read and update pays a small service latency standing in for
	// the storage engine's I/O (the paper's server stored to SSD-backed
	// WiredTiger). The latency is what lets client threads overlap
	// requests — Figure 5's near-linear scaling — and it widens the
	// read-modify-write race window that Figure 4 quantifies.
	eng := SlowEngine{Engine: inner, Delay: time.Millisecond}
	if o.Quick {
		eng.Delay = 200 * time.Microsecond
	}
	defer httpkv.ServeNode(eng, ln, nil, httpkv.NodeOptions{}).Shutdown(ctx)

	raw := httpkv.NewClient("http://"+ln.Addr().String(), nil)

	p := cewProps(o, threads, 0.9)
	p.Set("requestdistribution", dist)
	res, v, err := runCell(ctx, p, kvstore.NewBinding(inner), raw, o.CellTime)
	if err != nil {
		return Point{}, err
	}
	return point(threads, res, v), nil
}

// SlowEngine sleeps Delay in every point read, multi-key read and
// apply it serves: the engine calls a node makes for every data op,
// REST or framed (kvwire.Core.ExecBatchInto).
type SlowEngine struct {
	kvstore.Engine
	Delay time.Duration
}

func (e SlowEngine) Get(table, key string) (*kvstore.VersionedRecord, error) {
	time.Sleep(e.Delay)
	return e.Engine.Get(table, key)
}

func (e SlowEngine) BatchGet(reqs []kvstore.GetReq) []kvstore.GetResult {
	time.Sleep(e.Delay)
	return e.Engine.BatchGet(reqs)
}

func (e SlowEngine) BatchApply(muts []kvstore.Mutation) []kvstore.MutResult {
	time.Sleep(e.Delay)
	return e.Engine.BatchApply(muts)
}

// OverheadRow is one operation's latency in both modes (Tier 5).
type OverheadRow struct {
	Series     string  `json:"series"`
	NonTxUS    float64 `json:"nontx_avg_us"`
	TxUS       float64 `json:"tx_avg_us"`
	NonTxCount int64   `json:"nontx_ops"`
	TxCount    int64   `json:"tx_ops"`
}

// Tier5Overhead measures per-operation latency with and without
// transactions on the simulated cloud store (the Section V-B
// narrative: "the throughput is reduced by about 30 to 40% from the
// overhead of transaction management").
func Tier5Overhead(ctx context.Context, o SweepOptions) ([]OverheadRow, error) {
	o = o.withDefaults([]int{8})
	th := o.Threads[len(o.Threads)-1]

	collect := func(loadDB, runDB db.DB) (*measurement.Registry, error) {
		p := cewProps(o, th, 0.9)
		res, _, err := runCell(ctx, p, loadDB, runDB, o.CellTime)
		if err != nil {
			return nil, err
		}
		return res.Registry, nil
	}

	innerA := newInner()
	defer innerA.Close()
	cloudA := cloudsim.NewOver(cloudsim.WASPreset(), innerA)
	nontxReg, err := collect(kvstore.NewBinding(innerA), cloudsim.NewBinding(cloudA))
	if err != nil {
		return nil, err
	}

	innerB := newInner()
	defer innerB.Close()
	cloudB := cloudsim.NewOver(cloudsim.WASPreset(), innerB)
	loadM, err := txn.NewManager(txn.Options{}, txn.NewLocalStore("was", innerB))
	if err != nil {
		return nil, err
	}
	runM, err := txn.NewManager(txn.Options{}, cloudB)
	if err != nil {
		return nil, err
	}
	txReg, err := collect(txn.NewBinding(loadM), txn.NewBinding(runM))
	if err != nil {
		return nil, err
	}

	series := []string{"READ", "UPDATE", "START", "COMMIT", "ABORT",
		"READ-MODIFY-WRITE", "TX-READ", "TX-READMODIFYWRITE"}
	var rows []OverheadRow
	for _, name := range series {
		a := nontxReg.Snapshot(name)
		b := txReg.Snapshot(name)
		if a.Operations == 0 && b.Operations == 0 {
			continue
		}
		rows = append(rows, OverheadRow{
			Series:  name,
			NonTxUS: a.AvgUS, TxUS: b.AvgUS,
			NonTxCount: a.Operations, TxCount: b.Operations,
		})
	}
	return rows, nil
}

// PrintSeries renders series as an aligned text table: one row per
// thread count, one column per series.
func PrintSeries(w io.Writer, title, valueHeader string, value func(Point) string, series []Series) {
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(w, "%-8s", "threads")
	for _, s := range series {
		fmt.Fprintf(w, " %20s", s.Label)
	}
	fmt.Fprintf(w, "   (%s)\n", valueHeader)
	if len(series) == 0 || len(series[0].Points) == 0 {
		return
	}
	for i := range series[0].Points {
		fmt.Fprintf(w, "%-8d", series[0].Points[i].Threads)
		for _, s := range series {
			if i < len(s.Points) {
				fmt.Fprintf(w, " %20s", value(s.Points[i]))
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// PrintOverhead renders the Tier 5 latency table.
func PrintOverhead(w io.Writer, rows []OverheadRow) {
	title := "Tier 5: per-operation latency, non-transactional vs transactional"
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(w, "%-22s %14s %14s %10s %10s\n", "series", "non-tx avg(us)", "tx avg(us)", "non-tx n", "tx n")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %14.1f %14.1f %10d %10d\n",
			r.Series, r.NonTxUS, r.TxUS, r.NonTxCount, r.TxCount)
	}
	fmt.Fprintln(w)
}

// Tput formats a throughput value for tables.
func Tput(p Point) string { return fmt.Sprintf("%.1f", p.Throughput) }

// Score formats an anomaly score for tables.
func Score(p Point) string { return fmt.Sprintf("%.3g", p.AnomalyScore) }
