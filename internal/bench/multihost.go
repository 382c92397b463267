package bench

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"ycsbt/internal/client"
	"ycsbt/internal/cloudsim"
	"ycsbt/internal/measurement"
	"ycsbt/internal/multi"
	"ycsbt/internal/txn"
	"ycsbt/internal/workload"
)

// MultiHostPoint is one cell of the multi-host sweep.
type MultiHostPoint struct {
	Instances       int     `json:"instances"`
	ThreadsEach     int     `json:"threads_each"`
	TotalThroughput float64 `json:"total_throughput"`
	TotalOperations int64   `json:"total_operations"`
}

// MultiHost reproduces the paper's Section V-A observation: against a
// rate-capped container, splitting a fixed total thread count across
// several client instances ("EC2 hosts") leaves the aggregate
// throughput roughly unchanged — evidence that the container request
// rate, not the client host, is the bottleneck. The sweep holds
// instances × threads = totalThreads constant.
func MultiHost(ctx context.Context, o SweepOptions) ([]MultiHostPoint, error) {
	o = o.withDefaults(nil)
	totalThreads := 16
	splits := []int{1, 2, 4, 8}
	if o.Quick {
		splits = []int{1, 4}
	}
	var out []MultiHostPoint
	for _, instances := range splits {
		threadsEach := totalThreads / instances
		pt, err := multiHostCell(ctx, o, instances, threadsEach)
		if err != nil {
			return nil, err
		}
		out = append(out, pt)
		o.logf("multi-host %d×%d: %.1f txn/s total", instances, threadsEach, pt.TotalThroughput)
	}
	return out, nil
}

func multiHostCell(ctx context.Context, o SweepOptions, instances, threadsEach int) (MultiHostPoint, error) {
	inner := newInner()
	defer inner.Close()

	// Pre-load the shared store through the zero-latency path.
	loadM, err := txn.NewManager(txn.Options{}, txn.NewLocalStore("was", inner))
	if err != nil {
		return MultiHostPoint{}, err
	}
	p := cewProps(o, threadsEach, 0.9)
	lw, err := workload.New("closedeconomy")
	if err != nil {
		return MultiHostPoint{}, err
	}
	if err := lw.Init(p, nil); err != nil {
		return MultiHostPoint{}, err
	}
	loadCfg := client.BuildConfig(p)
	loadCfg.Threads = 16
	loadCfg.SkipValidation = true
	lc, err := client.New(loadCfg, lw, txn.NewBinding(loadM), nil)
	if err != nil {
		return MultiHostPoint{}, err
	}
	if _, err := lc.Load(ctx); err != nil {
		return MultiHostPoint{}, err
	}

	// The shared rate-capped container.
	cfg := cloudsim.Config{
		Name:         "was",
		ReadLatency:  500 * time.Microsecond,
		WriteLatency: time.Millisecond,
		RateLimit:    2000,
	}
	cloud := cloudsim.NewOver(cfg, inner)

	clients := make([]*client.Client, instances)
	for i := range clients {
		m, err := txn.NewManager(txn.Options{}, cloud)
		if err != nil {
			return MultiHostPoint{}, err
		}
		ip := cewProps(o, threadsEach, 0.9)
		ip.Set("seed", fmt.Sprint(42+i*1000))
		w, err := workload.New("closedeconomy")
		if err != nil {
			return MultiHostPoint{}, err
		}
		reg := measurement.NewRegistry(0)
		if err := w.Init(ip, reg); err != nil {
			return MultiHostPoint{}, err
		}
		runCfg := client.BuildConfig(ip)
		runCfg.SkipValidation = true
		runCfg.MaxExecutionTime = o.CellTime
		c, err := client.New(runCfg, w, txn.NewBinding(m), reg)
		if err != nil {
			return MultiHostPoint{}, err
		}
		clients[i] = c
	}
	res, err := multi.Run(ctx, clients)
	if err != nil {
		return MultiHostPoint{}, err
	}
	return MultiHostPoint{
		Instances:       instances,
		ThreadsEach:     threadsEach,
		TotalThroughput: res.TotalThroughput,
		TotalOperations: res.TotalOperations,
	}, nil
}

// PrintMultiHost renders the multi-host sweep.
func PrintMultiHost(w io.Writer, points []MultiHostPoint) {
	title := "Section V-A claim: aggregate throughput vs client-instance split (rate-capped container)"
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(w, "%-20s %18s\n", "instances × threads", "total txn/sec")
	for _, pt := range points {
		fmt.Fprintf(w, "%-20s %18.1f\n",
			fmt.Sprintf("%d × %d", pt.Instances, pt.ThreadsEach), pt.TotalThroughput)
	}
	fmt.Fprintln(w)
}
