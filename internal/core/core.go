// Package core is the YCSB+T entry point: it ties the framework's
// pieces — property files, workload registry, binding registry,
// workload executor, Tier 5 measurement and Tier 6 validation — into
// the single load → run → validate → report pipeline that the paper's
// client executes (Listing 1 → Listing 3), together with the history
// file and the ops listener a run may ask for. cmd/ycsbt is a thin
// flag wrapper around this package; tests drive the same pipeline
// programmatically.
//
// Importing core registers every binding (memory, kvstore, rawhttp, cluster,
// cloudsim, txnkv, percolator) and every workload (core/A–F,
// closedeconomy, writeskew).
package core

import (
	"context"
	"fmt"
	"io"
	"time"

	"ycsbt/internal/client"
	"ycsbt/internal/history"
	"ycsbt/internal/measurement"
	"ycsbt/internal/obs"
	"ycsbt/internal/properties"

	// Register every binding and workload implementation.
	_ "ycsbt/internal/cloudsim"
	_ "ycsbt/internal/httpkv"
	_ "ycsbt/internal/kvstore"
	_ "ycsbt/internal/percolator"
	_ "ycsbt/internal/txn"
	_ "ycsbt/internal/workload"
)

// RunOptions selects which phases to execute and where output goes.
type RunOptions struct {
	// Load executes the load phase (the YCSB -load flag).
	Load bool
	// Transactions executes the transaction phase (the -t flag).
	Transactions bool
	// Report receives the phase lines and the Listing-3-format results
	// (nil = discard).
	Report io.Writer
	// Status receives interim throughput lines every StatusInterval
	// (nil = none).
	Status io.Writer
	// StatusInterval defaults to 10s when Status is set.
	StatusInterval time.Duration
	// Timeline records a 1-second throughput time series.
	Timeline bool
	// OpsAddr, when set, serves /metrics, /healthz and /debug/pprof on
	// this address for the length of the call, with the run's
	// measurement series on /metrics (the -ops-addr flag). The series
	// join the process-wide obs registry, so a process serves one such
	// run.
	OpsAddr string
}

// Outcome bundles the phase results of one Execute call.
type Outcome struct {
	// Load is the load-phase result (nil when the phase was skipped).
	Load *client.Result
	// Run is the transaction-phase result (nil when skipped).
	Run *client.Result
}

// Final returns the result of the last phase executed.
func (o *Outcome) Final() *client.Result {
	if o.Run != nil {
		return o.Run
	}
	return o.Load
}

// Execute runs the configured phases of the benchmark described by
// props (workload, db, recordcount, operationcount, threadcount, …)
// and writes the report of the final phase. When the "history.file"
// property names a file, every finished transaction is written to it
// for offline certification (cmd/histcheck).
func Execute(ctx context.Context, props *properties.Properties, opts RunOptions) (_ *Outcome, err error) {
	if !opts.Load && !opts.Transactions {
		return nil, fmt.Errorf("core: nothing to do: enable Load, Transactions or both")
	}
	report := opts.Report
	if report == nil {
		report = io.Discard
	}
	cfg := client.BuildConfig(props)
	if opts.Status != nil {
		cfg.Status = opts.Status
		cfg.StatusInterval = opts.StatusInterval
		if cfg.StatusInterval <= 0 {
			cfg.StatusInterval = 10 * time.Second
		}
	}
	if opts.Timeline {
		cfg.TimelineInterval = time.Second
	}
	c, err := client.Open(cfg)
	if err != nil {
		return nil, err
	}
	defer c.DB().Cleanup()

	if path := props.GetString("history.file", ""); path != "" {
		sink, serr := history.OpenFile(path, history.SinkOptions{
			Metrics: obs.Enabled(props.GetBool("obs.enabled", false)),
		})
		if serr != nil {
			return nil, serr
		}
		c.SetHistory(sink)
		defer func() {
			if cerr := sink.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("core: history sink: %w", cerr)
			}
			events, dropped := sink.Stats()
			fmt.Fprintf(report, "history: %d records captured, %d dropped -> %s (check with: histcheck %s)\n",
				events, dropped, path, path)
		}()
	}

	if opts.OpsAddr != "" {
		reg := obs.Default()
		reg.RegisterCollector(obs.RuntimeCollector())
		reg.RegisterCollector(measurement.ObsCollector(c.Registry()))
		srv, addr, err := obs.StartOps(opts.OpsAddr, reg, nil)
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		fmt.Fprintf(report, "ops listening on http://%s\n", addr)
	}

	out := &Outcome{}
	if opts.Load {
		fmt.Fprintln(report, "Loading workload...")
		res, err := c.Load(ctx)
		if err != nil {
			return nil, fmt.Errorf("core: load phase: %w", err)
		}
		out.Load = res
		if opts.Transactions {
			fmt.Fprintf(report, "Load complete: %d records in %.1fs\n", res.Operations, res.RunTime.Seconds())
		}
	}
	if opts.Transactions {
		fmt.Fprintln(report, "Starting test.")
		res, err := c.Run(ctx)
		if err != nil {
			return nil, fmt.Errorf("core: transaction phase: %w", err)
		}
		out.Run = res
	}
	if err := client.Report(report, out.Final()); err != nil {
		return nil, err
	}
	return out, nil
}
