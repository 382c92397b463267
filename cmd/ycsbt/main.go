// Command ycsbt is the YCSB+T benchmark client — the Go equivalent of
// the paper's Listing 1 invocation:
//
//	ycsbt -db rawhttp -P workloads/closed_economy_workload -threads 16 -t
//
// It loads one or more workload property files (-P, Java .properties
// format), applies -p key=value overrides and the flags, and hands the
// resulting property set to core.Execute, which runs the load phase
// (-load) and/or the transaction phase (-t), executes the Tier 6
// validation stage, and prints the measurements in the Listing 3
// format.
//
// Registered bindings (core imports them all): memory, kvstore
// (embedded engine, optional WAL), rawhttp (HTTP client for
// cmd/kvserver), cluster (shard-map router over a kvserver fleet),
// cloudsim (simulated WAS/GCS container), txnkv (client-coordinated
// transactions) and percolator (the Percolator-style baseline).
//
// Every client thread wraps the binding in the middleware stack named
// by -middleware (outermost first; default "metered", the one
// middleware registered here).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"ycsbt/internal/client"
	"ycsbt/internal/core"
	"ycsbt/internal/db"
	"ycsbt/internal/properties"
	"ycsbt/internal/workload"
)

// repeatedFlag collects a repeatable string flag.
type repeatedFlag []string

func (r *repeatedFlag) String() string { return strings.Join(*r, ",") }

func (r *repeatedFlag) Set(v string) error {
	*r = append(*r, v)
	return nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ycsbt:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ycsbt", flag.ContinueOnError)
	var (
		propFiles repeatedFlag
		overrides repeatedFlag
		dbName    = fs.String("db", "", "database binding (overrides the 'db' property)")
		wlName    = fs.String("workload", "", "workload name (overrides the 'workload' property)")
		threads   = fs.Int("threads", 0, "client threads (overrides 'threadcount')")
		target    = fs.Float64("target", 0, "target total ops/sec (overrides 'target')")
		mws       = fs.String("middleware", "", "comma-separated middleware stack, outermost first (overrides 'middleware'; default metered)")
		doLoad    = fs.Bool("load", false, "execute the load phase")
		doRun     = fs.Bool("t", false, "execute the transaction phase")
		status    = fs.Bool("s", false, "print interim status to stderr every 10 seconds")
		maxExec   = fs.Int64("maxexecutiontime", 0, "cap the transaction phase at this many seconds (overrides 'maxexecutiontime')")
		timeline  = fs.Bool("timeline", false, "record and report 1-second throughput time series")
		opsAddr   = fs.String("ops-addr", "", "ops listener address serving /metrics, /healthz, /debug/pprof with live run stats (sets obs.enabled=true)")
		histFile  = fs.String("history", "", "write the run's operation history (NDJSON) to this file for offline certification with histcheck (overrides 'history.file')")
		listDBs   = fs.Bool("list", false, "list registered bindings and workloads, then exit")
	)
	fs.Var(&propFiles, "P", "workload property file (repeatable)")
	fs.Var(&overrides, "p", "property override key=value (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *listDBs {
		fmt.Println("bindings:  ", strings.Join(db.Bindings(), ", "))
		fmt.Println("workloads: ", strings.Join(workload.Names(), ", "))
		fmt.Println("middleware:", strings.Join(db.MiddlewareNames(), ", "))
		return nil
	}

	props := properties.New()
	for _, pf := range propFiles {
		loaded, err := properties.LoadFile(pf)
		if err != nil {
			return err
		}
		props.Merge(loaded)
	}
	for _, ov := range overrides {
		key, val, ok := strings.Cut(ov, "=")
		if !ok {
			return fmt.Errorf("bad -p override %q (want key=value)", ov)
		}
		props.Set(key, val)
	}
	if *dbName != "" {
		props.Set("db", *dbName)
	}
	if *wlName != "" {
		props.Set("workload", *wlName)
	}
	if *threads > 0 {
		props.Set("threadcount", fmt.Sprint(*threads))
	}
	if *target > 0 {
		props.Set("target", fmt.Sprint(*target))
	}
	if *mws != "" {
		props.Set("middleware", *mws)
	}
	if *maxExec > 0 {
		props.Set("maxexecutiontime", fmt.Sprint(*maxExec))
	}
	if *histFile != "" {
		props.Set("history.file", *histFile)
	}
	if *opsAddr != "" {
		// Instrument the binding's substrate too, not just the client.
		props.Set("obs.enabled", "true")
	}
	if !*doLoad && !*doRun {
		return fmt.Errorf("nothing to do: pass -load, -t or both")
	}

	fmt.Println(client.Version)
	fmt.Printf("Command line: %s\n", strings.Join(args, " "))
	opts := core.RunOptions{
		Load:         *doLoad,
		Transactions: *doRun,
		Report:       os.Stdout,
		Timeline:     *timeline,
		OpsAddr:      *opsAddr,
	}
	if *status {
		opts.Status = os.Stderr
	}
	_, err := core.Execute(context.Background(), props, opts)
	return err
}
