// Command kvserver serves the embedded key-value store over HTTP —
// the reproduction's stand-in for the paper's "WiredTiger key-value
// store augmented with an HTTP interface" — and, with -wire-addr, over
// the framed binary protocol that carries everything beyond single-key
// REST (batches, as-of reads, streamed scans, migration).
//
// Run it, then point the benchmark client at it:
//
//	kvserver -addr 127.0.0.1:8077 -wal /tmp/cew.wal &
//	ycsbt -db rawhttp -p rawhttp.url=http://127.0.0.1:8077 \
//	      -P workloads/closed_economy_workload -threads 16 -load -t
//
// With -ops-addr set, a private ops listener serves Prometheus-text
// /metrics, /healthz, and net/http/pprof. The node always serves one
// embedded kvstore engine, volatile or backed by the -wal log.
//
// With -cluster-node-id set the node joins a shared-nothing fleet: it
// boots a uniform versioned shard map over -peers, serves only the
// slots the map assigns it, and answers everything else 410 Gone with
// routing hints. POST /admin/migrate?slot=N&dest=URL live-migrates
// one slot to another member (freeze, copy onto the emptied
// destination slot, map version bump, source drop). A cluster node
// must run a frame listener (-wire-addr): routers and migrations reach
// its data over frames only.
//
// The node itself, drain included, is httpkv.ServeNode, which the
// in-process test fleets boot too.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ycsbt/internal/cluster"
	"ycsbt/internal/httpkv"
	"ycsbt/internal/kvstore"
	"ycsbt/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "kvserver:", err)
		os.Exit(1)
	}
}

// drainTimeout bounds a graceful shutdown: how long in-flight requests
// on the HTTP and wire listeners get to finish.
const drainTimeout = 5 * time.Second

func run() error {
	addr := flag.String("addr", "127.0.0.1:8077", "listen address")
	wal := flag.String("wal", "", "write-ahead-log path: a file for one shard, a directory of wal-<shard>.log segments otherwise (empty = volatile)")
	syncWrites := flag.Bool("sync", false, "fsync the WAL on every write")
	maxInflight := flag.Int("max-inflight", 0, "concurrent request frames admitted before 429 (0 = unlimited)")
	opsAddr := flag.String("ops-addr", "", "ops listener address serving /metrics, /healthz, /debug/pprof (empty = disabled)")
	wireAddr := flag.String("wire-addr", "", "frame listener address; advertised to clients via the X-KV-Wire response header (empty = disabled; required with -cluster-node-id)")
	clusterNodeID := flag.String("cluster-node-id", "", "this node's base URL in the shard map, e.g. http://127.0.0.1:8077 (enables cluster mode)")
	peers := flag.String("peers", "", "comma-separated base URLs of every cluster member, this node included; builds a uniform round-robin shard map at version 1 (with -cluster-node-id)")
	clusterSlots := flag.Int("cluster-slots", cluster.DefaultSlots, "key-space slots in the bootstrap shard map (with -peers)")
	flag.Parse()
	if *clusterNodeID != "" && *wireAddr == "" {
		return fmt.Errorf("-cluster-node-id needs -wire-addr: a cluster node serves routers and migrations over frames only")
	}

	reg := obs.Default()
	var metrics *obs.Registry
	if *opsAddr != "" {
		metrics = reg
		reg.RegisterCollector(obs.RuntimeCollector())
	}

	eng, err := kvstore.Open(kvstore.Options{
		Path:       *wal,
		SyncWrites: *syncWrites,
		Shards:     kvstore.DefaultShards,
		Metrics:    metrics,
	})
	if err != nil {
		return err
	}
	defer eng.Close()
	desc := fmt.Sprintf("wal=%q sync=%v shards=%d", *wal, *syncWrites, eng.Shards())

	// Cluster mode: boot a shard map and serve only the owned slots.
	var cs *cluster.State
	if *clusterNodeID != "" {
		if *peers == "" {
			return fmt.Errorf("cluster mode needs -peers")
		}
		m, err := cluster.NewUniform(cluster.PlacementHash, *clusterSlots, httpkv.SplitNodes(*peers), nil)
		if err != nil {
			return fmt.Errorf("bootstrapping shard map: %w", err)
		}
		cs, err = cluster.NewState(*clusterNodeID, m, metrics)
		if err != nil {
			return fmt.Errorf("joining cluster: %w", err)
		}
		desc += fmt.Sprintf(" cluster node=%s slots=%d/%d map=v%d", *clusterNodeID, len(m.SlotsOf(*clusterNodeID)), m.Slots, m.Version)
	}

	httpLn, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	var wireLn net.Listener
	if *wireAddr != "" {
		if wireLn, err = net.Listen("tcp", *wireAddr); err != nil {
			return fmt.Errorf("wire listener: %w", err)
		}
		desc += fmt.Sprintf(" wire=%s", wireLn.Addr())
	}

	if *opsAddr != "" {
		opsSrv, opsLn, err := obs.StartOps(*opsAddr, reg, nil)
		if err != nil {
			return err
		}
		defer opsSrv.Close()
		fmt.Printf("kvserver ops listening on http://%s\n", opsLn)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	node := httpkv.ServeNode(eng, httpLn, wireLn, httpkv.NodeOptions{
		Cluster:     cs,
		MaxInflight: *maxInflight,
		Metrics:     metrics,
	})
	fmt.Printf("kvserver listening on http://%s (%s)\n", httpLn.Addr(), desc)
	fmt.Printf("kvserver: received %v, shutting down\n", <-sig)
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := node.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "kvserver: drain:", err)
	}
	return eng.Sync()
}
