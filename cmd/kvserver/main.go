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
// boots a versioned shard map (-peers for a uniform bootstrap map,
// -shardmap for an explicit one), serves only the slots the map
// assigns it, and answers everything else 410 Gone with routing
// hints. POST /admin/migrate?slot=N&dest=URL live-migrates one slot
// to another member (freeze, copy onto the emptied destination slot,
// map version bump, source drop). A
// cluster node must run a frame listener (-wire-addr): routers and
// migrations reach its data over frames only.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"syscall"
	"time"

	"ycsbt/internal/cluster"
	"ycsbt/internal/httpkv"
	"ycsbt/internal/kvstore"
	"ycsbt/internal/kvwire"
	"ycsbt/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "kvserver:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:8077", "listen address")
	wal := flag.String("wal", "", "write-ahead-log path: a file for one shard, a directory of wal-<shard>.log segments otherwise (empty = volatile)")
	syncWrites := flag.Bool("sync", false, "fsync the WAL on every write")
	shards := flag.Int("shards", kvstore.DefaultShards, "hash partitions of the store (an existing WAL layout wins)")
	groupCommit := flag.Duration("group-commit", 0, "WAL group-commit window, e.g. 2ms (0 = sync inline)")
	maxInflight := flag.Int("max-inflight", 0, "concurrent request frames admitted before 429 (0 = unlimited)")
	maxBodyBytes := flag.Int64("max-body-bytes", 0, "request body cap in bytes, larger bodies get 413 (0 = default 1MiB)")
	retention := flag.Duration("retention", kvstore.DefaultRetention, "how long overwritten record versions stay readable via unpinned as-of reads (0 = keep only what pins and the txn watermark need)")
	vacuumInterval := flag.Duration("vacuum-interval", 0, "background version-vacuum sweep interval (0 = write-path trimming only)")
	opsAddr := flag.String("ops-addr", "", "ops listener address serving /metrics, /healthz, /debug/pprof (empty = disabled)")
	wireAddr := flag.String("wire-addr", "", "frame listener address; advertised to clients via the X-KV-Wire response header (empty = disabled; required with -cluster-node-id)")
	drainTimeout := flag.Duration("drain-timeout", 5*time.Second, "graceful-shutdown bound: how long in-flight requests on the HTTP, wire and ops listeners get to finish")
	clusterNodeID := flag.String("cluster-node-id", "", "this node's base URL in the shard map, e.g. http://127.0.0.1:8077 (enables cluster mode)")
	peers := flag.String("peers", "", "comma-separated base URLs of every cluster member, this node included; builds a uniform round-robin shard map at version 1 (with -cluster-node-id)")
	shardmapPath := flag.String("shardmap", "", "path to a shard map JSON file to boot from instead of -peers (with -cluster-node-id)")
	clusterSlots := flag.Int("cluster-slots", cluster.DefaultSlots, "key-space slots in the bootstrap shard map (with -peers)")
	clusterPlacement := flag.String("cluster-placement", cluster.PlacementHash, "bootstrap placement, hash or range; range needs explicit bounds, so boot it from -shardmap (with -peers)")
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
		Path:           *wal,
		SyncWrites:     *syncWrites,
		Shards:         *shards,
		GroupCommit:    *groupCommit,
		Retention:      *retention,
		VacuumInterval: *vacuumInterval,
		Metrics:        metrics,
	})
	if err != nil {
		return err
	}
	defer eng.Close()
	desc := fmt.Sprintf("wal=%q sync=%v shards=%d", *wal, *syncWrites, eng.Shards())

	// Cluster mode: boot a shard map and serve only the owned slots.
	var cs *cluster.State
	if *clusterNodeID != "" {
		var m *cluster.Map
		switch {
		case *shardmapPath != "":
			doc, rerr := os.ReadFile(*shardmapPath)
			if rerr != nil {
				return fmt.Errorf("reading -shardmap: %w", rerr)
			}
			m, err = cluster.Decode(doc)
		case *peers != "":
			m, err = cluster.NewUniform(*clusterPlacement, *clusterSlots, httpkv.SplitNodes(*peers), nil)
		default:
			return fmt.Errorf("cluster mode needs -peers or -shardmap")
		}
		if err != nil {
			return fmt.Errorf("bootstrapping shard map: %w", err)
		}
		cs, err = cluster.NewState(*clusterNodeID, m, metrics)
		if err != nil {
			return fmt.Errorf("joining cluster: %w", err)
		}
		desc += fmt.Sprintf(" cluster node=%s slots=%d/%d map=v%d", *clusterNodeID, len(m.SlotsOf(*clusterNodeID)), m.Slots, m.Version)
	}

	// One core serves both listeners, so REST and frame requests share a
	// single ownership gate.
	core := kvwire.NewCore(eng, cs, *maxInflight)
	core.Instrument(metrics)

	var wireSrv *kvwire.Server
	var wireLnAddr string
	if *wireAddr != "" {
		wireLn, err := net.Listen("tcp", *wireAddr)
		if err != nil {
			return fmt.Errorf("wire listener: %w", err)
		}
		wireSrv = kvwire.NewServer(core, kvwire.ServerOptions{Metrics: metrics})
		go func() {
			if err := wireSrv.Serve(wireLn); err != nil {
				fmt.Fprintln(os.Stderr, "kvserver: wire listener:", err)
			}
		}()
		wireLnAddr = wireLn.Addr().String()
		desc += fmt.Sprintf(" wire=%s", wireLnAddr)
	}

	mux := http.NewServeMux()
	mux.Handle("/", httpkv.NewServerWithOptions(eng, httpkv.ServerOptions{
		MaxBodyBytes: *maxBodyBytes,
		Metrics:      metrics,
		Cluster:      cs,
		Core:         core,
		WireAddr:     wireLnAddr,
	}))
	// Admin surface: compaction and store stats.
	mux.HandleFunc("/admin/compact", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		before, _ := eng.WALSize()
		if err := eng.Compact(); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		after, _ := eng.WALSize()
		fmt.Fprintf(w, "compacted: %d -> %d bytes\n", before, after)
	})
	// One migration at a time per admin node: MigrateSlot's preflight
	// and CAS cutover catch races across the fleet, but two local
	// requests need not burn a freeze/copy cycle each to discover only
	// one can win.
	var migrateMu sync.Mutex
	mux.HandleFunc("/admin/migrate", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		if cs == nil {
			http.Error(w, "not a cluster node", http.StatusPreconditionFailed)
			return
		}
		migrateMu.Lock()
		defer migrateMu.Unlock()
		slot, err := strconv.Atoi(r.URL.Query().Get("slot"))
		if err != nil {
			http.Error(w, "bad slot", http.StatusBadRequest)
			return
		}
		dest := r.URL.Query().Get("dest")
		if dest == "" {
			http.Error(w, "missing dest", http.StatusBadRequest)
			return
		}
		next, err := httpkv.MigrateSlot(r.Context(), nil, cs.Map(), slot, dest)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		fmt.Fprintf(w, "{\"slot\":%d,\"dest\":%q,\"map_version\":%d}\n", slot, dest, next.Version)
	})
	mux.HandleFunc("/admin/stats", func(w http.ResponseWriter, r *http.Request) {
		size, _ := eng.WALSize()
		fmt.Fprintf(w, "wal_bytes %d\n", size)
		for _, table := range eng.Tables() {
			fmt.Fprintf(w, "records{table=%q} %d\n", table, eng.Len(table))
		}
	})
	srv := &http.Server{Addr: *addr, Handler: mux}

	var opsSrv *http.Server
	if *opsAddr != "" {
		var opsLn net.Addr
		opsSrv, opsLn, err = obs.StartOps(*opsAddr, reg, nil)
		if err != nil {
			return err
		}
		defer opsSrv.Close()
		fmt.Printf("kvserver ops listening on http://%s\n", opsLn)
	}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	fmt.Printf("kvserver listening on http://%s (%s)\n", *addr, desc)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		fmt.Printf("kvserver: received %v, shutting down\n", s)
		drain(*drainTimeout, srv, wireSrv, opsSrv)
		return eng.Sync()
	}
}

// drain stops all listeners gracefully and concurrently — new
// connections are refused at once, in-flight requests (including
// pipelined binary frames already read off a connection) get until
// the deadline to finish, then everything is cut.
func drain(timeout time.Duration, srv *http.Server, wireSrv *kvwire.Server, opsSrv *http.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	var wg sync.WaitGroup
	shutdown := func(f func(context.Context) error, name string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := f(ctx); err != nil {
				fmt.Fprintf(os.Stderr, "kvserver: %s drain: %v\n", name, err)
			}
		}()
	}
	shutdown(srv.Shutdown, "http")
	if wireSrv != nil {
		shutdown(wireSrv.Shutdown, "wire")
	}
	if opsSrv != nil {
		shutdown(opsSrv.Shutdown, "ops")
	}
	wg.Wait()
}
