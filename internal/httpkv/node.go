package httpkv

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"

	"ycsbt/internal/cluster"
	"ycsbt/internal/kvstore"
	"ycsbt/internal/kvwire"
	"ycsbt/internal/obs"
)

// NodeOptions are a node's settings, each set by one kvserver flag.
type NodeOptions struct {
	Cluster     *cluster.State // -cluster-node-id: nil outside cluster mode
	MaxInflight int            // -max-inflight
	Metrics     *obs.Registry  // -ops-addr: the node's series, or nil
}

// Node is one running key-value server, kvserver's or a test's.
type Node struct {
	http    *http.Server
	wire    *kvwire.Server // nil without a frame listener
	serving sync.WaitGroup // the listeners' accept loops
}

// ServeNode serves eng the way kvserver does: one kvwire.Core, so REST
// and frames share one ownership gate and admission limit; the frame
// protocol on wireLn when it is non-nil; and on httpLn the REST
// surface, advertising wireLn, beside the admin routes.
func ServeNode(eng kvstore.Engine, httpLn, wireLn net.Listener, o NodeOptions) *Node {
	core := kvwire.NewCore(eng, o.Cluster, o.MaxInflight)
	core.Instrument(o.Metrics)
	n := &Node{}
	var wireAddr string
	if wireLn != nil {
		n.wire = kvwire.NewServer(core, kvwire.ServerOptions{Metrics: o.Metrics})
		n.serving.Add(1)
		go func() { defer n.serving.Done(); n.wire.Serve(wireLn) }()
		wireAddr = wireLn.Addr().String()
	}
	mux := http.NewServeMux()
	mux.Handle("/", NewServerWithOptions(eng, ServerOptions{
		Metrics:  o.Metrics,
		Core:     core,
		WireAddr: wireAddr,
	}))
	handleAdmin(mux, eng, o.Cluster)
	o.Metrics.Help("httpkv_conns_accepted_total", "HTTP connections accepted since start; a client pool that reuses its connections keeps this near its size.")
	accepted := o.Metrics.Counter("httpkv_conns_accepted_total")
	n.http = &http.Server{Handler: mux, ConnState: func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			accepted.Inc()
		}
	}}
	n.serving.Add(1)
	go func() { defer n.serving.Done(); n.http.Serve(httpLn) }()
	return n
}

// Shutdown drains both listeners concurrently: new connections are
// refused at once, in-flight requests (pipelined frames already read
// off a connection included) get until ctx ends to finish, then every
// connection is cut.
func (n *Node) Shutdown(ctx context.Context) error {
	httpErr := make(chan error, 1)
	go func() { httpErr <- n.http.Shutdown(ctx) }()
	var wireErr error
	if n.wire != nil {
		wireErr = n.wire.Shutdown(ctx)
	}
	err := errors.Join(<-httpErr, wireErr)
	n.http.Close()
	n.serving.Wait()
	return err
}

// handleAdmin adds the admin routes: compaction, live slot migration
// and store stats.
func handleAdmin(mux *http.ServeMux, eng kvstore.Engine, cs *cluster.State) {
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
	// One migration at a time per node: the fleet-wide preflight and
	// CAS cutover would refuse a second, but only after its freeze.
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
		next, err := MigrateSlot(r.Context(), cs.Map(), slot, dest)
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
}
