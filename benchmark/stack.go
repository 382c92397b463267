package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"time"

	"ycsbt/internal/cluster"
	"ycsbt/internal/db"
	"ycsbt/internal/httpkv"
	"ycsbt/internal/kvstore"
	"ycsbt/internal/kvwire"
	"ycsbt/internal/obs"
	"ycsbt/internal/properties"
	"ycsbt/internal/txn"
)

// node is one in-process kvserver: the same constructors, in the same
// order, as cmd/kvserver runs them, on real loopback listeners.
type node struct {
	url      string
	wireAddr string
	walDir   string
	reg      *obs.Registry
	store    *kvstore.Store
	core     *kvwire.Core
	httpSrv  *http.Server
	wireSrv  *kvwire.Server
	served   chan error // one value per listener goroutine
}

// stack is everything one trial runs against.
type stack struct {
	spec    *spec
	nodes   []*node
	binding db.DB
	// local is the embedded engine of cew_embedded (nil elsewhere).
	local    *kvstore.Store
	localReg *obs.Registry
	mgr      *txn.Manager
	router   *httpkv.Router
	// clientReg holds the router's client-side obs counters.
	clientReg *obs.Registry
	closers   []func() error
}

// openStore opens a node's engine with kvserver's defaults: WAL on
// disk without per-write fsync and without group commit (volatile when
// dir is empty), default shards and retention.
func openStore(dir string, reg *obs.Registry) (*kvstore.Store, error) {
	return kvstore.Open(kvstore.Options{
		Path:      dir,
		Shards:    kvstore.DefaultShards,
		Retention: kvstore.DefaultRetention,
		Metrics:   reg,
	})
}

// bootFleet starts n kvserver stacks. With clustered set they share a
// uniform hash shard map (kvserver -cluster-node-id/-peers); a lone
// unclustered node is the paper's single REST store.
func bootFleet(n int, clustered bool, workDir string, p *probe) ([]*node, error) {
	httpLns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range httpLns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		httpLns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	var m *cluster.Map
	if clustered {
		var err error
		if m, err = cluster.NewUniform(cluster.PlacementHash, cluster.DefaultSlots, urls, nil); err != nil {
			return nil, err
		}
	}
	nodes := make([]*node, 0, n)
	for i := range httpLns {
		nd, err := bootNode(i, httpLns[i], urls[i], m, filepath.Join(workDir, fmt.Sprintf("node%d", i)), p)
		if err != nil {
			for _, up := range nodes {
				up.close()
			}
			return nil, err
		}
		nodes = append(nodes, nd)
	}
	return nodes, nil
}

func bootNode(idx int, httpLn net.Listener, url string, m *cluster.Map, walDir string, p *probe) (*node, error) {
	nd := &node{url: url, walDir: walDir, reg: obs.NewRegistry(), served: make(chan error, 2)}
	store, err := openStore(walDir, nd.reg)
	if err != nil {
		return nil, err
	}
	nd.store = store
	eng := p.wrapEngine(store, idx)
	var cs *cluster.State
	if m != nil {
		if cs, err = cluster.NewState(url, m, nd.reg); err != nil {
			store.Close()
			return nil, err
		}
	}
	nd.core = kvwire.NewCore(eng, cs, 0)

	wireLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		store.Close()
		return nil, err
	}
	nd.wireAddr = wireLn.Addr().String()
	nd.wireSrv = kvwire.NewServer(nd.core, kvwire.ServerOptions{Metrics: nd.reg})
	go func() { nd.served <- nd.wireSrv.Serve(wireLn) }()

	var handler http.Handler = httpkv.NewServerWithOptions(eng, httpkv.ServerOptions{
		Metrics:  nd.reg,
		Cluster:  cs,
		Core:     nd.core,
		WireAddr: nd.wireAddr,
	})
	if p.traced {
		st := newServerTrace(p, idx, layerHandler)
		p.handlers = append(p.handlers, st)
		handler = handlerSpan(handler, st)
	}
	// kvserver routes through a mux that also carries its admin
	// surface; keep the hop so a request walks the same path.
	mux := http.NewServeMux()
	mux.Handle("/", handler)
	nd.httpSrv = &http.Server{Handler: mux}
	go func() {
		err := nd.httpSrv.Serve(httpLn)
		if err == http.ErrServerClosed {
			err = nil
		}
		nd.served <- err
	}()
	return nd, nil
}

// close drains both listeners, waits for their goroutines, and closes
// the engine (a clean close, so reopening measures WAL replay only).
func (nd *node) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	first := nd.httpSrv.Shutdown(ctx)
	if err := nd.wireSrv.Shutdown(ctx); err != nil && first == nil {
		first = err
	}
	for i := 0; i < 2; i++ {
		if err := <-nd.served; err != nil && first == nil {
			first = err
		}
	}
	if err := nd.store.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// bootStack builds the stack a spec names and the binding the client
// drives. On a traced stack the txn.Store and every engine carry span
// decorators; an untraced stack holds no harness code below the db
// middleware chain.
func bootStack(sp *spec, workDir string, p *probe) (*stack, error) {
	st := &stack{spec: sp, clientReg: obs.NewRegistry()}
	fail := func(err error) (*stack, error) {
		st.close()
		return nil, err
	}
	var err error
	switch sp.shape {
	case shapeEmbedded:
		// txnkv.backend=memory: a volatile engine behind LocalStore.
		st.localReg = obs.NewRegistry()
		if st.local, err = openStore("", st.localReg); err != nil {
			return fail(err)
		}
		st.closers = append(st.closers, st.local.Close)
		if err = st.txnBinding(txn.NewLocalStore("local", p.wrapEngine(st.local, 0)), p); err != nil {
			return fail(err)
		}
	case shapeFleetTxn, shapeFleetRouter:
		if st.nodes, err = bootFleet(3, true, workDir, p); err != nil {
			return fail(err)
		}
		if st.router, err = httpkv.NewRouter(st.urls(), nil, st.clientReg); err != nil {
			return fail(err)
		}
		st.closers = append(st.closers, st.router.Cleanup)
		if sp.shape == shapeFleetRouter {
			st.binding = st.router // db=cluster
		} else if err = st.txnBinding(httpkv.NewRouterStore("cluster", st.router), p); err != nil {
			return fail(err) // txnkv.backend=cluster
		}
	case shapeSingleHTTP:
		if st.nodes, err = bootFleet(1, false, workDir, p); err != nil {
			return fail(err)
		}
		c := httpkv.NewClient(st.nodes[0].url, nil) // db=rawhttp
		if err = c.Init(properties.FromMap(map[string]string{"rawhttp.wire": httpkv.WireModeOff})); err != nil {
			return fail(err)
		}
		st.closers = append(st.closers, c.Cleanup)
		st.binding = c
	default:
		return fail(fmt.Errorf("unknown stack shape %d", sp.shape))
	}
	return st, nil
}

// txnBinding builds manager and binding by hand (rather than opening
// "txnkv" by name) so the traced stack can slip its decorator between
// the manager and the store.
func (st *stack) txnBinding(s txn.Store, p *probe) error {
	if p.traced {
		s = wrapStore(s)
	}
	m, err := txn.NewManager(txn.Options{RecoveryTimeout: 10 * time.Second}, s)
	if err != nil {
		return err
	}
	st.mgr = m
	st.binding = txn.NewBinding(m)
	return nil
}

func (st *stack) urls() []string {
	out := make([]string, len(st.nodes))
	for i, nd := range st.nodes {
		out[i] = nd.url
	}
	return out
}

// walBytes sums the WAL size over every engine of the stack.
func (st *stack) walBytes() int64 {
	var total int64
	for _, nd := range st.nodes {
		n, _ := nd.store.WALSize() // volatile stores report 0
		total += n
	}
	return total
}

// counter sums one server-side obs counter over all nodes.
func (st *stack) counter(name string, labels ...string) int64 {
	var total int64
	for _, nd := range st.nodes {
		total += nd.reg.Counter(name, labels...).Value()
	}
	return total
}

// engineOpsOf sums an engine's kvstore_ops_total series: operations
// started, whatever decorators sit above the engine.
func engineOpsOf(reg *obs.Registry) int64 {
	var total int64
	for _, op := range []string{"get", "put", "delete", "scan"} {
		for shard := 0; shard < kvstore.DefaultShards; shard++ {
			total += reg.Counter("kvstore_ops_total", "op", op, "shard", strconv.Itoa(shard)).Value()
		}
	}
	return total
}

// close tears the stack down: client side first, then every node.
func (st *stack) close() error {
	var first error
	for i := len(st.closers) - 1; i >= 0; i-- {
		if err := st.closers[i](); err != nil && first == nil {
			first = err
		}
	}
	st.closers = nil
	for _, nd := range st.nodes {
		if err := nd.close(); err != nil && first == nil {
			first = err
		}
	}
	st.nodes = nil
	return first
}
