// In-process servers for the root end-to-end tests and benchmarks,
// booted through httpkv.ServeNode as cmd/kvserver boots a node: an
// engine behind one shared kvwire.Core, a frame listener, the HTTP
// surface advertising it, and the admin routes.
package ycsbt_test

import (
	"context"
	"net"
	"os"
	"testing"
	"time"

	"ycsbt/internal/cluster"
	"ycsbt/internal/httpkv"
	"ycsbt/internal/kvstore"
	"ycsbt/internal/obs"
)

// serviceModel is the engine-side stand-in for a slower or
// capacity-bound store: every batched engine call — what a request
// frame becomes — sleeps delay, holding one of the node's service slots
// while it does when the model has any (sem non-nil). It sits under the
// Core so that it is in the path whichever listener the request came
// through.
type serviceModel struct {
	kvstore.Engine
	delay time.Duration
	sem   chan struct{} // nil: requests overlap freely
}

func (e *serviceModel) service() {
	if e.sem != nil {
		e.sem <- struct{}{}
		defer func() { <-e.sem }()
	}
	time.Sleep(e.delay)
}

func (e *serviceModel) BatchGet(reqs []kvstore.GetReq) []kvstore.GetResult {
	e.service()
	return e.Engine.BatchGet(reqs)
}

func (e *serviceModel) BatchApply(muts []kvstore.Mutation) []kvstore.MutResult {
	e.service()
	return e.Engine.BatchApply(muts)
}

// testNode is one in-process server: what a test needs to look inside
// it afterwards.
type testNode struct {
	url   string
	store *kvstore.Store
	reg   *obs.Registry
}

// serveNode starts both front ends for store on httpLn plus a fresh
// frame listener. model, when non-nil, wraps the engine the Core sees.
func serveNode(tb testing.TB, httpLn net.Listener, store *kvstore.Store, cs *cluster.State, reg *obs.Registry, model func(kvstore.Engine) kvstore.Engine) *testNode {
	tb.Helper()
	var eng kvstore.Engine = store
	if model != nil {
		eng = model(store)
	}
	nd := httpkv.ServeNode(eng, httpLn, listenLoopback(tb), httpkv.NodeOptions{Cluster: cs, Metrics: reg})
	tb.Cleanup(func() { shutdown(nd); store.Close() })
	return &testNode{url: "http://" + httpLn.Addr().String(), store: store, reg: reg}
}

// shutdown drains a node for at most five seconds.
func shutdown(nd *httpkv.Node) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return nd.Shutdown(ctx)
}

func listenLoopback(tb testing.TB) net.Listener {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	return ln
}

// startKVServer serves a fresh in-memory store over loopback, with a
// per-request service latency when delay > 0 (the stand-in for the
// paper's SSD-backed engine). The throughput cells use zero delay: a
// sleeping request still overlaps freely, so only the per-request CPU
// cost would bound them.
func startKVServer(tb testing.TB, delay time.Duration) (*kvstore.Store, string) {
	tb.Helper()
	// YCSBT_BENCH_OBS=1 instruments the engine and both listeners with a
	// live registry, so `make bench-quick` run with and without it
	// measures the observability layer's end-to-end overhead.
	var reg *obs.Registry
	if os.Getenv("YCSBT_BENCH_OBS") == "1" {
		reg = obs.NewRegistry()
	}
	store, err := kvstore.Open(kvstore.Options{Metrics: reg})
	if err != nil {
		tb.Fatal(err)
	}
	var model func(kvstore.Engine) kvstore.Engine
	if delay > 0 {
		model = func(eng kvstore.Engine) kvstore.Engine { return &serviceModel{Engine: eng, delay: delay} }
	}
	nd := serveNode(tb, listenLoopback(tb), store, nil, reg, model)
	return store, nd.url
}

// startFleet boots n cluster nodes under one uniform hash map, the map
// kvserver -peers bootstraps. Every listener is held from the moment
// its port is chosen, so no port can be taken twice. model, when
// non-nil, wraps each node's engine.
func startFleet(tb testing.TB, n, slots int, model func(kvstore.Engine) kvstore.Engine) ([]*testNode, *cluster.Map) {
	tb.Helper()
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		lns[i] = listenLoopback(tb)
		urls[i] = "http://" + lns[i].Addr().String()
	}
	m, err := cluster.NewUniform(cluster.PlacementHash, slots, urls, nil)
	if err != nil {
		tb.Fatal(err)
	}
	nodes := make([]*testNode, n)
	for i, ln := range lns {
		reg := obs.NewRegistry()
		store, err := kvstore.Open(kvstore.Options{Shards: 2})
		if err != nil {
			tb.Fatal(err)
		}
		cs, err := cluster.NewState(urls[i], m, reg)
		if err != nil {
			tb.Fatal(err)
		}
		nodes[i] = serveNode(tb, ln, store, cs, reg, model)
	}
	return nodes, m
}

func nodeURLs(nodes []*testNode) []string {
	urls := make([]string, len(nodes))
	for i, nd := range nodes {
		urls[i] = nd.url
	}
	return urls
}
