package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"ycsbt/internal/client"
	"ycsbt/internal/db"
	"ycsbt/internal/kvstore"
	"ycsbt/internal/kvwire"
	"ycsbt/internal/measurement"
	"ycsbt/internal/workload"
)

// The ladder: single-goroutine, fixed-count, warmed cells in which
// each rung adds one layer to the one below, run against the stack the
// workload just used. Subtracting adjacent rungs gives a per-layer
// cost; every cell also reports allocations per operation.

const table = "usertable"

// ladderNames lists every cell by workload, so a run can report the
// cells of other workloads as 0 (= not measured on this stack).
var ladderNames = map[shape][]string{
	shapeEmbedded:    {"kvstore_get", "kvstore_put", "kvstore_batchapply16", "txn_local_read", "txn_local_rmw", "driver_noop"},
	shapeFleetTxn:    {"core_get", "core_batch16", "wire_get", "wire_batch16", "router_get", "txn_fleet_read", "txn_fleet_rmw"},
	shapeSingleHTTP:  {"http_get", "client_get", "kvstore_put_wal", "kvstore_put_fsync"},
	shapeFleetRouter: {"kvstore_scan100", "wire_scan100", "router_scan100"},
}

type ladder struct {
	out   map[string]float64
	scale int64
}

// cell times n calls of fn after n/10 warm-up calls.
func (l *ladder) cell(name string, n int, fn func(i int) error) error {
	n = int(int64(n) / l.scale)
	if n < 20 {
		n = 20
	}
	for i := 0; i < n/10+1; i++ {
		if err := fn(i); err != nil {
			return fmt.Errorf("%s (warm-up): %w", name, err)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&m1)
	l.out["ladder."+name+"_ns"] = float64(elapsed.Nanoseconds()) / float64(n)
	l.out["ladder."+name+"_allocs"] = float64(m1.Mallocs-m0.Mallocs) / float64(n)
	return nil
}

// someKeys returns up to n loaded keys of eng.
func someKeys(eng kvstore.Engine, n int) ([]string, error) {
	kvs, err := eng.Scan(table, "", n)
	if err != nil {
		return nil, err
	}
	if len(kvs) < 32 {
		return nil, fmt.Errorf("only %d keys loaded", len(kvs))
	}
	keys := make([]string, len(kvs))
	for i, kv := range kvs {
		keys[i] = kv.Key
	}
	return keys, nil
}

func payload(fields, length int) map[string][]byte {
	out := make(map[string][]byte, fields)
	for i := 0; i < fields; i++ {
		b := make([]byte, length)
		for j := range b {
			b[j] = 'a' + byte((i+j)%26)
		}
		out["field"+strconv.Itoa(i)] = b
	}
	return out
}

// runLadder runs the cells of the stack's workload.
func runLadder(st *stack, cfg *trialCfg) (map[string]float64, error) {
	l := &ladder{out: map[string]float64{}, scale: cfg.scale}
	var err error
	switch st.spec.shape {
	case shapeEmbedded:
		err = l.embedded(st, cfg)
	case shapeFleetTxn:
		err = l.fleetTxn(st)
	case shapeSingleHTTP:
		err = l.singleHTTP(st, cfg)
	case shapeFleetRouter:
		err = l.fleetRouter(st)
	}
	return l.out, err
}

// txnRead and txnRMW are one CEW read and one CEW transfer through the
// binding, demarcated the way the client does it.
func txnRead(ctx context.Context, tdb db.TransactionalDB, key string) error {
	tctx, err := tdb.Start(ctx)
	if err != nil {
		return err
	}
	if _, err := db.TxView(tdb, tctx).Read(ctx, table, key, nil); err != nil {
		tdb.Abort(ctx, tctx)
		return err
	}
	return tdb.Commit(ctx, tctx)
}

func txnRMW(ctx context.Context, tdb db.TransactionalDB, from, to string) error {
	tctx, err := tdb.Start(ctx)
	if err != nil {
		return err
	}
	view := db.TxView(tdb, tctx)
	move := func() error {
		a, err := view.Read(ctx, table, from, nil)
		if err != nil {
			return err
		}
		b, err := view.Read(ctx, table, to, nil)
		if err != nil {
			return err
		}
		// A real transfer: the closed economy's total is untouched, so
		// the trial's on-disk cash count still holds after the cells.
		x, err := strconv.ParseInt(string(a["field0"]), 10, 64)
		if err != nil {
			return err
		}
		y, err := strconv.ParseInt(string(b["field0"]), 10, 64)
		if err != nil {
			return err
		}
		if err := view.Update(ctx, table, from, db.Record{"field0": []byte(strconv.FormatInt(x-1, 10))}); err != nil {
			return err
		}
		return view.Update(ctx, table, to, db.Record{"field0": []byte(strconv.FormatInt(y+1, 10))})
	}
	if err := move(); err != nil {
		tdb.Abort(ctx, tctx)
		return err
	}
	return tdb.Commit(ctx, tctx)
}

func (l *ladder) txnCells(st *stack, keys []string, prefix string, reads, rmws int) error {
	ctx := context.Background()
	tdb := db.Transactional(st.binding)
	if err := l.cell(prefix+"_read", reads, func(i int) error {
		return txnRead(ctx, tdb, keys[i%len(keys)])
	}); err != nil {
		return err
	}
	return l.cell(prefix+"_rmw", rmws, func(i int) error {
		return txnRMW(ctx, tdb, keys[i%len(keys)], keys[(i+7)%len(keys)])
	})
}

func (l *ladder) embedded(st *stack, cfg *trialCfg) error {
	keys, err := someKeys(st.local, 1024)
	if err != nil {
		return err
	}
	if err := l.cell("kvstore_get", 400000, func(i int) error {
		_, err := st.local.Get(table, keys[i%len(keys)])
		return err
	}); err != nil {
		return err
	}
	fresh, err := openStore("", nil)
	if err != nil {
		return err
	}
	defer fresh.Close()
	rec := payload(1, 100)
	if err := l.cell("kvstore_put", 100000, func(i int) error {
		_, err := fresh.Put(table, keys[i%len(keys)], rec)
		return err
	}); err != nil {
		return err
	}
	muts := make([]kvstore.Mutation, 16)
	if err := l.cell("kvstore_batchapply16", 10000, func(i int) error {
		for j := range muts {
			muts[j] = kvstore.Mutation{Op: kvstore.MutPut, Table: table, Key: keys[(i*16+j)%len(keys)], Fields: rec, Expect: kvstore.AnyVersion}
		}
		for _, r := range fresh.BatchApply(muts) {
			if r.Err != nil {
				return r.Err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := l.txnCells(st, keys, "txn_local", 100000, 20000); err != nil {
		return err
	}
	return l.driverNoop(cfg)
}

// driverNoop runs the CEW through the real client against the map
// backed "memory" binding: what the driver, the workload and the
// middleware chain cost when the store costs next to nothing.
func (l *ladder) driverNoop(cfg *trialCfg) error {
	ctx := context.Background()
	n := 200000 / cfg.scale
	props := cfg.sp.properties(cfg.seed, 10000/cfg.scale+1000, 1)
	reg := measurement.NewRegistry(0)
	w, err := workload.New("closedeconomy")
	if err != nil {
		return err
	}
	if err := w.Init(props, reg); err != nil {
		return err
	}
	c, err := client.New(client.Config{
		Threads: 1, RecordCount: props.GetInt64("recordcount", 0), OperationCount: n,
		SkipValidation: true, Middleware: "metered", Props: props,
	}, w, db.NewMemory(), reg)
	if err != nil {
		return err
	}
	if _, err := c.Load(ctx); err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res, err := c.Run(ctx)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	l.out["ladder.driver_noop_ns"] = float64(res.RunTime.Nanoseconds()) / float64(res.Operations)
	l.out["ladder.driver_noop_allocs"] = float64(m1.Mallocs-m0.Mallocs) / float64(res.Operations)
	return nil
}

func getOps(keys []string, at, n int) []kvwire.Op {
	ops := make([]kvwire.Op, n)
	for j := range ops {
		ops[j] = kvwire.Op{Kind: kvwire.KindGet, Table: table, Key: keys[(at+j)%len(keys)]}
	}
	return ops
}

func allOK(res []kvwire.Result) error {
	for _, r := range res {
		if r.Status != http.StatusOK {
			return fmt.Errorf("wire result status %d: %s", r.Status, r.Err)
		}
	}
	return nil
}

func (l *ladder) fleetTxn(st *stack) error {
	ctx := context.Background()
	nd := st.nodes[0]
	owned, err := someKeys(nd.store, 1024) // a cluster node holds only keys it owns
	if err != nil {
		return err
	}
	for _, c := range []struct {
		name  string
		n, sz int
	}{{"core_get", 200000, 1}, {"core_batch16", 40000, 16}} {
		if err := l.cell(c.name, c.n, func(i int) error {
			return allOK(nd.core.ExecBatch(ctx, getOps(owned, i*c.sz, c.sz)))
		}); err != nil {
			return err
		}
	}
	ep := kvwire.NewEndpoint(nd.wireAddr, 0)
	defer ep.Close()
	for _, c := range []struct {
		name  string
		n, sz int
	}{{"wire_get", 20000, 1}, {"wire_batch16", 10000, 16}} {
		if err := l.cell(c.name, c.n, func(i int) error {
			res, err := ep.Exec(ctx, getOps(owned, i*c.sz, c.sz))
			if err != nil {
				return err
			}
			return allOK(res)
		}); err != nil {
			return err
		}
	}
	if err := l.cell("router_get", 20000, func(i int) error {
		_, err := st.router.Read(ctx, table, owned[i%len(owned)], nil)
		return err
	}); err != nil {
		return err
	}
	return l.txnCells(st, owned, "txn_fleet", 20000, 3000)
}

func (l *ladder) singleHTTP(st *stack, cfg *trialCfg) error {
	ctx := context.Background()
	nd := st.nodes[0]
	keys, err := someKeys(nd.store, 1024)
	if err != nil {
		return err
	}
	hc := &http.Client{Timeout: 10 * time.Second}
	defer hc.CloseIdleConnections()
	if err := l.cell("http_get", 10000, func(i int) error {
		resp, err := hc.Get(nd.url + "/v1/" + table + "/" + url.PathEscape(keys[i%len(keys)]))
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("GET status %d", resp.StatusCode)
		}
		return err
	}); err != nil {
		return err
	}
	if err := l.cell("client_get", 10000, func(i int) error {
		_, err := st.binding.Read(ctx, table, keys[i%len(keys)], nil)
		return err
	}); err != nil {
		return err
	}
	rec := payload(10, 100)
	for _, c := range []struct {
		name string
		sync bool
		n    int
	}{
		{"kvstore_put_wal", false, 50000},
		// Every write waits for its own fsync. The number is this
		// sandbox's disk, not a claim about any device.
		{"kvstore_put_fsync", true, 1000},
	} {
		s, err := kvstore.Open(kvstore.Options{
			Path: filepath.Join(cfg.workDir, "ladder-"+c.name), Shards: kvstore.DefaultShards, SyncWrites: c.sync,
		})
		if err != nil {
			return err
		}
		err = l.cell(c.name, c.n, func(i int) error {
			_, err := s.Put(table, keys[i%len(keys)], rec)
			return err
		})
		s.Close()
		os.RemoveAll(filepath.Join(cfg.workDir, "ladder-"+c.name))
		if err != nil {
			return err
		}
	}
	return nil
}

func (l *ladder) fleetRouter(st *stack) error {
	ctx := context.Background()
	nd := st.nodes[0]
	owned, err := someKeys(nd.store, 1024)
	if err != nil {
		return err
	}
	if err := l.cell("kvstore_scan100", 20000, func(i int) error {
		_, err := nd.store.Scan(table, owned[i%len(owned)], 100)
		return err
	}); err != nil {
		return err
	}
	ep := kvwire.NewEndpoint(nd.wireAddr, 0)
	defer ep.Close()
	if err := l.cell("wire_scan100", 3000, func(i int) error {
		s, err := ep.Scan(ctx, &kvwire.ScanRequest{Table: table, Start: owned[i%len(owned)], Count: 100, Slot: -1})
		if err != nil {
			return err
		}
		for s.Next() {
		}
		err = s.Err()
		s.Close()
		return err
	}); err != nil {
		return err
	}
	return l.cell("router_scan100", 500, func(i int) error {
		_, err := st.router.Scan(ctx, table, owned[i%len(owned)], 100, nil)
		return err
	})
}
