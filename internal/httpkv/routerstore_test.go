package httpkv_test

import (
	"context"
	"errors"
	"net"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"ycsbt/internal/cluster"
	"ycsbt/internal/httpkv"
	"ycsbt/internal/kvstore"
	"ycsbt/internal/kvwire"
	"ycsbt/internal/obs"
	"ycsbt/internal/txn"
)

// These tests build transaction managers, and txn imports httpkv, so
// they live outside the package and boot their nodes through ServeNode.

// serve boots a node over a fresh store with both listeners; cs nil
// serves it outside any cluster. The node and the store are closed when
// the test ends.
func serve(t *testing.T, httpLn net.Listener, cs *cluster.State, reg *obs.Registry) (*kvstore.Store, string) {
	t.Helper()
	store := kvstore.OpenMemory()
	wireLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	node := httpkv.ServeNode(store, httpLn, wireLn, httpkv.NodeOptions{Cluster: cs, Metrics: reg})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		node.Shutdown(ctx)
		store.Close()
	})
	return store, wireLn.Addr().String()
}

// newRemote boots a one-node fleet and returns it as a named
// transaction store, with the node's engine for the test to inspect.
// The router is closed when the test ends.
func newRemote(t *testing.T, name string) (*httpkv.RouterStore, *kvstore.Store) {
	t.Helper()
	s, engines := newFleet(t, name, 1)
	return s, engines[0]
}

// newFleet boots n cluster-mode nodes under one hash map of 8 slots and
// returns them as a named transaction store routed by that map, with
// each node's engine. The router is closed when the test ends.
func newFleet(t *testing.T, name string, n int) (*httpkv.RouterStore, []*kvstore.Store) {
	t.Helper()
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], urls[i] = ln, "http://"+ln.Addr().String()
	}
	m, err := cluster.NewUniform(cluster.PlacementHash, 8, urls, nil)
	if err != nil {
		t.Fatal(err)
	}
	engines := make([]*kvstore.Store, n)
	for i, ln := range lns {
		cs, err := cluster.NewState(urls[i], m, nil)
		if err != nil {
			t.Fatal(err)
		}
		engines[i], _ = serve(t, ln, cs, nil)
	}
	r, err := httpkv.NewRouter(urls, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Cleanup() })
	return httpkv.NewRouterStore(name, r), engines
}

func TestRemoteStoreVersionedOps(t *testing.T) {
	ctx := context.Background()
	r, _ := newRemote(t, "remote")
	if r.Name() != "remote" {
		t.Errorf("Name = %q", r.Name())
	}
	v, err := r.Put(ctx, "t", "k", map[string][]byte{"f": []byte("a")}, kvstore.MustNotExist)
	if err != nil || v != 1 {
		t.Fatalf("create = %d, %v", v, err)
	}
	if _, err := r.Put(ctx, "t", "k", map[string][]byte{"f": []byte("b")}, kvstore.MustNotExist); !errors.Is(err, kvstore.ErrVersionMismatch) {
		t.Errorf("create-only on an existing key = %v", err)
	}
	if _, err := r.Put(ctx, "t", "k", map[string][]byte{"f": []byte("b")}, 99); !errors.Is(err, kvstore.ErrVersionMismatch) {
		t.Errorf("stale CAS = %v", err)
	}
	v, err = r.Put(ctx, "t", "k", map[string][]byte{"f": []byte("b")}, 1)
	if err != nil || v != 2 {
		t.Fatalf("CAS = %d, %v", v, err)
	}
	rec, err := r.Get(ctx, "t", "k")
	if err != nil || rec.Version != 2 || string(rec.Field("f")) != "b" {
		t.Fatalf("Get = %+v, %v", rec, err)
	}
	kvs, err := r.Scan(ctx, "t", "", 10)
	if err != nil || len(kvs) != 1 || kvs[0].Record.Version != 2 {
		t.Fatalf("Scan = %+v, %v", kvs, err)
	}
	if err := r.Delete(ctx, "t", "k", 1); !errors.Is(err, kvstore.ErrVersionMismatch) {
		t.Errorf("stale delete = %v", err)
	}
	if err := r.Delete(ctx, "t", "k", 2); err != nil {
		t.Errorf("delete = %v", err)
	}
	if _, err := r.Get(ctx, "t", "k"); !errors.Is(err, kvstore.ErrNotFound) {
		t.Errorf("Get deleted = %v", err)
	}
}

// A scan for every record (count -1) over frames on a node outside a
// cluster answers every record, as a transaction manager's Vacuum,
// which scans its TSR table that way, needs. Unbounded frame scans used
// to be refused with 400 "bad count" outside cluster mode.
func TestRemoteStoreUnboundedScanOverFrames(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	store, wireAddr := serve(t, ln, nil, reg)
	for _, k := range []string{"a", "b", "c"} {
		if _, err := store.Put("t", k, map[string][]byte{"f": []byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	ep := kvwire.NewEndpoint(wireAddr, 1)
	t.Cleanup(func() { ep.Close() })
	s, err := ep.Scan(context.Background(), &kvwire.ScanRequest{Table: "t", Count: -1, Slot: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	n := 0
	for s.Next() {
		n++
	}
	if err := s.Err(); err != nil || n != 3 {
		t.Fatalf("Scan(-1) = %d records, %v; want 3", n, err)
	}
	if reg.Counter("kvwire_scan_chunks_total").Value() == 0 {
		t.Fatal("the scan did not ride frames")
	}
}

func TestTransactionAcrossRemoteStores(t *testing.T) {
	// A single client-coordinated transaction spanning two separate
	// fleets — the paper's heterogeneous multi-region scenario, over
	// actual network sockets.
	ctx := context.Background()
	east, eastInner := newRemote(t, "east")
	west, westInner := newRemote(t, "west")

	m, err := txn.NewManager(txn.Options{}, east, west)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunInTxn(ctx, 0, func(tx *txn.Txn) error {
		if err := tx.Insert("east", "acct", "a", map[string][]byte{"bal": []byte("100")}); err != nil {
			return err
		}
		return tx.Insert("west", "acct", "b", map[string][]byte{"bal": []byte("100")})
	}); err != nil {
		t.Fatal(err)
	}
	// Cross-server transfer.
	if err := m.RunInTxn(ctx, 3, func(tx *txn.Txn) error {
		fa, err := tx.Read(ctx, "east", "acct", "a")
		if err != nil {
			return err
		}
		fb, err := tx.Read(ctx, "west", "acct", "b")
		if err != nil {
			return err
		}
		na, _ := strconv.Atoi(string(fa["bal"]))
		nb, _ := strconv.Atoi(string(fb["bal"]))
		if err := tx.Write("east", "acct", "a", map[string][]byte{"bal": []byte(strconv.Itoa(na - 25))}); err != nil {
			return err
		}
		return tx.Write("west", "acct", "b", map[string][]byte{"bal": []byte(strconv.Itoa(nb + 25))})
	}); err != nil {
		t.Fatal(err)
	}

	ra, err := eastInner.Get("acct", "a")
	if err != nil {
		t.Fatal(err)
	}
	rb, err := westInner.Get("acct", "b")
	if err != nil {
		t.Fatal(err)
	}
	if string(ra.Field("bal")) != "75" || string(rb.Field("bal")) != "125" {
		t.Errorf("cross-server transfer: a=%s b=%s", ra.Field("bal"), rb.Field("bal"))
	}
	// No transaction debris on either server.
	if eastInner.Len("_tsr")+westInner.Len("_tsr") != 0 {
		t.Error("TSR left behind on a remote store")
	}
	for _, rec := range []*kvstore.VersionedRecord{ra, rb} {
		for f := range rec.FieldMap() {
			if len(f) >= 5 && f[:5] == "_txn:" {
				t.Errorf("metadata %s left on committed record", f)
			}
		}
	}
}

func TestRemoteStoreConflictAcrossClients(t *testing.T) {
	// Two transaction managers on separate "client hosts" sharing the
	// same remote store: first committer wins, second aborts.
	ctx := context.Background()
	remote, inner := newRemote(t, "shared")
	m1, err := txn.NewManager(txn.Options{}, remote)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := txn.NewManager(txn.Options{}, remote)
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.RunInTxn(ctx, 0, func(tx *txn.Txn) error {
		return tx.Insert("shared", "t", "k", map[string][]byte{"n": []byte("0")})
	}); err != nil {
		t.Fatal(err)
	}
	t1, _ := m1.Begin(ctx)
	t2, _ := m2.Begin(ctx)
	if _, err := t1.Read(ctx, "shared", "t", "k"); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Read(ctx, "shared", "t", "k"); err != nil {
		t.Fatal(err)
	}
	t1.Write("shared", "t", "k", map[string][]byte{"n": []byte("1")})
	t2.Write("shared", "t", "k", map[string][]byte{"n": []byte("2")})
	if err := t1.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(ctx); !errors.Is(err, txn.ErrConflict) {
		t.Errorf("second committer across hosts = %v", err)
	}
	rec, _ := inner.Get("t", "k")
	if string(rec.Field("n")) != "1" {
		t.Errorf("final = %s", rec.Field("n"))
	}
}

// TestFleetCommitIsFinishedWhenItReturns: a manager over a RouterStore
// finishes each commit on its committer. Right after every Commit both
// records are clean on the nodes, no node holds a TSR and no goroutine
// has outlived the commit.
func TestFleetCommitIsFinishedWhenItReturns(t *testing.T) {
	ctx := context.Background()
	fleet, engines := newFleet(t, "fleet", 2)
	m, err := txn.NewManager(txn.Options{}, fleet)
	if err != nil {
		t.Fatal(err)
	}
	accts := []string{"a", "b"}
	if err := m.RunInTxn(ctx, 0, func(tx *txn.Txn) error {
		for _, k := range accts {
			if err := tx.Insert("", "acct", k, map[string][]byte{"bal": []byte("100")}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// finished fails unless every engine holds both accounts clean at
	// want and no TSR at all.
	finished := func(round int, want map[string]int) {
		t.Helper()
		for k, bal := range want {
			var rec *kvstore.VersionedRecord
			for _, eng := range engines {
				if r, err := eng.Get("acct", k); err == nil {
					rec = r
				}
			}
			if rec == nil {
				t.Fatalf("round %d: %s on no node", round, k)
			}
			for f := range rec.FieldMap() {
				if strings.HasPrefix(f, "_txn:") {
					t.Fatalf("round %d: %s still carries %s when Commit returned", round, k, f)
				}
			}
			if got := string(rec.Field("bal")); got != strconv.Itoa(bal) {
				t.Fatalf("round %d: %s = %s, want %d", round, k, got, bal)
			}
		}
		for i, eng := range engines {
			if n := eng.Len("_tsr"); n != 0 {
				t.Fatalf("round %d: node %d holds %d TSRs when Commit returned", round, i, n)
			}
		}
	}
	finished(0, map[string]int{"a": 100, "b": 100})
	baseline := runtime.NumGoroutine()
	for round := 1; round <= 20; round++ {
		if err := m.RunInTxn(ctx, 0, func(tx *txn.Txn) error {
			var bal [2]int
			for i, k := range accts {
				f, err := tx.Read(ctx, "", "acct", k)
				if err != nil {
					return err
				}
				if bal[i], err = strconv.Atoi(string(f["bal"])); err != nil {
					return err
				}
			}
			if err := tx.Write("", "acct", "a", map[string][]byte{"bal": []byte(strconv.Itoa(bal[0] - 1))}); err != nil {
				return err
			}
			return tx.Write("", "acct", "b", map[string][]byte{"bal": []byte(strconv.Itoa(bal[1] + 1))})
		}); err != nil {
			t.Fatal(err)
		}
		finished(round, map[string]int{"a": 100 - round, "b": 100 + round})
		if n := runtime.NumGoroutine(); n > baseline {
			t.Fatalf("round %d: %d goroutines after Commit returned, %d before", round, n, baseline)
		}
	}
}
