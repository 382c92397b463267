package httpkv_test

import (
	"context"
	"errors"
	"net"
	"strconv"
	"testing"

	"ycsbt/internal/httpkv"
	"ycsbt/internal/kvstore"
	"ycsbt/internal/obs"
	"ycsbt/internal/txn"
)

func newRemote(t *testing.T, name string) (*httpkv.RemoteStore, *kvstore.Store) {
	t.Helper()
	store := kvstore.OpenMemory()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	node := httpkv.ServeNode(store, ln, nil, httpkv.NodeOptions{})
	t.Cleanup(func() {
		node.Shutdown(context.Background())
		store.Close()
	})
	rs, err := httpkv.NewRemoteStore(name, "http://"+ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	return rs, store
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
// cluster answers every record, and so a transaction manager's Vacuum,
// which scans its TSR table that way, runs against a plain node with a
// frame listener as it does over REST. Unbounded frame scans used to be
// refused with 400 "bad count" outside cluster mode.
func TestRemoteStoreUnboundedScanOverFrames(t *testing.T) {
	ctx := context.Background()
	store := kvstore.OpenMemory()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wireLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	node := httpkv.ServeNode(store, ln, wireLn, httpkv.NodeOptions{Metrics: reg})
	t.Cleanup(func() {
		node.Shutdown(context.Background())
		store.Close()
	})
	r, err := httpkv.NewRemoteStore("r", "http://"+ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b", "c"} {
		if _, err := r.Put(ctx, "t", k, map[string][]byte{"f": []byte(k)}, kvstore.MustNotExist); err != nil {
			t.Fatal(err)
		}
	}
	kvs, err := r.Scan(ctx, "t", "", -1)
	if err != nil || len(kvs) != 3 {
		t.Fatalf("Scan(-1) = %d records, %v; want 3", len(kvs), err)
	}
	if reg.Counter("kvwire_scan_chunks_total").Value() == 0 {
		t.Fatal("the scan did not ride frames")
	}
	m, err := txn.NewManager(txn.Options{}, r)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Vacuum(ctx); err != nil {
		t.Fatalf("Vacuum: %v", err)
	}
}

func TestTransactionAcrossRemoteStores(t *testing.T) {
	// A single client-coordinated transaction spanning two separate
	// HTTP servers — the paper's heterogeneous multi-region scenario,
	// over actual network sockets.
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
	if err := m.Flush(ctx); err != nil {
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
