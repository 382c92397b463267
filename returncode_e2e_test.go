package ycsbt_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ycsbt/internal/cloudsim"
	"ycsbt/internal/cluster"
	"ycsbt/internal/db"
	"ycsbt/internal/httpkv"
	"ycsbt/internal/kvstore"
	"ycsbt/internal/oracle"
	"ycsbt/internal/percolator"
	"ycsbt/internal/properties"
	"ycsbt/internal/txn"
)

// outcome is one operation whose error the measurement layer files
// under a Listing-3 return code.
type outcome struct {
	name string
	run  func(ctx context.Context) error
	want int
}

// checkOutcomes runs each outcome and compares db.ReturnCode of its
// error with the code the outcome must report.
func checkOutcomes(t *testing.T, outcomes []outcome) {
	t.Helper()
	for _, o := range outcomes {
		err := o.run(context.Background())
		if got := db.ReturnCode(err); got != o.want {
			t.Errorf("%s: ReturnCode(%v) = %d, want %d", o.name, err, got, o.want)
		}
	}
}

// expired is a context whose deadline has passed.
func expired() (context.Context, context.CancelFunc) {
	return context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
}

// rcRec is a one-field record.
func rcRec(v string) db.Record { return db.Record{"f": []byte(v)} }

// plainOutcomes are the misses every non-transactional binding reports
// alike; "k" must hold a record and "missing" none. Over rawhttp with
// the wire on, each of them rides a request frame.
func plainOutcomes(b db.DB) []outcome {
	return []outcome{
		{"read hit", func(ctx context.Context) error { _, err := b.Read(ctx, "t", "k", nil); return err }, db.CodeOK},
		{"read miss", func(ctx context.Context) error { _, err := b.Read(ctx, "t", "missing", nil); return err }, db.CodeNotFound},
		{"update miss", func(ctx context.Context) error { return b.Update(ctx, "t", "missing", rcRec("v")) }, db.CodeNotFound},
		{"delete miss", func(ctx context.Context) error { return b.Delete(ctx, "t", "missing") }, db.CodeNotFound},
	}
}

// asOfOutcomes are the reads of a binding pinned to a snapshot taken
// before "k" was overwritten, with nothing keeping the old version.
func asOfOutcomes(read func(context.Context) error) []outcome {
	return []outcome{
		{"as-of read below the horizon", read, db.CodeUnknown},
	}
}

// txnOutcomes are the outcomes every transactional binding reports:
// misses, a create-only conflict (txnkv's insert) or a blind put
// (percolator's), and a lost race between two transactions. insertCode
// is what an insert of an existing key reports.
func txnOutcomes(b db.DB, insertCode int) []outcome {
	tb := b.(db.TransactionalDB)
	cb := b.(db.ContextualDB)
	return []outcome{
		{"read hit", func(ctx context.Context) error { _, err := b.Read(ctx, "t", "k", nil); return err }, db.CodeOK},
		{"read miss", func(ctx context.Context) error { _, err := b.Read(ctx, "t", "missing", nil); return err }, db.CodeNotFound},
		{"update miss", func(ctx context.Context) error { return b.Update(ctx, "t", "missing", rcRec("v")) }, db.CodeNotFound},
		{"insert of an existing key", func(ctx context.Context) error { return b.Insert(ctx, "t", "k", rcRec("v")) }, insertCode},
		{"read miss in a transaction", func(ctx context.Context) error {
			tctx, err := tb.Start(ctx)
			if err != nil {
				return err
			}
			defer tb.Abort(ctx, tctx)
			_, err = cb.WithTx(tctx).Read(ctx, "t", "missing", nil)
			return err
		}, db.CodeNotFound},
		{"commit that lost a race", func(ctx context.Context) error {
			tctx, err := tb.Start(ctx)
			if err != nil {
				return err
			}
			view := cb.WithTx(tctx)
			if _, err := view.Read(ctx, "t", "k", nil); err != nil {
				return err
			}
			if err := b.Update(ctx, "t", "k", rcRec("winner")); err != nil {
				return err
			}
			if err := view.Update(ctx, "t", "k", rcRec("loser")); err != nil {
				tb.Abort(ctx, tctx)
				return err
			}
			return tb.Commit(ctx, tctx)
		}, db.CodeAborted},
	}
}

// deadlineOutcome is a read issued after its deadline passed.
func deadlineOutcome(b db.DB) outcome {
	return outcome{"read past its deadline", func(context.Context) error {
		ctx, cancel := expired()
		defer cancel()
		_, err := b.Read(ctx, "t", "k", nil)
		return err
	}, db.CodeCancelled}
}

// TestReturnCodeEveryBinding pins the Listing-3 return code of every
// outcome each binding can report: what a run files as a miss, a
// conflict, an abort, a throttle, an unsupported op, a cancellation or
// an unknown error must not depend on which binding, transport or
// transaction library produced it. A below-horizon as-of read is not a
// miss: the record may well have existed at that timestamp.
func TestReturnCodeEveryBinding(t *testing.T) {
	ctx := context.Background()
	seed := func(t *testing.T, b db.DB) {
		t.Helper()
		if err := b.Insert(ctx, "t", "k", rcRec("v1")); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("kvstore", func(t *testing.T) {
		s := kvstore.OpenMemoryShards(4)
		defer s.Close()
		b := kvstore.NewBinding(s)
		if err := b.Init(properties.New()); err != nil {
			t.Fatal(err)
		}
		seed(t, b)
		checkOutcomes(t, plainOutcomes(b))

		ts := s.SnapshotTS()
		if _, err := s.Put("t", "k", rcRec("v2")); err != nil {
			t.Fatal(err)
		}
		checkOutcomes(t, asOfOutcomes(func(context.Context) error { _, err := s.GetAsOf("t", "k", ts); return err }))
	})

	t.Run("cloudsim", func(t *testing.T) {
		s := cloudsim.New(cloudsim.Config{ReadLatency: 100 * time.Microsecond})
		defer s.Close()
		b := cloudsim.NewBinding(s)
		seed(t, b)
		checkOutcomes(t, plainOutcomes(b))
		checkOutcomes(t, []outcome{deadlineOutcome(b)})
	})

	for _, wire := range []string{httpkv.WireModeOff, httpkv.WireModeAuto} {
		t.Run("rawhttp wire="+wire, func(t *testing.T) {
			store, url := startKVServer(t, 0)
			open := func(t *testing.T, props map[string]string) db.DB {
				t.Helper()
				c := httpkv.NewClient(url, nil)
				props["rawhttp.wire"] = wire
				if err := c.Init(properties.FromMap(props)); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { c.Cleanup() })
				return c
			}
			b := open(t, map[string]string{})
			seed(t, b)
			checkOutcomes(t, plainOutcomes(b))
			checkOutcomes(t, []outcome{deadlineOutcome(b)})

			// The store's test-and-set: a put conditional on a version "k"
			// has moved past, and a create-only put of "k".
			stale, err := store.Put("t", "k", rcRec("v1"))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := store.Put("t", "k", rcRec("v1")); err != nil {
				t.Fatal(err)
			}
			cas := b.(*httpkv.Client)
			checkOutcomes(t, []outcome{
				{"put at a stale version", func(ctx context.Context) error {
					return cas.PutIfVersion(ctx, "t", "k", rcRec("v"), stale)
				}, db.CodeConflict},
				{"create-only put of an existing key", func(ctx context.Context) error {
					return cas.PutIfVersion(ctx, "t", "k", rcRec("v"), kvstore.MustNotExist)
				}, db.CodeConflict},
			})
		})
	}

	t.Run("rawhttp throttled", func(t *testing.T) {
		srv := httptest.NewServer(throttlingHandler())
		defer srv.Close()
		c := httpkv.NewClient(srv.URL, nil)
		if err := c.Init(properties.FromMap(map[string]string{"rawhttp.wire": httpkv.WireModeOff})); err != nil {
			t.Fatal(err)
		}
		defer c.Cleanup()
		checkOutcomes(t, []outcome{
			{"read throttled", func(ctx context.Context) error { _, err := c.Read(ctx, "t", "k", nil); return err }, db.CodeThrottled},
			{"update throttled", func(ctx context.Context) error { return c.Update(ctx, "t", "k", rcRec("v")) }, db.CodeThrottled},
		})
	})

	// The transaction stores over the network, each read through a
	// txnkv binding of its own.
	txnkvOver := func(t *testing.T, s txn.Store) (*txn.Manager, db.DB) {
		t.Helper()
		m, err := txn.NewManager(txn.Options{}, s)
		if err != nil {
			t.Fatal(err)
		}
		b := txn.NewBinding(m)
		t.Cleanup(func() { b.Cleanup() })
		return m, b
	}

	// A one-node fleet: the subtest keeps the name of the single-node
	// adapter it ran over before the fleet store replaced it.
	t.Run("txnkv over RemoteStore", func(t *testing.T) {
		nodes, _ := startFleet(t, 1, 8, nil)
		_, b := txnkvOver(t, httpkv.NewRouterStore("cluster", openRouter(t, nodeURLs(nodes))))
		seed(t, b)
		checkOutcomes(t, txnOutcomes(b, db.CodeAborted))
		checkOutcomes(t, []outcome{deadlineOutcome(b)})
	})

	// A one-node fleet whose node sheds: its one admission slot is held
	// by a read the engine has not answered yet.
	t.Run("txnkv over throttled RemoteStore", func(t *testing.T) {
		ln := listenLoopback(t)
		url := "http://" + ln.Addr().String()
		m, err := cluster.NewUniform(cluster.PlacementHash, 8, []string{url}, nil)
		if err != nil {
			t.Fatal(err)
		}
		cs, err := cluster.NewState(url, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		eng := &heldEngine{Engine: kvstore.OpenMemory(), entered: make(chan struct{}), release: make(chan struct{})}
		t.Cleanup(func() { eng.Close() })
		nd := httpkv.ServeNode(eng, ln, listenLoopback(t), httpkv.NodeOptions{Cluster: cs, MaxInflight: 1})
		t.Cleanup(func() { shutdown(nd) })
		store := httpkv.NewRouterStore("cluster", openRouter(t, []string{url}))
		_, b := txnkvOver(t, store)
		held := make(chan error, 1)
		go func() { _, err := store.Get(ctx, "t", "held"); held <- err }()
		<-eng.entered
		checkOutcomes(t, []outcome{
			// A deadline inside the server's retry hint: the client gives
			// up at the first shed instead of sleeping through its retries.
			{"read throttled", func(ctx context.Context) error {
				ctx, cancel := context.WithTimeout(ctx, 500*time.Millisecond)
				defer cancel()
				_, err := b.Read(ctx, "t", "k", nil)
				return err
			}, db.CodeThrottled},
		})
		close(eng.release)
		if err := <-held; !errors.Is(err, kvstore.ErrNotFound) {
			t.Fatalf("held read: %v, want ErrNotFound", err)
		}
	})

	t.Run("txnkv over RouterStore", func(t *testing.T) {
		nodes, _ := startFleet(t, 2, 16, nil)
		_, b := txnkvOver(t, httpkv.NewRouterStore("cluster", openRouter(t, nodeURLs(nodes))))
		seed(t, b)
		checkOutcomes(t, txnOutcomes(b, db.CodeAborted))
		checkOutcomes(t, []outcome{deadlineOutcome(b)})
	})

	t.Run("txnkv", func(t *testing.T) {
		s := kvstore.OpenMemory()
		defer s.Close()
		_, b := txnkvOver(t, txn.NewLocalStore("local", s))
		seed(t, b)
		checkOutcomes(t, txnOutcomes(b, db.CodeAborted))

		// A snapshot read of a version overwritten since the snapshot,
		// through a store whose snapshots pin nothing.
		m, b := txnkvOver(t, unpinnedStore{txn.NewLocalStore("unpinned", s), s})
		if err := b.Insert(ctx, "t", "other", rcRec("v1")); err != nil {
			t.Fatal(err)
		}
		ro, _ := m.BeginReadOnly(ctx)
		defer ro.Abort(ctx)
		if _, err := ro.Read(ctx, "", "t", "other"); err != nil { // draws the snapshot
			t.Fatal(err)
		}
		if err := b.Update(ctx, "t", "k", rcRec("v3")); err != nil {
			t.Fatal(err)
		}
		checkOutcomes(t, []outcome{{"snapshot read below the horizon", func(ctx context.Context) error {
			_, err := ro.Read(ctx, "", "t", "k")
			return err
		}, db.CodeUnknown}})
	})

	t.Run("percolator", func(t *testing.T) {
		s := kvstore.OpenMemory()
		defer s.Close()
		cs := &crashingStore{Store: txn.NewLocalStore("local", s)}
		m, err := percolator.NewManager(percolator.Options{ReadLockRetries: 1, ReadLockBackoff: time.Millisecond}, cs, oracle.NewLocal())
		if err != nil {
			t.Fatal(err)
		}
		b := percolator.NewBinding(m)
		defer b.Cleanup()
		seed(t, b)
		checkOutcomes(t, txnOutcomes(b, db.CodeOK))

		// A writer that dies after its prewrite leaves its lock on "k";
		// a reader meets it before the lock's TTL lets anyone resolve it.
		tctx, err := b.Start(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.WithTx(tctx).Update(ctx, "t", "k", rcRec("crashed")); err != nil {
			t.Fatal(err)
		}
		cs.dieAfterPuts.Store(1)
		err = b.Commit(ctx, tctx)
		cs.dieAfterPuts.Store(0)
		if got := db.ReturnCode(err); got != db.CodeAborted {
			t.Errorf("commit of a writer that died after its prewrite: ReturnCode(%v) = %d, want %d", err, got, db.CodeAborted)
		}
		checkOutcomes(t, []outcome{{"read of a locked record", func(ctx context.Context) error {
			tctx, err := b.Start(ctx)
			if err != nil {
				return err
			}
			defer b.Abort(ctx, tctx)
			_, err = b.WithTx(tctx).Read(ctx, "t", "k", nil)
			return err
		}, db.CodeAborted}})
	})
}

// openRouter opens a router over the fleet at urls, closed when the
// test ends.
func openRouter(t *testing.T, urls []string) *httpkv.Router {
	t.Helper()
	r, err := httpkv.NewRouter(urls, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Cleanup() })
	return r
}

// heldEngine holds its first read, single or batched, until release is
// closed, so the read keeps its node's admission slot.
type heldEngine struct {
	kvstore.Engine
	entered, release chan struct{}
	once             sync.Once
}

func (e *heldEngine) hold() {
	e.once.Do(func() {
		close(e.entered)
		<-e.release
	})
}

func (e *heldEngine) Get(table, key string) (*kvstore.VersionedRecord, error) {
	e.hold()
	return e.Engine.Get(table, key)
}

func (e *heldEngine) BatchGet(reqs []kvstore.GetReq) []kvstore.GetResult {
	e.hold()
	return e.Engine.BatchGet(reqs)
}

// unpinnedStore is a LocalStore whose snapshots pin nothing and which
// the manager's snapshot watermark does not reach, so a version
// overwritten since a snapshot is reclaimed under it.
type unpinnedStore struct {
	txn.Store
	inner *kvstore.Store
}

func (u unpinnedStore) Snapshot(context.Context) (int64, func(), error) {
	return u.inner.SnapshotTS(), func() {}, nil
}

func (u unpinnedStore) GetAsOf(_ context.Context, table, key string, ts int64) (*kvstore.VersionedRecord, error) {
	return u.inner.GetAsOf(table, key, ts)
}

func (u unpinnedStore) ScanAsOf(_ context.Context, table, startKey string, count int, ts int64) ([]kvstore.VersionedKV, error) {
	return u.inner.ScanAsOf(table, startKey, count, ts)
}

// throttlingHandler answers every data request 429 and the health
// probe 200 with no frame listener, so a client settles on REST.
func throttlingHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		http.Error(w, "throttled", http.StatusTooManyRequests)
	})
}

// crashingStore is a transaction store whose client dies mid-commit:
// once armed with n, the n puts after that land and every store call
// after them fails, as if the process had gone.
type crashingStore struct {
	txn.Store
	dieAfterPuts atomic.Int32
	puts         atomic.Int32
}

var errClientDied = errors.New("client died")

func (s *crashingStore) dead() bool {
	n := s.dieAfterPuts.Load()
	return n > 0 && s.puts.Load() >= n
}

func (s *crashingStore) Get(ctx context.Context, table, key string) (*kvstore.VersionedRecord, error) {
	if s.dead() {
		return nil, errClientDied
	}
	return s.Store.Get(ctx, table, key)
}

func (s *crashingStore) Put(ctx context.Context, table, key string, fields map[string][]byte, expect uint64) (uint64, error) {
	if s.dead() {
		return 0, errClientDied
	}
	if s.dieAfterPuts.Load() > 0 {
		s.puts.Add(1)
	}
	return s.Store.Put(ctx, table, key, fields, expect)
}

func (s *crashingStore) Delete(ctx context.Context, table, key string, expect uint64) error {
	if s.dead() {
		return errClientDied
	}
	return s.Store.Delete(ctx, table, key, expect)
}
