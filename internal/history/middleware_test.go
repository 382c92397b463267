package history

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"ycsbt/internal/db"
)

// versionedMemory is db.Memory speaking the version protocol a real
// binding speaks: every write installs the next version and reports
// it, every read reports the version it saw, and WithTx hands out an
// in-transaction view (the store itself).
type versionedMemory struct {
	*db.Memory
	ver  map[string]uint64
	next uint64
}

func newVersionedMemory() *versionedMemory {
	return &versionedMemory{Memory: db.NewMemory(), ver: make(map[string]uint64)}
}

func (m *versionedMemory) installed(ctx context.Context, key string, err error) error {
	if err == nil {
		m.next++
		m.ver[key] = m.next
		db.ReportWriteVersion(ctx, m.next)
	}
	return err
}

func (m *versionedMemory) Read(ctx context.Context, table, key string, fields []string) (db.Record, error) {
	rec, err := m.Memory.Read(ctx, table, key, fields)
	if err == nil {
		db.ReportReadVersion(ctx, m.ver[key])
	}
	return rec, err
}

func (m *versionedMemory) Insert(ctx context.Context, table, key string, values db.Record) error {
	return m.installed(ctx, key, m.Memory.Insert(ctx, table, key, values))
}

func (m *versionedMemory) Update(ctx context.Context, table, key string, values db.Record) error {
	return m.installed(ctx, key, m.Memory.Update(ctx, table, key, values))
}

func (m *versionedMemory) Delete(ctx context.Context, table, key string) error {
	return m.installed(ctx, key, m.Memory.Delete(ctx, table, key))
}

func (m *versionedMemory) WithTx(*db.TransactionContext) db.DB { return m }

// Each capture path, outside a transaction and inside one (on the
// middleware and on its in-transaction view), lands in the decoded
// history as the x records it should: ops with the versions the binding
// reported, in the writer's order (reads first), and the outcome.
func TestMiddlewareRecordsEveryPath(t *testing.T) {
	f := db.Record{"f": []byte("v")}
	type want struct {
		outcome string
		ops     []Op
	}
	w := func(key string, ver uint64) Op { return Op{Kind: OpWrite, Table: "u", Key: key, Ver: ver} }
	r := func(key string, ver uint64) Op { return Op{Kind: OpRead, Table: "u", Key: key, Ver: ver} }
	del := func(key string, ver uint64) Op { return Op{Kind: OpDelete, Table: "u", Key: key, Ver: ver} }
	for _, tc := range []struct {
		name string
		run  func(ctx context.Context, t *testing.T, d db.DB)
		want []want
	}{
		{
			name: "auto-commit ops, a failed one unrecorded",
			run: func(ctx context.Context, t *testing.T, d db.DB) {
				must(t, d.Insert(ctx, "u", "a", f))
				must(t, d.Update(ctx, "u", "a", f))
				if _, err := d.Read(ctx, "u", "a", nil); err != nil {
					t.Fatal(err)
				}
				if _, err := d.Read(ctx, "u", "missing", nil); err == nil {
					t.Fatal("read of a missing key succeeded")
				}
				must(t, d.Delete(ctx, "u", "a"))
			},
			want: []want{
				{OutcomeCommit, []Op{w("a", 1)}},
				{OutcomeCommit, []Op{w("a", 2)}},
				{OutcomeCommit, []Op{r("a", 2)}},
				{OutcomeCommit, []Op{del("a", 3)}},
			},
		},
		{
			name: "scans pass uncaptured",
			run: func(ctx context.Context, t *testing.T, d db.DB) {
				must(t, d.Insert(ctx, "u", "a", f))
				tdb := d.(db.TransactionalDB)
				tctx, err := tdb.Start(ctx)
				must(t, err)
				for _, s := range []db.DB{d, d.(db.ContextualDB).WithTx(tctx)} {
					if kvs, err := s.Scan(ctx, "u", "", 10, nil); err != nil || len(kvs) != 1 {
						t.Fatalf("scan = %v, %v", kvs, err)
					}
				}
				must(t, tdb.Commit(ctx, tctx))
			},
			want: []want{{OutcomeCommit, []Op{w("a", 1)}}}, // the empty transaction is not recorded
		},
		{
			name: "a transaction on the middleware and its view",
			run: func(ctx context.Context, t *testing.T, d db.DB) {
				tdb := d.(db.TransactionalDB)
				tctx, err := tdb.Start(ctx)
				must(t, err)
				view := d.(db.ContextualDB).WithTx(tctx)
				must(t, d.Insert(ctx, "u", "a", f))
				must(t, view.Insert(ctx, "u", "b", f))
				must(t, view.Update(ctx, "u", "b", f))
				if _, err := view.Read(ctx, "u", "a", nil); err != nil {
					t.Fatal(err)
				}
				must(t, view.Delete(ctx, "u", "a"))
				must(t, tdb.Commit(ctx, tctx))
			},
			want: []want{{OutcomeCommit, []Op{r("a", 1), w("a", 1), del("a", 4), w("b", 2), w("b", 3)}}},
		},
		{
			name: "an aborted transaction",
			run: func(ctx context.Context, t *testing.T, d db.DB) {
				tdb := d.(db.TransactionalDB)
				tctx, err := tdb.Start(ctx)
				must(t, err)
				view := d.(db.ContextualDB).WithTx(tctx)
				must(t, view.Insert(ctx, "u", "a", f))
				if _, err := view.Read(ctx, "u", "a", nil); err != nil {
					t.Fatal(err)
				}
				must(t, tdb.Abort(ctx, tctx))
				must(t, d.Insert(ctx, "u", "b", f)) // back to auto-commit
			},
			want: []want{
				{OutcomeAbort, []Op{r("a", 1), w("a", 1)}},
				{OutcomeCommit, []Op{w("b", 2)}},
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			sink := NewSink(&buf, SinkOptions{})
			tc.run(context.Background(), t, Middleware(sink, 3)(newVersionedMemory()))
			must(t, sink.Close())
			got, _, err := Decode(&buf)
			must(t, err)
			if len(got) != len(tc.want) {
				t.Fatalf("decoded %d records, want %d: %+v", len(got), len(tc.want), got)
			}
			for i, rec := range got {
				if rec.Session != 3 || rec.StartTS == 0 {
					t.Errorf("record %d: session %d, start %d", i, rec.Session, rec.StartTS)
				}
				if rec.Outcome != tc.want[i].outcome || (rec.CommitTS != 0) != rec.Committed() {
					t.Errorf("record %d: outcome %q at commit ts %d, want %q", i, rec.Outcome, rec.CommitTS, tc.want[i].outcome)
				}
				if !reflect.DeepEqual(rec.Ops, tc.want[i].ops) {
					t.Errorf("record %d ops = %+v, want %+v", i, rec.Ops, tc.want[i].ops)
				}
			}
		})
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
