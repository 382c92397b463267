package percolator

import (
	"context"
	"fmt"

	"ycsbt/internal/db"
	"ycsbt/internal/oracle"
	"ycsbt/internal/properties"
	"ycsbt/internal/txn"
)

// Binding exposes the Percolator-style protocol as the "percolator"
// YCSB+T binding. It shares the client-coordinated library's
// db.TxnBinding surface, so the two protocols are benchmarked
// apples-to-apples.
type Binding struct {
	db.TxnBinding
	m      *Manager
	closer func() error
}

// NewBinding wraps an existing manager.
func NewBinding(m *Manager) *Binding {
	return &Binding{TxnBinding: db.NewTxnBinding(library{m}), m: m}
}

func init() {
	db.Register("percolator", func() (db.DB, error) { return &Binding{}, nil })
}

// Init builds the manager from properties when opened by name:
// "percolator.backend" names the store (txn.OpenBackend: memory, was,
// gcs or cluster; the protocol runs over one store, so not was+gcs)
// over a local timestamp oracle.
func (b *Binding) Init(p *properties.Properties) error {
	if b.m != nil {
		return nil
	}
	backend := p.GetString("percolator.backend", "memory")
	stores, closer, err := txn.OpenBackend(p, backend)
	if err != nil {
		return fmt.Errorf("percolator: %w", err)
	}
	if len(stores) != 1 {
		closer()
		return fmt.Errorf("percolator: backend %q spans %d stores; the protocol runs over one", backend, len(stores))
	}
	m, err := NewManager(Options{}, stores[0], oracle.NewLocal())
	if err != nil {
		closer()
		return err
	}
	*b = *NewBinding(m)
	b.closer = closer
	return nil
}

// Cleanup closes stores the binding created.
func (b *Binding) Cleanup() error {
	if b.closer != nil {
		return b.closer()
	}
	return nil
}

// library is the manager as db.TxnBinding runs it.
type library struct{ m *Manager }

func (l library) Begin(ctx context.Context) (any, error) { return l.m.Begin(ctx) }

func (l library) Txn(handle any) (db.Txn, bool) {
	t, ok := handle.(*Txn)
	return dbTxn{t}, ok
}

func (l library) RunInTxn(ctx context.Context, retries int, fn func(db.Txn) error) error {
	return l.m.RunInTxn(ctx, retries, func(t *Txn) error { return fn(dbTxn{t}) })
}

// dbTxn is a transaction under db.Txn's names; Scan, Delete and Commit
// are the transaction's own.
type dbTxn struct{ *Txn }

func (x dbTxn) Read(ctx context.Context, table, key string) (db.Record, error) {
	return x.Get(ctx, table, key)
}

func (x dbTxn) Write(table, key string, values db.Record) error { return x.Put(table, key, values) }

// Insert is a blind put: the protocol has no create-only write.
func (x dbTxn) Insert(table, key string, values db.Record) error { return x.Put(table, key, values) }

func (x dbTxn) Abort(ctx context.Context) error { return x.Rollback(ctx) }

var (
	_ db.TransactionalDB = (*Binding)(nil)
	_ db.ContextualDB    = (*Binding)(nil)
)
