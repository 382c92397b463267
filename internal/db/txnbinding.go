package db

import (
	"context"
	"errors"
	"fmt"

	"ycsbt/internal/properties"
)

// The YCSB+T surface of a transaction library. YCSB+T adds Start /
// Commit / Abort around YCSB's five operations, so every transaction
// library plugs into the client the same way: it offers a TxnLibrary —
// begin, view a handle as a transaction, run a function in one with
// retries — and TxnBinding turns that into DB, TransactionalDB and
// ContextualDB. WithTx's view runs the operations inside the caller's
// transaction; the same operations called on the binding each run in a
// transaction of their own.

// Txn is one transaction of a library, as TxnBinding drives it. The
// record Read returns is the caller's, and the views Scan returns share
// nothing the transaction goes on to edit; Write and Insert keep a copy
// of what they are given.
type Txn interface {
	// Read returns every field of the record under key.
	Read(ctx context.Context, table, key string) (Record, error)
	// Scan returns up to count records from startKey in key order.
	Scan(ctx context.Context, table, startKey string, count int) ([]KV, error)
	// Write replaces the record under key.
	Write(table, key string, values Record) error
	// Insert stores a new record under key, with the library's meaning
	// of insert (create-only, or a blind put).
	Insert(table, key string, values Record) error
	// Delete removes the record under key.
	Delete(table, key string) error
	// Commit makes the transaction's writes durable and visible.
	Commit(ctx context.Context) error
	// Abort discards the transaction's writes.
	Abort(ctx context.Context) error
}

// TxnLibrary is what TxnBinding needs of a transaction library.
type TxnLibrary interface {
	// Begin starts a transaction and returns the library's own handle
	// for it, which becomes TransactionContext.Handle.
	Begin(ctx context.Context) (any, error)
	// Txn views a handle Begin returned as a transaction; ok is false
	// for any other value.
	Txn(handle any) (t Txn, ok bool)
	// RunInTxn runs fn in a transaction and commits it, retrying up to
	// retries times when the attempt conflicts.
	RunInTxn(ctx context.Context, retries int, fn func(Txn) error) error
}

// autoCommitRetries bounds the retries of an operation called outside
// a transaction.
const autoCommitRetries = 3

// TxnBinding is the DB surface of a transaction library: every method
// of TransactionalDB and ContextualDB but Init and Cleanup, which the
// library's binding, embedding it, adds. The library's errors pass
// through as they are: its sentinels wrap this package's.
type TxnBinding struct {
	lib TxnLibrary
}

// NewTxnBinding returns the DB surface of lib.
func NewTxnBinding(lib TxnLibrary) TxnBinding { return TxnBinding{lib: lib} }

// txn returns the transaction tctx carries, or one whose every call
// fails when the binding did not start it.
func (b *TxnBinding) txn(tctx *TransactionContext) Txn {
	if tctx == nil {
		return failedTxn{errors.New("db: nil transaction context")}
	}
	if t, ok := b.lib.Txn(tctx.Handle); ok {
		return t
	}
	return failedTxn{fmt.Errorf("db: transaction context %T was not started by this binding", tctx.Handle)}
}

// Start implements TransactionalDB.
func (b *TxnBinding) Start(ctx context.Context) (*TransactionContext, error) {
	h, err := b.lib.Begin(ctx)
	if err != nil {
		return nil, err
	}
	return &TransactionContext{Handle: h}, nil
}

// Commit implements TransactionalDB.
func (b *TxnBinding) Commit(ctx context.Context, tctx *TransactionContext) error {
	return b.txn(tctx).Commit(ctx)
}

// Abort implements TransactionalDB.
func (b *TxnBinding) Abort(ctx context.Context, tctx *TransactionContext) error {
	return b.txn(tctx).Abort(ctx)
}

// WithTx implements ContextualDB. The view is the one tctx keeps, so
// handing it out allocates nothing. A context the binding did not start
// yields a view whose every operation fails with that error.
func (b *TxnBinding) WithTx(tctx *TransactionContext) DB {
	if tctx == nil {
		return txnView{b.txn(nil)}
	}
	tctx.view.t = b.txn(tctx)
	return &tctx.view
}

// autoCommit runs fn on the view of a transaction of its own.
func (b *TxnBinding) autoCommit(ctx context.Context, fn func(txnView) error) error {
	return b.lib.RunInTxn(ctx, autoCommitRetries, func(t Txn) error { return fn(txnView{t}) })
}

// Read implements DB (auto-commit).
func (b *TxnBinding) Read(ctx context.Context, table, key string, fields []string) (rec Record, err error) {
	err = b.autoCommit(ctx, func(v txnView) (err error) {
		rec, err = v.Read(ctx, table, key, fields)
		return err
	})
	return rec, err
}

// Scan implements DB (auto-commit).
func (b *TxnBinding) Scan(ctx context.Context, table, startKey string, count int, fields []string) (kvs []KV, err error) {
	err = b.autoCommit(ctx, func(v txnView) (err error) {
		kvs, err = v.Scan(ctx, table, startKey, count, fields)
		return err
	})
	return kvs, err
}

// Update implements DB (auto-commit).
func (b *TxnBinding) Update(ctx context.Context, table, key string, values Record) error {
	return b.autoCommit(ctx, func(v txnView) error { return v.Update(ctx, table, key, values) })
}

// Insert implements DB (auto-commit).
func (b *TxnBinding) Insert(ctx context.Context, table, key string, values Record) error {
	return b.autoCommit(ctx, func(v txnView) error { return v.Insert(ctx, table, key, values) })
}

// Delete implements DB (auto-commit).
func (b *TxnBinding) Delete(ctx context.Context, table, key string) error {
	return b.autoCommit(ctx, func(v txnView) error { return v.Delete(ctx, table, key) })
}

// txnView runs the operations inside one transaction.
type txnView struct{ t Txn }

// Init implements DB; the view inherits the binding's state.
func (v txnView) Init(*properties.Properties) error { return nil }

// Cleanup implements DB; the transaction owns no resources.
func (v txnView) Cleanup() error { return nil }

// Read implements DB inside the transaction.
func (v txnView) Read(ctx context.Context, table, key string, fields []string) (Record, error) {
	rec, err := v.t.Read(ctx, table, key)
	if err != nil {
		return nil, err
	}
	return project(rec, fields), nil
}

// Scan implements DB inside the transaction.
func (v txnView) Scan(ctx context.Context, table, startKey string, count int, fields []string) ([]KV, error) {
	kvs, err := v.t.Scan(ctx, table, startKey, count)
	if err != nil {
		return nil, err
	}
	for i := range kvs {
		kvs[i].Fields = kvs[i].Fields.Project(fields)
	}
	return kvs, nil
}

// Update implements DB inside the transaction: read, merge, write. The
// write replaces the version read, so a concurrent update conflicts at
// commit instead of being lost.
func (v txnView) Update(ctx context.Context, table, key string, values Record) error {
	rec, err := v.t.Read(ctx, table, key)
	if err != nil {
		return err
	}
	for f, val := range values {
		rec[f] = val
	}
	return v.t.Write(table, key, rec)
}

// Insert implements DB inside the transaction.
func (v txnView) Insert(ctx context.Context, table, key string, values Record) error {
	return v.t.Insert(table, key, values)
}

// Delete implements DB inside the transaction.
func (v txnView) Delete(ctx context.Context, table, key string) error {
	return v.t.Delete(table, key)
}

// project narrows a record the caller owns to fields (nil: all).
func project(rec Record, fields []string) Record {
	if fields == nil {
		return rec
	}
	return ProjectFields(rec, fields)
}

// failedTxn is a transaction that could not be had: every call fails
// with err.
type failedTxn struct{ err error }

func (f failedTxn) Read(context.Context, string, string) (Record, error) { return nil, f.err }
func (f failedTxn) Scan(context.Context, string, string, int) ([]KV, error) {
	return nil, f.err
}
func (f failedTxn) Write(string, string, Record) error  { return f.err }
func (f failedTxn) Insert(string, string, Record) error { return f.err }
func (f failedTxn) Delete(string, string) error         { return f.err }
func (f failedTxn) Commit(context.Context) error        { return f.err }
func (f failedTxn) Abort(context.Context) error         { return f.err }
