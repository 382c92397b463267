package txn

import (
	"context"

	"ycsbt/internal/kvstore"
)

// LocalStore adapts an embedded kvstore.Engine to the txn.Store
// interface, giving it a name and a context-aware surface. It is the
// product store of txnkv.backend=memory (OpenBackend), an engine in the
// client's own process with no round trip; cloudsim provides the
// latency-faithful equivalent. Its calls run on the caller's goroutine
// (RunsOnCaller), so a manager over LocalStores alone finishes each
// commit on its committer.
//
// Records flowing out of Get/Scan/BatchGet are the engine's shared
// immutable snapshots (see the kvstore.Engine immutability contract);
// the transaction layer builds fresh field maps for everything it
// writes and must never edit a fetched record in place.
type LocalStore struct {
	name  string
	inner kvstore.Engine
}

// NewLocalStore wraps inner under the given name.
func NewLocalStore(name string, inner kvstore.Engine) *LocalStore {
	return &LocalStore{name: name, inner: inner}
}

// Name implements Store.
func (l *LocalStore) Name() string { return l.name }

// Get implements Store.
func (l *LocalStore) Get(_ context.Context, table, key string) (*kvstore.VersionedRecord, error) {
	return l.inner.Get(table, key)
}

// Put implements Store.
func (l *LocalStore) Put(_ context.Context, table, key string, fields map[string][]byte, expect uint64) (uint64, error) {
	return l.inner.PutIfVersion(table, key, fields, expect)
}

// Delete implements Store.
func (l *LocalStore) Delete(_ context.Context, table, key string, expect uint64) error {
	return l.inner.DeleteIfVersion(table, key, expect)
}

// Scan implements Store.
func (l *LocalStore) Scan(_ context.Context, table, startKey string, count int) ([]kvstore.VersionedKV, error) {
	return l.inner.Scan(table, startKey, count)
}

// RunsOnCaller reports true: every call is the engine's, made on the
// caller's goroutine.
func (l *LocalStore) RunsOnCaller() bool { return true }

// BatchGet exposes the engine's multi-key read so batched protocol
// paths (the percolator prewrite, the batch bindings) amortize lock
// acquisitions on the zero-latency substrate too.
func (l *LocalStore) BatchGet(_ context.Context, reqs []kvstore.GetReq) ([]kvstore.GetResult, error) {
	return l.inner.BatchGet(reqs), nil
}

// BatchApply exposes the engine's multi-key conditional write.
func (l *LocalStore) BatchApply(_ context.Context, muts []kvstore.Mutation) ([]kvstore.MutResult, error) {
	return l.inner.BatchApply(muts), nil
}
