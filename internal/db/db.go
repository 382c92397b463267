// Package db defines the database-client abstraction of YCSB+T.
//
// It mirrors YCSB's DB class: Read / Scan / Update / Insert / Delete
// over named tables of records, where a record maps field names to
// value bytes: a Record (a map) on its way in and out of Read, and a
// read-only Fields view in a scan's results (fields.go). YCSB+T adds the transaction demarcation
// methods Start, Commit and Abort; in keeping with the paper's
// backward-compatibility requirement these default to no-ops (embed
// NoTransactions to get that behaviour), so any plain YCSB binding
// runs unchanged under the YCSB+T client.
//
// The package also provides the composable Middleware chain
// (middleware.go): decorators such as Metered (the Tier 5
// transactional-overhead capture point) are func(DB) DB combinators
// stacked by Chain, so every client builds its interception stack
// declaratively — e.g. from the "middleware" workload property. The
// client additionally times the whole wrapping transaction into a
// "TX-<TYPE>" series.
package db

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"ycsbt/internal/properties"
)

// Record is one stored record: field name → value bytes.
type Record = map[string][]byte

// The outcome vocabulary: every layer's errors match one of these
// sentinels under errors.Is. A store or library that names an outcome
// in its own terms (kvstore.ErrNotFound, txn.ErrConflict, ...) defines
// its sentinel to wrap the one here, so its errors pass up every layer
// unchanged and ReturnCode files them where they arrive.
var (
	// ErrNotFound reports that the requested key does not exist.
	ErrNotFound = errors.New("db: key not found")
	// ErrConflict reports a conditional-update (version/ETag) failure.
	ErrConflict = errors.New("db: version conflict")
	// ErrAborted reports that the surrounding transaction aborted.
	ErrAborted = errors.New("db: transaction aborted")
	// ErrThrottled reports that the server shed the request under
	// admission control: an HTTP 429, or a frame still refused after
	// the client's own re-sends.
	ErrThrottled = errors.New("db: request throttled")
	// ErrNotSupported reports that the binding does not implement the
	// requested operation.
	ErrNotSupported = errors.New("db: operation not supported")
	// ErrBelowHorizon reports an as-of read the store can no longer
	// answer exactly: what the key held at that timestamp has been
	// reclaimed. It is not a miss (the record may well have existed
	// then), so ReturnCode files it as CodeUnknown even where it also
	// matches ErrNotFound.
	ErrBelowHorizon = errors.New("db: as-of read below the reclaim horizon")
)

// Return codes recorded by the measurement layer (0 = OK, like
// YCSB's Status ordinals). The measurement shards index a fixed
// atomic array by these values, so keep them small and dense.
const (
	CodeOK           = 0
	CodeNotFound     = 1
	CodeConflict     = 2
	CodeAborted      = 3
	CodeThrottled    = 4
	CodeNotSupported = 5
	// CodeCancelled marks operations cut short by context
	// cancellation or deadline expiry (phase shutdown), so shutdown
	// noise is distinguishable from real errors in Tier-5 output.
	CodeCancelled = 6
	// CodeUnknown is every error no sentinel matches.
	CodeUnknown = -1
)

// ReturnCode maps an operation error to the integer return code the
// measurement layer records (0 = OK, like YCSB's Status).
func ReturnCode(err error) int {
	switch {
	case err == nil:
		return CodeOK
	case errors.Is(err, ErrBelowHorizon): // before ErrNotFound, which it may also match
		return CodeUnknown
	case errors.Is(err, ErrNotFound):
		return CodeNotFound
	case errors.Is(err, ErrConflict):
		return CodeConflict
	case errors.Is(err, ErrAborted):
		return CodeAborted
	case errors.Is(err, ErrThrottled):
		return CodeThrottled
	case errors.Is(err, ErrNotSupported):
		return CodeNotSupported
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return CodeCancelled
	default:
		return CodeUnknown
	}
}

// DB is the client abstraction every binding implements, mirroring
// com.yahoo.ycsb.DB. Implementations must be safe for concurrent use
// by multiple client threads unless documented otherwise.
type DB interface {
	// Init prepares the binding with the run's properties. It is
	// called once before any operation.
	Init(p *properties.Properties) error
	// Cleanup releases binding resources after the run.
	Cleanup() error

	// Read fetches the named fields of the record under key (all
	// fields when fields is nil).
	Read(ctx context.Context, table, key string, fields []string) (Record, error)
	// Scan fetches up to count records starting at startKey in key
	// order.
	Scan(ctx context.Context, table, startKey string, count int, fields []string) ([]KV, error)
	// Update merges values into the existing record under key.
	Update(ctx context.Context, table, key string, values Record) error
	// Insert stores a new record under key.
	Insert(ctx context.Context, table, key string, values Record) error
	// Delete removes the record under key.
	Delete(ctx context.Context, table, key string) error
}

// KV is one record of a scan result, in scan order: its key and a
// read-only view of its fields. A scan builds no map per record: the
// view wraps what the binding received (see Fields).
type KV struct {
	Key    string
	Fields Fields
}

// ProjectFields filters a full record down to the requested fields
// (nil fields = everything). Shared by the bindings, which all
// project reads and scans the same way. The result is always a fresh
// map — the input may be an engine-owned record shared with concurrent
// readers, so aliasing it out would let callers corrupt live store
// state. The byte-slice values are not copied and must be treated as
// read-only.
func ProjectFields(all map[string][]byte, fields []string) Record {
	if fields == nil {
		out := make(Record, len(all))
		for f, v := range all {
			out[f] = v
		}
		return out
	}
	out := make(Record, len(fields))
	for _, f := range fields {
		if v, ok := all[f]; ok {
			out[f] = v
		}
	}
	return out
}

// TransactionContext carries per-thread transaction state between
// Start and Commit/Abort for bindings that are transactional. The
// YCSB+T client threads each own one context; bindings store their
// per-transaction handle in it.
type TransactionContext struct {
	// Handle is binding-private per-transaction state.
	Handle any
}

// TransactionalDB is a DB that supports wrapping operations in
// client-coordinated transactions (Section IV-A of the paper). The
// tctx passed to the data operations of a transactional binding is
// the one returned by Start.
type TransactionalDB interface {
	DB
	// Start begins a transaction and returns its context.
	Start(ctx context.Context) (*TransactionContext, error)
	// Commit makes the transaction's effects durable and visible.
	Commit(ctx context.Context, tctx *TransactionContext) error
	// Abort discards the transaction's effects.
	Abort(ctx context.Context, tctx *TransactionContext) error
}

// ContextualDB is implemented by transactional bindings whose data
// operations need the transaction context; the client routes
// operations through WithTx when available.
type ContextualDB interface {
	// WithTx returns a DB view whose operations execute inside the
	// given transaction.
	WithTx(tctx *TransactionContext) DB
}

// NoTransactions provides the paper's default no-op Start / Commit /
// Abort so that non-transactional bindings satisfy TransactionalDB
// unchanged ("backward compatible with YCSB").
type NoTransactions struct{}

// Start is a no-op; it returns an empty transaction context.
func (NoTransactions) Start(context.Context) (*TransactionContext, error) {
	return &TransactionContext{}, nil
}

// Commit is a no-op.
func (NoTransactions) Commit(context.Context, *TransactionContext) error { return nil }

// Abort is a no-op.
func (NoTransactions) Abort(context.Context, *TransactionContext) error { return nil }

// Factory constructs a fresh binding instance.
type Factory func() (DB, error)

var (
	registryMu sync.RWMutex
	registry   = make(map[string]Factory)
)

// Register makes a binding available under name to the command-line
// client (`-db <name>`). It panics on duplicate registration, which
// indicates a programmer error at init time.
func Register(name string, f Factory) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("db: duplicate registration of %q", name))
	}
	registry[name] = f
}

// Open instantiates the binding registered under name.
func Open(name string) (DB, error) {
	registryMu.RLock()
	f, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("db: unknown binding %q (have %v)", name, Bindings())
	}
	return f()
}

// Bindings returns the registered binding names, sorted.
func Bindings() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
