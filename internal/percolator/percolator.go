// Package percolator implements a Percolator-style snapshot-isolation
// transaction protocol — the baseline design the paper contrasts its
// client-coordinated library against (Section II-B: Percolator
// "depends on a central fault-tolerant timestamp service called a
// timestamp oracle (TO) ... making this technique unsuitable for
// client applications spread across relatively high-latency WANs").
//
// The protocol (Peng & Dabek, OSDI'10), adapted to a versioned
// key-value store whose conditional put stands in for BigTable's
// single-row transactions:
//
//   - Begin draws start_ts from the timestamp oracle (one round trip).
//   - Reads return the newest committed version with commit_ts ≤
//     start_ts; a pending lock from an older transaction is resolved
//     (rolled forward or back via its primary) or waited out.
//   - Commit prewrites every buffered write: it installs a lock
//     naming the transaction's primary record plus the pending value,
//     failing on any committed version newer than start_ts
//     (write-write conflict) or any foreign lock.
//   - commit_ts is drawn from the oracle (a second round trip); the
//     primary's lock is atomically replaced by a committed version at
//     commit_ts — the commit point — and the secondaries follow.
//
// Every record keeps its recent committed versions in reserved
// "_perc:d:<commit_ts>" fields, so snapshot reads need no separate
// version store. Crash recovery mirrors Percolator: a reader that
// finds a lock older than the lock TTL consults the lock's primary —
// if the primary committed, the lock is rolled forward with the
// primary's commit_ts; otherwise it is rolled back.
//
// The two oracle round trips per read-write transaction (one per
// read-only) are the point of the comparison experiment in
// internal/bench: as oracle RTT grows, Percolator-style throughput
// collapses while the client-coordinated design is unaffected.
package percolator

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"ycsbt/internal/db"
	"ycsbt/internal/kvstore"
	"ycsbt/internal/oracle"
	"ycsbt/internal/txn"
)

// Store is the storage interface the protocol needs: the
// client-coordinated library's, so every store substrate serves both
// protocols.
type Store = txn.Store

// Sentinel errors. The outcomes a binding reports wrap the db
// sentinel they mean, so they pass up through db.TxnBinding as they
// are.
var (
	// ErrConflict reports a write-write conflict or lost race; retry.
	// It is a db.ErrAborted.
	ErrConflict = fmt.Errorf("percolator: conflict: %w", db.ErrAborted)
	// ErrNotFound reports a missing record (at this snapshot). It is a
	// db.ErrNotFound.
	ErrNotFound = fmt.Errorf("percolator: %w", db.ErrNotFound)
	// ErrLocked reports a record held by an in-flight transaction
	// that could not be waited out. It is a db.ErrAborted.
	ErrLocked = fmt.Errorf("percolator: record locked: %w", db.ErrAborted)
	// ErrTxnDone reports use of a finished transaction.
	ErrTxnDone = errors.New("percolator: transaction already finished")
)

// Reserved field names.
const (
	lockField   = "_perc:lock"    // encoded lockRecord
	pendingFld  = "_perc:pending" // encoded pending write (kind+image)
	dataPrefix  = "_perc:d:"      // + %020d commit_ts → encoded version
	tsFieldWide = 20
)

// Options tunes a Manager.
type Options struct {
	// LockTTL is how old a lock must be before another client may
	// resolve it as crashed. Committers enforce LockTTL/2 between
	// prewrite and primary commit. Default 10s.
	LockTTL time.Duration
	// MaxVersions bounds the committed versions retained per record.
	// Default 8.
	MaxVersions int
	// ReadLockRetries is how many times a read waits (with backoff)
	// on a fresh foreign lock before failing with ErrLocked.
	// Default 10.
	ReadLockRetries int
	// ReadLockBackoff is the wait between lock retries. Default 2ms.
	ReadLockBackoff time.Duration
}

func (o Options) withDefaults() Options {
	if o.LockTTL <= 0 {
		o.LockTTL = 10 * time.Second
	}
	if o.MaxVersions <= 0 {
		o.MaxVersions = 8
	}
	if o.ReadLockRetries <= 0 {
		o.ReadLockRetries = 10
	}
	if o.ReadLockBackoff <= 0 {
		o.ReadLockBackoff = 2 * time.Millisecond
	}
	return o
}

// Manager coordinates Percolator-style transactions over one store
// and one timestamp oracle.
type Manager struct {
	store Store
	to    oracle.Oracle
	opts  Options

	commits   atomic.Int64
	aborts    atomic.Int64
	conflicts atomic.Int64
	recovered atomic.Int64
}

// NewManager returns a manager over store using the given oracle.
func NewManager(opts Options, store Store, to oracle.Oracle) (*Manager, error) {
	if store == nil || to == nil {
		return nil, errors.New("percolator: store and oracle required")
	}
	return &Manager{store: store, to: to, opts: opts.withDefaults()}, nil
}

// Stats reports commit/abort/conflict/recovery counters.
func (m *Manager) Stats() (commits, aborts, conflicts, recovered int64) {
	return m.commits.Load(), m.aborts.Load(), m.conflicts.Load(), m.recovered.Load()
}

// Begin starts a transaction, drawing start_ts from the oracle.
func (m *Manager) Begin(ctx context.Context) (*Txn, error) {
	startTS, err := m.to.Next(ctx)
	if err != nil {
		return nil, fmt.Errorf("percolator: fetching start_ts: %w", err)
	}
	return &Txn{m: m, startTS: startTS}, nil
}

// RunInTxn executes fn with commit and conflict retry, like
// txn.Manager.RunInTxn.
func (m *Manager) RunInTxn(ctx context.Context, maxRetries int, fn func(*Txn) error) error {
	var lastErr error
	for attempt := 0; attempt <= maxRetries; attempt++ {
		t, err := m.Begin(ctx)
		if err != nil {
			return err
		}
		if err := fn(t); err != nil {
			t.Rollback(ctx)
			if errors.Is(err, ErrConflict) || errors.Is(err, ErrLocked) {
				lastErr = err
				continue
			}
			return err
		}
		err = t.Commit(ctx)
		if err == nil {
			return nil
		}
		if !errors.Is(err, ErrConflict) && !errors.Is(err, ErrLocked) {
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("percolator: retries exhausted: %w", lastErr)
}

// tkey identifies a record.
type tkey struct{ table, key string }

func (k tkey) less(o tkey) bool {
	if k.table != o.table {
		return k.table < o.table
	}
	return k.key < o.key
}

// bufWrite is one buffered write.
type bufWrite struct {
	del    bool
	fields map[string][]byte

	prewritten  bool
	prewriteVer uint64
}

// Txn is one Percolator-style transaction, confined to one goroutine.
type Txn struct {
	m       *Manager
	startTS int64
	done    bool
	writes  map[tkey]*bufWrite // nil until the first buffered write
}

// Get returns the user fields of table/key as of the snapshot,
// honouring the transaction's own buffered writes.
func (t *Txn) Get(ctx context.Context, table, key string) (map[string][]byte, error) {
	if t.done {
		return nil, ErrTxnDone
	}
	if w, ok := t.writes[tkey{table, key}]; ok {
		if w.del {
			return nil, fmt.Errorf("%w: %s/%s (deleted in this txn)", ErrNotFound, table, key)
		}
		return cloneFields(w.fields), nil
	}
	return t.m.readAt(ctx, table, key, t.startTS)
}

// Put buffers a full-record write.
func (t *Txn) Put(table, key string, fields map[string][]byte) error {
	if t.done {
		return ErrTxnDone
	}
	for f := range fields {
		if strings.HasPrefix(f, "_perc:") {
			return fmt.Errorf("percolator: field name %q is reserved", f)
		}
	}
	t.buffer(tkey{table, key}, &bufWrite{fields: cloneFields(fields)})
	return nil
}

// Delete buffers a delete (a committed tombstone version).
func (t *Txn) Delete(table, key string) error {
	if t.done {
		return ErrTxnDone
	}
	t.buffer(tkey{table, key}, &bufWrite{del: true})
	return nil
}

// buffer files w under k, making the write set at the first write: a
// read-only transaction never needs one.
func (t *Txn) buffer(k tkey, w *bufWrite) {
	if t.writes == nil {
		t.writes = make(map[tkey]*bufWrite)
	}
	t.writes[k] = w
}

// Scan returns up to count live records from startKey at the
// snapshot, overlaying buffered writes.
func (t *Txn) Scan(ctx context.Context, table, startKey string, count int) ([]db.KV, error) {
	if t.done {
		return nil, ErrTxnDone
	}
	kvs, err := t.m.store.Scan(ctx, table, startKey, count)
	if err != nil {
		return nil, err
	}
	out := make([]db.KV, 0, len(kvs))
	for _, kv := range kvs {
		k := tkey{table, kv.Key}
		if w, ok := t.writes[k]; ok {
			if !w.del {
				out = append(out, db.KV{Key: kv.Key, Fields: db.MapFields(w.fields)})
			}
			continue
		}
		fields, err := t.m.resolveRead(ctx, table, kv.Key, kv.Record, t.startTS, t.m.opts.ReadLockRetries)
		if err != nil {
			if errors.Is(err, ErrNotFound) {
				continue
			}
			return nil, err
		}
		out = append(out, db.KV{Key: kv.Key, Fields: db.MapFields(fields)})
	}
	// Overlay buffered puts in range but absent from the store page.
	present := map[string]bool{}
	for _, kv := range out {
		present[kv.Key] = true
	}
	for k, w := range t.writes {
		if k.table == table && !w.del && k.key >= startKey && !present[k.key] {
			out = append(out, db.KV{Key: k.key, Fields: db.MapFields(w.fields)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	if count >= 0 && len(out) > count {
		out = out[:count]
	}
	return out, nil
}

// Rollback aborts the transaction, removing any locks it installed.
func (t *Txn) Rollback(ctx context.Context) error {
	if t.done {
		return nil
	}
	t.done = true
	t.m.aborts.Add(1)
	return t.removeLocks(ctx)
}

func (t *Txn) removeLocks(ctx context.Context) error {
	var firstErr error
	for k, w := range t.writes {
		if !w.prewritten {
			continue
		}
		if err := t.m.rollbackLock(ctx, k.table, k.key, t.startTS); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Commit runs prewrite → commit_ts → primary commit → secondaries.
func (t *Txn) Commit(ctx context.Context) error {
	if t.done {
		return ErrTxnDone
	}
	if len(t.writes) == 0 {
		t.done = true
		t.m.commits.Add(1)
		return nil
	}
	keys := make([]tkey, 0, len(t.writes))
	for k := range t.writes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].less(keys[j]) })
	primary := keys[0]

	// Cleanup after failures (and post-commit-point work) runs on a
	// detached context so it survives caller cancellation.
	cleanupCtx := context.WithoutCancel(ctx)

	prewriteStart := time.Now()
	if k, err := t.prewriteAll(ctx, keys, primary); err != nil {
		t.done = true
		t.m.conflicts.Add(1)
		t.m.aborts.Add(1)
		t.removeLocks(cleanupCtx)
		return fmt.Errorf("%w: prewriting %s/%s: %v", ErrConflict, k.table, k.key, err)
	}

	// Second oracle round trip: the commit timestamp.
	commitTS, err := t.m.to.Next(ctx)
	if err != nil {
		t.done = true
		t.m.aborts.Add(1)
		t.removeLocks(cleanupCtx)
		return fmt.Errorf("percolator: fetching commit_ts: %w", err)
	}

	// Enforce the TTL discipline before the commit point so readers'
	// crash recovery never rolls back a live committer.
	if time.Since(prewriteStart) > t.m.opts.LockTTL/2 {
		t.done = true
		t.m.aborts.Add(1)
		t.removeLocks(cleanupCtx)
		return fmt.Errorf("%w: commit deadline exceeded", ErrConflict)
	}

	// Commit point: the primary.
	if err := t.m.commitRecord(ctx, primary.table, primary.key, t.startTS, commitTS); err != nil {
		t.done = true
		t.m.aborts.Add(1)
		t.removeLocks(cleanupCtx)
		return fmt.Errorf("%w: committing primary: %v", ErrConflict, err)
	}
	// Secondaries: the transaction is committed; finish on the
	// detached context. Failures are recoverable by readers via the
	// primary, so they are best-effort here.
	for _, k := range keys[1:] {
		t.m.commitRecord(cleanupCtx, k.table, k.key, t.startTS, commitTS)
	}
	t.done = true
	t.m.commits.Add(1)
	return nil
}

// prewrite installs this transaction's lock and pending value on one
// record.
func (t *Txn) prewrite(ctx context.Context, k, primary tkey) error {
	w := t.writes[k]
	for attempt := 0; attempt < 2; attempt++ {
		rec, ver, err := t.m.loadRecord(ctx, k.table, k.key)
		if err != nil {
			return err
		}
		if rec != nil {
			// Write-write conflict: any version committed after our
			// snapshot.
			if maxCommitTS(rec) > t.startTS {
				return fmt.Errorf("newer committed version")
			}
			if lockBytes := rec[lockField]; len(lockBytes) > 0 {
				lk, err := decodeLock(lockBytes)
				if err != nil {
					return err
				}
				if lk.StartTS == t.startTS {
					return nil // already prewritten (retry path)
				}
				// Foreign lock: resolvable only if stale.
				if resolved := t.m.maybeResolve(ctx, k.table, k.key, lk); resolved {
					continue // reload and retry once
				}
				return fmt.Errorf("locked by txn@%d", lk.StartTS)
			}
		}
		fields := map[string][]byte{}
		for f, v := range rec {
			fields[f] = v
		}
		fields[lockField] = encodeLock(lockRecord{
			PrimaryTable: primary.table,
			PrimaryKey:   primary.key,
			StartTS:      t.startTS,
			WallNano:     time.Now().UnixNano(),
		})
		fields[pendingFld] = encodePending(w.del, t.startTS, w.fields)
		expect := ver
		if rec == nil {
			expect = kvstore.MustNotExist
		}
		newVer, err := t.m.store.Put(ctx, k.table, k.key, fields, expect)
		if err != nil {
			return err
		}
		w.prewritten = true
		w.prewriteVer = newVer
		return nil
	}
	return fmt.Errorf("lock not resolvable")
}

func cloneFields(in map[string][]byte) map[string][]byte {
	out := make(map[string][]byte, len(in))
	for f, v := range in {
		out[f] = append([]byte(nil), v...)
	}
	return out
}
