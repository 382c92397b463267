package kvstore

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// partition is one shard of the store: a private set of B-trees (one
// per table) plus an optional WAL segment. The Store front routes
// every point operation to exactly one partition by key hash, so
// partitions never touch a shared lock or cache line on the hot path.
//
// Writers serialize on mu (which also orders WAL appends) and, after
// updating the copy-on-write tree, publish its root into snaps with
// one atomic store. Readers never take mu: they load the published
// snapshot and traverse it wait-free, returning engine-owned immutable
// records without cloning.
type partition struct {
	mu     sync.RWMutex
	tables map[string]*btree // writer-side handles; guarded by mu
	names  []string          // field names of the last image built; guarded by mu
	wal    *wal
	store  *Store // shared state: commit clock, retention horizon
	closed atomic.Bool

	// snaps is the read side: the atomically published per-table
	// snapshots the lock-free read path traverses.
	snaps atomic.Pointer[snapSet]

	// purgeTS is the newest commit ts at which a key may have left the
	// index without a trace: the latest tombstone Vacuum purged here,
	// or the open of a store recovered from its log. An as-of read
	// below it cannot take a missing key as proof the key was absent.
	purgeTS atomic.Int64

	// metrics holds this shard's private obs handles; the zero value
	// (nil handles) is inert. Written once in Store.instrument before
	// the store is shared, read lock-free afterwards.
	metrics partMetrics
}

func newPartition(w *wal, s *Store) *partition {
	p := &partition{tables: make(map[string]*btree), wal: w, store: s}
	p.snaps.Store(emptySnapSet)
	return p
}

// table returns the tree for name, creating it when absent. Caller
// must hold the write lock (or be in single-threaded open).
func (p *partition) table(name string) *btree {
	t, ok := p.tables[name]
	if !ok {
		t = newBTree()
		p.tables[name] = t
	}
	return t
}

// applyReplay applies one WAL record during recovery, bypassing
// version checks (the log records outcomes, not intents). Runs
// single-threaded during open, before the partition is published;
// Open calls publishAll afterwards to expose the recovered state.
// Frames replay in append order — commit-ts order per partition — so
// chaining each record onto the key's current head rebuilds version
// chains exactly.
func (p *partition) applyReplay(rec walRecord) error {
	tree := p.table(rec.Table)
	switch rec.Op {
	case walPutTS:
		stored := &VersionedRecord{Version: rec.Version, CommitTS: rec.CommitTS, Fields: rec.Fields, image: rec.Image}
		if stored.image == nil {
			// Logged from a map (a merge-update, or a log older than
			// the canonical order): re-encode.
			stored = p.newRecord(rec.Version, rec.CommitTS, rec.Fields)
		}
		stored.link(tree.get(rec.Key))
		tree.put(rec.Key, stored)
	case walDeleteTS:
		tomb := &VersionedRecord{Version: rec.Version, CommitTS: rec.CommitTS, deleted: true}
		tomb.link(tree.get(rec.Key))
		tree.put(rec.Key, tomb)
	default:
		return fmt.Errorf("unknown WAL op %d", rec.Op)
	}
	return nil
}

func (p *partition) isClosed() bool {
	return p.closed.Load()
}

// get is the wait-free point read: no lock, no clone, zero heap
// allocations on the hit path. The returned record is an engine-owned
// immutable snapshot that callers must not mutate (Clone first).
func (p *partition) get(table, key string) (*VersionedRecord, error) {
	p.metrics.gets.Inc()
	if p.closed.Load() {
		return nil, ErrClosed
	}
	if ts := p.tableSnap(table); ts != nil {
		if v := ts.get(key); v != nil && !v.deleted {
			return v, nil
		}
	}
	return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, table, key)
}

// getAsOf is the time-travel point read. The published root is
// collected under a brief read lock — any writer that already drew a
// commit ts ≤ ts publishes before releasing the partition, so a
// previously drawn SnapshotTS is a stable cut — then the chain walk
// itself is lock-free.
func (p *partition) getAsOf(table, key string, ts int64) (*VersionedRecord, error) {
	p.metrics.gets.Inc()
	if p.closed.Load() {
		return nil, ErrClosed
	}
	p.mu.RLock()
	snap := p.tableSnap(table)
	p.mu.RUnlock()
	return p.readAsOf(snap, table, key, ts)
}

// readAsOf resolves key in snap (nil: the table is not here) to its
// readable version at ts. A miss is ErrNotFound only when the store
// still knows the key had nothing readable at ts; when the version was
// trimmed, or a purge may have taken the key, it is ErrBelowHorizon.
func (p *partition) readAsOf(snap *treeSnapshot, table, key string, ts int64) (*VersionedRecord, error) {
	var v *VersionedRecord
	var trimmed bool
	if snap != nil {
		v, trimmed = versionAt(snap.get(key), ts)
	}
	switch {
	case v != nil && !v.deleted:
		return v, nil
	case v == nil && (trimmed || ts < p.purgeTS.Load()):
		return nil, fmt.Errorf("%w: %s/%s as of %d", ErrBelowHorizon, table, key, ts)
	}
	return nil, fmt.Errorf("%w: %s/%s as of %d", ErrNotFound, table, key, ts)
}

// each calls fn for every index of idx, or for 0..n-1 when idx is nil
// (the single-partition fast path, which skips building index lists).
func each(n int, idx []int, fn func(i int)) {
	if idx == nil {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	for _, i := range idx {
		fn(i)
	}
}

func errBadMutOp(op MutOp) error {
	return fmt.Errorf("kvstore: unknown mutation op %d", op)
}

// putIfVersion is the conditional-put core. When the WAL is in
// group-commit + sync mode the durability wait happens after the
// partition lock is released, so other writers proceed during the
// window — that interleaving is the whole point of group commit. The
// WAL pointer is captured under the lock because compact swaps p.wal
// while holding it; waiting on the captured object stays correct
// since the old WAL's close performs a final group sync that wakes
// its waiters.
//
// The new root is published (one atomic store) before the lock drops,
// matching the visibility the locked engine always had: a mutation is
// readable as soon as its writer releases the partition, and durable
// once the group commit covering its frame completes.
func (p *partition) putIfVersion(table, key string, fields map[string][]byte, expect uint64) (uint64, error) {
	p.metrics.puts.Inc()
	p.mu.Lock()
	if p.closed.Load() {
		p.mu.Unlock()
		return 0, ErrClosed
	}
	w := p.wal
	ver, seq, err := p.putLocked(w, table, key, fields, expect, false)
	if err == nil {
		p.publishLocked(table, p.tables[table])
	}
	p.mu.Unlock()
	if err != nil {
		return 0, err
	}
	if seq != 0 {
		if err := w.waitDurable(seq); err != nil {
			return 0, err
		}
	}
	return ver, nil
}

func (p *partition) update(table, key string, fields map[string][]byte) (uint64, error) {
	p.metrics.puts.Inc()
	p.mu.Lock()
	if p.closed.Load() {
		p.mu.Unlock()
		return 0, ErrClosed
	}
	w := p.wal // captured under p.mu: compact may swap p.wal after unlock
	ver, seq, err := p.putLocked(w, table, key, fields, AnyVersion, true)
	if err == nil {
		p.publishLocked(table, p.tables[table])
	}
	p.mu.Unlock()
	if err != nil {
		return 0, err
	}
	if seq != 0 {
		if err := w.waitDurable(seq); err != nil {
			return 0, err
		}
	}
	return ver, nil
}

// putLocked is the put/update core, requiring p.mu (write). With
// merge set it merges fields into the existing record (which must
// exist); otherwise it evaluates expect and stores a full replacement.
// Either way it builds a fresh *VersionedRecord — published records
// are immutable, which is what lets the read path hand them out
// without cloning. The new record draws the store-wide commit ts
// under the lock and is linked onto the key's existing chain (a
// tombstone head counts as "absent" for expect checks but stays in
// the chain, so as-of reads can still see through it). It returns the
// WAL sequence the caller must wait on for durability (0 = none). The
// WAL handle is passed in because callers capture p.wal under the
// lock and wait on that same object after unlocking. The caller
// publishes the new root.
func (p *partition) putLocked(w *wal, table, key string, fields map[string][]byte, expect uint64, merge bool) (uint64, uint64, error) {
	t := p.table(table)
	cur := t.get(key)
	live := cur
	if cur != nil && cur.deleted {
		live = nil
	}
	var stored *VersionedRecord
	if merge {
		if live == nil {
			return 0, 0, fmt.Errorf("%w: %s/%s", ErrNotFound, table, key)
		}
		// Published records are immutable, so the new version shares
		// the value slices of the fields the update leaves alone and
		// copies only what the caller passed in (which the caller still
		// owns). With a pin or a retention window keeping versions, a
		// deep clone per PATCH would hold a full record per update.
		stored = &VersionedRecord{Version: cur.Version + 1, Fields: make(map[string][]byte, len(live.Fields))}
		for f, b := range live.Fields {
			stored.Fields[f] = b
		}
		for f, b := range fields {
			stored.Fields[f] = append([]byte(nil), b...)
		}
	} else {
		switch expect {
		case AnyVersion:
		case MustNotExist:
			if live != nil {
				return 0, 0, fmt.Errorf("%w: %s/%s", ErrExists, table, key)
			}
		default:
			if live == nil {
				return 0, 0, fmt.Errorf("%w: %s/%s not found, expected version %d", ErrVersionMismatch, table, key, expect)
			}
			if live.Version != expect {
				return 0, 0, fmt.Errorf("%w: %s/%s at version %d, expected %d", ErrVersionMismatch, table, key, live.Version, expect)
			}
		}
		var next uint64 = 1
		if cur != nil {
			next = cur.Version + 1
		}
		stored = p.newRecord(next, 0, fields)
	}
	stored.CommitTS = p.store.nextTS()
	stored.link(cur)
	var seq uint64
	if w != nil {
		var err error
		if seq, err = w.append(walFrameOf(table, key, stored)); err != nil {
			return 0, 0, err
		}
	}
	t.put(key, stored)
	p.retireLocked(stored)
	return stored.Version, seq, nil
}

// retireLocked applies the reclaim horizon inline on the write path:
// if the new head's chain reaches below the reclaim horizon, the
// chain is cut after the newest version ≤ the horizon. The tail-ts
// hint makes the common case (nothing expired) a single comparison,
// keeping hot-key writes O(live chain). Requires p.mu; stored is not
// yet published, so its bookkeeping fields may still be rewritten.
func (p *partition) retireLocked(stored *VersionedRecord) {
	cut := p.store.cutTS(stored.CommitTS)
	if stored.tailTS <= cut {
		if n := cutChainAt(stored, cut); n > 0 {
			p.metrics.vacuumed.Add(n)
		}
		// Recompute the hints from the (possibly shortened) chain.
		depth := uint32(1)
		tail := stored
		for next := tail.prev.Load(); next != nil; next = tail.prev.Load() {
			tail = next
			depth++
		}
		stored.tailTS = tail.CommitTS
		stored.chainLen = depth
	}
	p.metrics.chainLen.Observe(float64(stored.chainLen))
}

func (p *partition) deleteIfVersion(table, key string, expect uint64) error {
	p.metrics.deletes.Inc()
	p.mu.Lock()
	if p.closed.Load() {
		p.mu.Unlock()
		return ErrClosed
	}
	w := p.wal // captured under p.mu: compact may swap p.wal after unlock
	seq, err := p.deleteLocked(w, table, key, expect)
	if err == nil {
		p.publishLocked(table, p.tables[table])
	}
	p.mu.Unlock()
	if err != nil {
		return err
	}
	if seq != 0 {
		if err := w.waitDurable(seq); err != nil {
			return err
		}
	}
	return nil
}

// deleteLocked is the delete core, requiring p.mu (write). A delete
// writes a tombstone version at the head of the chain — the key stays
// in the tree so as-of reads still see pre-delete versions — and the
// live count drops by one (btree.put accounts by liveness). The key
// itself is removed by Vacuum once the tombstone falls below the
// reclaim horizon. It returns the WAL sequence the caller must wait
// on for durability (0 = none). The caller publishes the new root.
func (p *partition) deleteLocked(w *wal, table, key string, expect uint64) (uint64, error) {
	t := p.table(table)
	cur := t.get(key)
	if cur == nil || cur.deleted {
		return 0, fmt.Errorf("%w: %s/%s", ErrNotFound, table, key)
	}
	if expect != AnyVersion && cur.Version != expect {
		return 0, fmt.Errorf("%w: %s/%s at version %d, expected %d", ErrVersionMismatch, table, key, cur.Version, expect)
	}
	tomb := &VersionedRecord{Version: cur.Version + 1, CommitTS: p.store.nextTS(), deleted: true}
	tomb.link(cur)
	var seq uint64
	if w != nil {
		var err error
		if seq, err = w.append(walFrameOf(table, key, tomb)); err != nil {
			return 0, err
		}
	}
	t.put(key, tomb)
	p.retireLocked(tomb)
	return seq, nil
}

func (p *partition) len(table string) int {
	ts := p.tableSnap(table)
	if ts == nil {
		return 0
	}
	return ts.size
}

func (p *partition) tableNames() []string {
	set := p.snaps.Load()
	names := make([]string, 0, len(set.tables))
	for n := range set.tables {
		names = append(names, n)
	}
	return names
}

func (p *partition) sync() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() {
		return ErrClosed
	}
	if p.wal == nil {
		return nil
	}
	return p.wal.sync()
}

func (p *partition) walSize() (int64, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed.Load() {
		return 0, ErrClosed
	}
	if p.wal == nil {
		return 0, nil
	}
	return p.wal.size()
}

func (p *partition) close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() {
		return nil
	}
	p.closed.Store(true)
	if p.wal != nil {
		return p.wal.close()
	}
	return nil
}
