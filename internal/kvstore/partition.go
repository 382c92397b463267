package kvstore

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// recentShapes is how many image shapes a partition remembers.
const recentShapes = 4

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
	// shapes holds the names of the last few images of distinct
	// shapes stored, a ring whose newest is before shapeNext; guarded
	// by mu. A transaction writes records of three shapes into one
	// partition (prepared, clean, status), so one would not do.
	shapes    [recentShapes]*shape
	shapeNext int
	wal       *wal
	store     *Store // shared state: commit clock, retention horizon
	closed    atomic.Bool

	// snaps is the read side: the atomically published per-table
	// snapshots the lock-free read path traverses.
	snaps atomic.Pointer[snapSet]

	// purgeTS is the newest commit ts at which a key of any table may
	// have left the index without a trace: the latest Drop, or the open
	// of a store recovered from its log. A purged tombstone raises only
	// its own table's horizon (tableSlot.purgeTS). An as-of read below
	// either cannot take a missing key as proof the key was absent.
	purgeTS atomic.Int64

	// metrics holds this shard's obs series; the zero value (nil
	// series) is inert. Written once in Store.instrument before
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
		image := rec.Image
		if image == nil {
			image = emptyImage // a put of no fields
		}
		stored := p.imageRecord(rec.Version, rec.CommitTS, image)
		cur := tree.get(rec.Key)
		stored.first = cur == nil && rec.Version == 1
		stored.link(cur)
		tree.put(rec.Key, stored)
	case walDeleteTS:
		tomb := &VersionedRecord{Version: rec.Version, CommitTS: rec.CommitTS, deleted: true}
		tomb.link(tree.get(rec.Key))
		tree.put(rec.Key, tomb)
	case walDrop:
		tree.delete(rec.Key)
	case walMark:
		// p.table made the tree, empty or not, so the next Compact
		// finds the table and logs its mark again.
		slot := p.slotLocked(rec.Table)
		slot.purgedVer = max(slot.purgedVer, rec.Version)
	default:
		return fmt.Errorf("unknown WAL op %d", rec.Op)
	}
	return nil
}

func (p *partition) isClosed() bool {
	return p.closed.Load()
}

// get is the one point read: it resolves table/key as at reads it and
// returns the engine-owned immutable record, which callers must not
// mutate. A head read takes no lock and, on a hit, allocates nothing.
func (p *partition) get(table, key string, at readAt) (*VersionedRecord, error) {
	p.metrics.gets.Inc()
	if p.closed.Load() {
		return nil, ErrClosed
	}
	return p.read(p.snapFor(table, at), table, key, at)
}

// snapFor returns the snapshot of table a read at at goes through
// (nil: the table is not here). A head read loads it wait-free. An
// as-of read collects it under a brief read lock: any writer that
// already drew a commit ts ≤ at.ts publishes before releasing the
// partition, so a previously drawn SnapshotTS is a stable cut.
func (p *partition) snapFor(table string, at readAt) *treeSnapshot {
	if at.ts == headTS {
		return p.tableSnap(table)
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.tableSnap(table)
}

// read resolves key in snap (see snapFor) as at reads it. Only an
// as-of read looks up the purge horizon.
func (p *partition) read(snap *treeSnapshot, table, key string, at readAt) (*VersionedRecord, error) {
	var head *VersionedRecord
	if snap != nil {
		head = snap.get(key)
	}
	var purged int64
	if at.ts != headTS {
		purged = p.purgedAt(table)
	}
	return at.point(head, table, key, purged)
}

// purgedAt is table's purge horizon in this partition: the newest
// commit ts at which one of its keys may have left the index, by a
// tombstone purge of the table's own, a Drop or a recovery.
func (p *partition) purgedAt(table string) int64 {
	ts := p.purgeTS.Load()
	if slot := p.snaps.Load().tables[table]; slot != nil {
		ts = max(ts, slot.purgeTS.Load())
	}
	return ts
}

// purgeLocked removes key, whose head is the tombstone tomb, from
// table's index, and raises the table's purge horizon to the
// tombstone's commit ts and its purged-version mark to its version.
// The purge is not WAL-logged: the tombstone frame already is, and Open
// purges the replayed tombstone again. Caller holds p.mu (write) inside
// ws.
func (p *partition) purgeLocked(ws *writeSection, table, key string, tomb *VersionedRecord) {
	p.tables[table].delete(key)
	slot := p.slotLocked(table)
	if tomb.CommitTS > slot.purgeTS.Load() {
		slot.purgeTS.Store(tomb.CommitTS)
	}
	slot.purgedVer = max(slot.purgedVer, tomb.Version)
	ws.touch(table)
}

// chainStart is the version a key of table that has no chain here
// starts one at: 1, or one above every tombstone the table has purged
// here, so that a key deleted, purged and written again never repeats
// a version of its earlier chain. Caller holds p.mu (write).
func (p *partition) chainStart(table string) uint64 {
	if slot := p.snaps.Load().tables[table]; slot != nil {
		return slot.purgedVer + 1
	}
	return 1
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

// writeSection is one pass through the partition's write protocol,
// which every mutation of a partition runs inside; DESIGN.md §7 ("One
// write section") gives the reasons for each step. begin locks the
// partition and captures its WAL segment, the writer logs each frame
// and touches each table it changes through the section, and end
// publishes, unlocks and waits.
type writeSection struct {
	p   *partition
	w   *wal   // p.wal as begin found it
	seq uint64 // the section's last WAL frame; 0: nothing to wait for

	// The tables the section changed, each published once by end. The
	// first is held inline, so a single-key write allocates nothing
	// for the list.
	touched bool
	first   string
	more    []string
}

// begin opens a write section on p, or fails with ErrClosed.
func (p *partition) begin() (writeSection, error) {
	p.mu.Lock()
	if p.closed.Load() {
		p.mu.Unlock()
		return writeSection{}, ErrClosed
	}
	return writeSection{p: p, w: p.wal}, nil
}

// log appends rec to the section's WAL segment (none: a volatile
// store).
func (ws *writeSection) log(rec walRecord) error {
	if ws.w == nil {
		return nil
	}
	seq, err := ws.w.append(rec)
	if seq != 0 {
		ws.seq = seq
	}
	return err
}

// touch records that the section changed table.
func (ws *writeSection) touch(table string) {
	switch {
	case !ws.touched:
		ws.touched, ws.first = true, table
	case table != ws.first && !slices.Contains(ws.more, table):
		ws.more = append(ws.more, table)
	}
}

// end closes the section: it publishes each touched table once,
// unlocks, and then — unless err says the writer stopped short — waits
// once for the group commit that covers the section's last frame. It
// returns err, or else the wait's error.
func (ws *writeSection) end(err error) error {
	if ws.touched {
		ws.p.publishLocked(ws.first)
		for _, t := range ws.more {
			ws.p.publishLocked(t)
		}
	}
	ws.p.mu.Unlock()
	if err != nil || ws.seq == 0 {
		return err
	}
	return ws.w.waitDurable(ws.seq)
}

// apply runs one mutation in a write section of its own.
func (p *partition) apply(m Mutation) (uint64, error) {
	ws, err := p.begin()
	if err != nil {
		return 0, err
	}
	ver, err := p.applyOneLocked(&ws, m)
	if err = ws.end(err); err != nil {
		return 0, err
	}
	return ver, nil
}

// applyOneLocked evaluates and applies one mutation inside ws,
// returning the new version (0 for a delete).
func (p *partition) applyOneLocked(ws *writeSection, m Mutation) (uint64, error) {
	switch m.Op {
	case MutPut:
		p.metrics.puts.Inc()
		return p.putLocked(ws, m.Table, m.Key, m.Fields, m.Expect, false)
	case MutUpdate:
		p.metrics.puts.Inc()
		return p.putLocked(ws, m.Table, m.Key, m.Fields, AnyVersion, true)
	case MutDelete:
		p.metrics.deletes.Inc()
		return 0, p.deleteLocked(ws, m.Table, m.Key, m.Expect)
	default:
		return 0, errBadMutOp(m.Op)
	}
}

// putLocked is the put/update core, run inside ws. With merge set it
// merges fields into the existing record (which must exist); otherwise
// it evaluates expect and stores a full replacement. Either way it
// builds a fresh *VersionedRecord — published records are immutable,
// which is what lets the read path hand them out without cloning. The
// new record draws the store-wide commit ts under the lock and is
// linked onto the key's existing chain (a tombstone head counts as
// "absent" for expect checks but stays in the chain, so as-of reads
// can still see through it).
func (p *partition) putLocked(ws *writeSection, table, key string, fields map[string][]byte, expect uint64, merge bool) (uint64, error) {
	t := p.table(table)
	cur := t.get(key)
	live := cur
	if cur != nil && cur.deleted {
		live = nil
	}
	var stored *VersionedRecord
	if merge {
		if live == nil {
			return 0, fmt.Errorf("%w: %s/%s", ErrNotFound, table, key)
		}
		// The new version is a new image: the old one's untouched
		// values and the caller's new ones (which the caller still
		// owns), copied in name order.
		stored = &VersionedRecord{Version: cur.Version + 1}
		stored.image, stored.shape = p.mergeImage(live, fields)
	} else {
		switch expect {
		case AnyVersion:
		case MustNotExist:
			if live != nil {
				return 0, fmt.Errorf("%w: %s/%s", ErrExists, table, key)
			}
		default:
			if live == nil {
				return 0, fmt.Errorf("%w: %s/%s not found, expected version %d", ErrVersionMismatch, table, key, expect)
			}
			if live.Version != expect {
				return 0, fmt.Errorf("%w: %s/%s at version %d, expected %d", ErrVersionMismatch, table, key, live.Version, expect)
			}
		}
		if cur != nil {
			stored = p.newRecord(cur.Version+1, 0, fields)
		} else {
			stored = p.newRecord(p.chainStart(table), 0, fields)
			stored.first = true
		}
	}
	stored.CommitTS = p.store.nextTS()
	stored.link(cur)
	if err := ws.log(walFrameOf(table, key, stored)); err != nil {
		return 0, err
	}
	t.put(key, stored)
	p.retireLocked(stored)
	ws.touch(table)
	return stored.Version, nil
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

// deleteLocked is the delete core, run inside ws. A delete logs a
// tombstone version. When the tombstone is already at or below the
// reclaim horizon — nothing pins, floors or retains a version it
// hides — the key leaves the index with it, chain and all, by the rule
// and with the purge horizon Vacuum would apply later. Otherwise the
// tombstone becomes the head of the chain, the key stays in the tree
// so as-of reads still see pre-delete versions, and Vacuum removes it
// once the horizon passes it. Either way the live count drops by one
// (btree.put and btree.delete account by liveness).
func (p *partition) deleteLocked(ws *writeSection, table, key string, expect uint64) error {
	t := p.table(table)
	cur := t.get(key)
	if cur == nil || cur.deleted {
		return fmt.Errorf("%w: %s/%s", ErrNotFound, table, key)
	}
	if expect != AnyVersion && cur.Version != expect {
		return fmt.Errorf("%w: %s/%s at version %d, expected %d", ErrVersionMismatch, table, key, cur.Version, expect)
	}
	tomb := &VersionedRecord{Version: cur.Version + 1, CommitTS: p.store.nextTS(), deleted: true}
	if err := ws.log(walFrameOf(table, key, tomb)); err != nil {
		return err
	}
	if tomb.CommitTS <= p.store.cutTS(tomb.CommitTS) {
		p.purgeLocked(ws, table, key, tomb)
		p.metrics.vacuumed.Add(int64(1 + chainLength(cur)))
		return nil
	}
	tomb.link(cur)
	t.put(key, tomb)
	p.retireLocked(tomb)
	ws.touch(table)
	return nil
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
