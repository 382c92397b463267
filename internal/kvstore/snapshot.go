package kvstore

import "sync/atomic"

// Lock-free snapshot read path. Writers maintain the per-table btree
// handles under the partition mutex exactly as before, but because the
// write path is copy-on-write (see btree.go), a root pointer taken at
// any instant is an immutable point-in-time snapshot of the whole
// table. After every committed mutation the writer publishes the new
// root with one atomic store; Get, BatchGet, Scan and ForEach traverse
// the published snapshot with no lock and no record cloning. Go's
// garbage collector reclaims superseded nodes once the last reader
// drops them — the reason this design needs no epoch or hazard-pointer
// reclamation machinery.

// treeSnapshot is one published point-in-time view of a table: an
// immutable B-tree root plus the record count at publication time.
type treeSnapshot struct {
	root *node
	size int
}

// emptySnap is the snapshot readers see for a table that exists but
// has never been published with content (so loads never return nil
// through a live slot).
var emptySnap = &treeSnapshot{root: &node{}}

// get returns the record stored under key in this snapshot, or nil.
func (ts *treeSnapshot) get(key string) *VersionedRecord {
	n := ts.root
	for {
		i, ok := n.find(key)
		if ok {
			return n.vals[i]
		}
		if n.leaf() {
			return nil
		}
		n = n.children[i]
	}
}

// ascend visits every item of the snapshot with key ≥ start in order,
// until fn returns false.
func (ts *treeSnapshot) ascend(start string, fn func(key string, val *VersionedRecord) bool) {
	ts.root.ascend(start, fn)
}

// tableSlot holds one table's atomically published snapshot. Slots are
// created once per table and never removed, so readers can hold a slot
// pointer across root swaps.
type tableSlot struct {
	snap atomic.Pointer[treeSnapshot]

	// purgeTS is the table's own purge horizon: the newest tombstone
	// that left this table's index in this partition, inline with its
	// delete or by Vacuum. It is raised under the write lock before the
	// root without the key is published. The partition's purgeTS (open,
	// Drop) applies on top of it; see partition.purgedAt.
	purgeTS atomic.Int64

	// purgedVer is the highest version a tombstone purged from this
	// table's index here carried. A key written after its purge starts
	// its new chain above it (partition.chainStart), so a version a
	// reader or a CAS client holds does not come back. Open rebuilds it
	// from the replayed tombstones and from the mark frame a Compact
	// logs in place of the tombstones it drops. Guarded by the
	// partition's write lock.
	purgedVer uint64
}

// snapSet is a partition's read-side table index. The map itself is
// immutable — creating a table copies it into a fresh snapSet — so
// readers index it without any lock; only the slot contents change.
type snapSet struct {
	tables map[string]*tableSlot
}

var emptySnapSet = &snapSet{tables: map[string]*tableSlot{}}

// tableSnap returns the current snapshot of table, or nil when the
// table has never been published in this partition. Wait-free.
func (p *partition) tableSnap(table string) *treeSnapshot {
	slot := p.snaps.Load().tables[table]
	if slot == nil {
		return nil
	}
	return slot.snap.Load()
}

// slotLocked returns table's slot, creating it (by copying the snapSet
// map) when absent. Caller holds p.mu (write) or is in single-threaded
// open.
func (p *partition) slotLocked(table string) *tableSlot {
	set := p.snaps.Load()
	if slot, ok := set.tables[table]; ok {
		return slot
	}
	next := &snapSet{tables: make(map[string]*tableSlot, len(set.tables)+1)}
	for k, v := range set.tables {
		next.tables[k] = v
	}
	slot := &tableSlot{}
	slot.snap.Store(emptySnap)
	next.tables[table] = slot
	p.snaps.Store(next)
	return slot
}

// publishLocked swaps table's read snapshot to the writer tree's
// current root — the single atomic store that makes a committed
// mutation (or a whole batch of them) visible to the lock-free read
// path. Caller holds p.mu (write) or is in single-threaded open.
// Because publication happens only under the write lock, holding every
// partition's read lock while collecting roots yields a consistent
// multi-partition cut (see Store.snapshotTable).
func (p *partition) publishLocked(table string) {
	t := p.tables[table]
	slot := p.slotLocked(table)
	slot.snap.Store(&treeSnapshot{root: t.root, size: t.size})
	p.metrics.rootSwaps.Inc()
	p.metrics.retiredNodes.Add(int64(t.depth()))
}

// publishAll publishes every writer-side table; used after WAL replay
// to expose the recovered state to the read path.
func (p *partition) publishAll() {
	for name := range p.tables {
		p.publishLocked(name)
	}
}

// snapshotTable collects one snapshot per partition as a single
// consistent cut: all partition read locks are held only while the
// already-published roots are gathered (publication happens under the
// write lock, so no root can swap mid-collection), then traversal
// proceeds lock-free. Entries are nil for partitions where the table
// has never been published.
func (s *Store) snapshotTable(table string) ([]*treeSnapshot, error) {
	for _, p := range s.parts {
		p.mu.RLock()
	}
	snaps := make([]*treeSnapshot, len(s.parts))
	var err error
	for i, p := range s.parts {
		if p.closed.Load() {
			err = ErrClosed
			break
		}
		snaps[i] = p.tableSnap(table)
	}
	for _, p := range s.parts {
		p.mu.RUnlock()
	}
	if err != nil {
		return nil, err
	}
	return snaps, nil
}
