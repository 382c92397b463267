package kvstore

import (
	"fmt"
	"sort"
	"sync"
)

// BulkKV is one record of a bulk load. Version and CommitTS are
// optional: zero values default to version 1 and a freshly drawn
// commit timestamp. Callers replaying a consistent cut from another
// store (backup seeding) pass both through so the copy preserves the
// source's versions and as-of visibility; the destination clock is
// advanced past the largest provided CommitTS. Deleted marks a
// tombstone: Ingest writes a delete version instead of fields, so a
// migrated slot carries its deletes along and a later copy back to a
// former owner cannot resurrect them. BulkLoad rejects tombstones (a
// fresh table has nothing to delete).
type BulkKV struct {
	Key      string
	Fields   map[string][]byte
	Version  uint64
	CommitTS int64
	Deleted  bool
}

// BulkLoad loads a sorted batch of records into an empty table by
// constructing each partition's B-tree bottom-up — the load-phase
// optimization YCSB++ added for HBase/Accumulo-style stores, which
// the YCSB+T paper cites as complementary work. Compared to
// sequential inserts it performs no node splits and writes each WAL
// frame exactly once, so the load phase of a large benchmark is
// dominated by I/O rather than tree maintenance. With multiple shards
// the batch is split by key hash and the partitions build (and log)
// concurrently.
//
// Keys must be strictly increasing and the table empty; records are
// stored at version 1. The emptiness precondition is checked without
// a store-wide lock and re-verified per partition, so two concurrent
// BulkLoads into the same table race: one fails with an error rather
// than clobbering the other, but the table may be left partially
// loaded. Run at most one load per table at a time.
func (s *Store) BulkLoad(table string, kvs []BulkKV) error {
	if s.parts[0].isClosed() {
		return ErrClosed
	}
	if n := s.Len(table); n > 0 {
		return fmt.Errorf("kvstore: bulk load into non-empty table %q (%d records)", table, n)
	}
	if !sort.SliceIsSorted(kvs, func(i, j int) bool { return kvs[i].Key < kvs[j].Key }) {
		return fmt.Errorf("kvstore: bulk load input not sorted")
	}
	for i := 1; i < len(kvs); i++ {
		if kvs[i].Key == kvs[i-1].Key {
			return fmt.Errorf("kvstore: duplicate key %q in bulk load", kvs[i].Key)
		}
	}
	for _, kv := range kvs {
		if kv.Deleted {
			return fmt.Errorf("kvstore: tombstone for %q in bulk load (deletes only make sense in Ingest)", kv.Key)
		}
	}
	if len(s.parts) == 1 {
		return s.parts[0].bulkLoad(table, kvs)
	}

	// Split by key hash; each partition's slice stays sorted because
	// it is a subsequence of sorted input.
	split := make([][]BulkKV, len(s.parts))
	for _, kv := range kvs {
		i := shardOf(kv.Key, len(s.parts))
		split[i] = append(split[i], kv)
	}
	errs := make([]error, len(s.parts))
	var wg sync.WaitGroup
	for i, p := range s.parts {
		wg.Add(1)
		go func(i int, p *partition, sub []BulkKV) {
			defer wg.Done()
			errs[i] = p.bulkLoad(table, sub)
		}(i, p, split[i])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// bulkLoad builds this partition's tree bottom-up from its (sorted)
// share of the batch. The store-level emptiness check is re-verified
// here under p.mu so a racing load or insert cannot be silently
// clobbered by the unconditional tree swap below.
func (p *partition) bulkLoad(table string, kvs []BulkKV) error {
	p.mu.Lock()
	if p.closed.Load() {
		p.mu.Unlock()
		return ErrClosed
	}
	if t := p.tables[table]; t != nil && t.size > 0 {
		p.mu.Unlock()
		return fmt.Errorf("kvstore: bulk load raced a concurrent write to table %q (%d records)", table, t.size)
	}
	items := make([]item, len(kvs))
	var seq uint64
	w := p.wal // captured under p.mu: compact may swap p.wal after unlock
	for i, kv := range kvs {
		ver, ts := kv.Version, kv.CommitTS
		if ver == 0 {
			ver = 1
		}
		if ts == 0 {
			ts = p.store.nextTS()
		} else {
			p.store.advanceTS(ts)
		}
		rec := p.newRecord(ver, ts, kv.Fields)
		rec.link(nil)
		items[i] = item{key: kv.Key, val: rec}
		if w != nil {
			n, err := w.append(walFrameOf(table, kv.Key, rec))
			if err != nil {
				p.mu.Unlock()
				return err
			}
			seq = n
		}
	}
	t := buildBTree(items)
	p.tables[table] = t
	// One root swap exposes the whole load to the lock-free read path.
	p.publishLocked(table, t)
	p.mu.Unlock()
	if seq != 0 {
		// Group-commit + sync mode: one wait covers the whole batch.
		if err := w.waitDurable(seq); err != nil {
			return err
		}
	}
	return nil
}

// buildBTree constructs a valid B-tree from sorted items, level by
// level: leaves are packed to full fill, the separators between them
// become the next level's items, and underfull tail nodes borrow from
// their left sibling so every non-root node keeps ≥ t-1 items.
func buildBTree(items []item) *btree {
	t := &btree{size: len(items)}
	if len(items) == 0 {
		t.root = &node{}
		return t
	}
	const fill = 2*btreeMinDegree - 1

	// Level 0: pack leaves, reserving one separator item between
	// consecutive leaves.
	var level []*node
	var seps []item
	for i := 0; i < len(items); {
		end := i + fill
		if end > len(items) {
			end = len(items)
		}
		level = append(level, &node{items: append([]item(nil), items[i:end]...)})
		i = end
		if i < len(items) {
			seps = append(seps, items[i])
			i++
			// A separator must sit between two leaves; if it consumed
			// the final item, add the (empty) right leaf for
			// rebalanceTail to fill from its sibling.
			if i == len(items) {
				level = append(level, &node{})
			}
		}
	}
	rebalanceTail(level, seps)

	// Build parent levels until a single root remains.
	for len(level) > 1 {
		var parents []*node
		var parentSeps []item
		ci, si := 0, 0
		for ci < len(level) {
			p := &node{}
			p.children = append(p.children, level[ci])
			ci++
			for len(p.items) < fill && ci < len(level) && si < len(seps) {
				p.items = append(p.items, seps[si])
				si++
				p.children = append(p.children, level[ci])
				ci++
			}
			parents = append(parents, p)
			if ci < len(level) && si < len(seps) {
				parentSeps = append(parentSeps, seps[si])
				si++
			}
		}
		rebalanceTail(parents, parentSeps)
		level, seps = parents, parentSeps
	}
	t.root = level[0]
	return t
}

// rebalanceTail fixes the last node of a freshly built level when it
// is underfull: it redistributes items (and children) with its left
// sibling through their separator, leaving both with ≥ t-1 items.
func rebalanceTail(level []*node, seps []item) {
	n := len(level)
	if n < 2 {
		return
	}
	last, prev := level[n-1], level[n-2]
	if len(last.items) >= btreeMinDegree-1 {
		return
	}
	sep := &seps[n-2]
	// Merge prev + sep + last, then split evenly.
	all := append(append(append([]item(nil), prev.items...), *sep), last.items...)
	allKids := append(append([]*node(nil), prev.children...), last.children...)
	half := len(all) / 2
	prev.items = append([]item(nil), all[:half]...)
	*sep = all[half]
	last.items = append([]item(nil), all[half+1:]...)
	if len(allKids) > 0 {
		prev.children = append([]*node(nil), allKids[:half+1]...)
		last.children = append([]*node(nil), allKids[half+1:]...)
	}
}
