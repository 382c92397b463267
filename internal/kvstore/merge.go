package kvstore

import (
	"fmt"
	"math"
)

// The lazy cross-partition merge under Scan, ScanAsOf, ScanVersionsAsOf
// and ForEach: one iterator per partition snapshot, a heap over their
// current keys, and a visitor that says when to stop. Nothing is
// collected ahead of the visitor, so a scan for count records touches
// count index entries plus the one each other partition was primed
// with — not count from every partition.

// headTS reads a chain at its head: no commit ts is later.
const headTS = math.MaxInt64

// readAt is how every read — point or batched, scan or ForEach —
// resolves a chain head to the version it reads: the newest one with
// commit ts ≤ ts, delete versions kept or skipped.
type readAt struct {
	ts         int64
	tombstones bool
}

// resolve returns the version of head's chain the read sees, or nil;
// trimmed as for versionAt.
func (at readAt) resolve(head *VersionedRecord) (v *VersionedRecord, trimmed bool) {
	if v, trimmed = versionAt(head, at.ts); v == nil || (v.deleted && !at.tombstones) {
		return nil, trimmed
	}
	return v, false
}

// point resolves one key's chain head (nil: the key is not in the
// index) for a point read in a partition whose purge horizon is
// purgeTS. A miss as of a ts is ErrNotFound only when the store still
// knows the key had nothing readable then; when the version was
// trimmed, or a purge may have taken the key, it is ErrBelowHorizon.
func (at readAt) point(head *VersionedRecord, table, key string, purgeTS int64) (*VersionedRecord, error) {
	v, trimmed := versionAt(head, at.ts)
	switch {
	case v != nil && (!v.deleted || at.tombstones):
		return v, nil
	case at.ts == headTS:
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, table, key)
	case v == nil && (trimmed || at.ts < purgeTS):
		return nil, fmt.Errorf("%w: %s/%s as of %d", ErrBelowHorizon, table, key, at.ts)
	}
	return nil, fmt.Errorf("%w: %s/%s as of %d", ErrNotFound, table, key, at.ts)
}

// snapIter walks one immutable tree in key order without recursion:
// stack holds the path from the root, each frame the next item of its
// node still to come.
type snapIter struct {
	stack   []iterFrame
	buf     [8]iterFrame // backing for stack; deeper trees spill to the heap
	visited int          // index entries landed on, for kvstore_snapshot_scan_len

	// key and rec are the current entry, resolved.
	key string
	rec *VersionedRecord

	// trimmed is set, with key, when load stopped at a key whose version
	// at the read's ts has been reclaimed.
	trimmed bool
}

type iterFrame struct {
	n *node
	i int
}

// seek positions the iterator on the first item with key ≥ start.
func (it *snapIter) seek(root *node, start string) {
	it.stack = it.buf[:0]
	for n := root; ; {
		i, found := n.find(start)
		it.stack = append(it.stack, iterFrame{n, i})
		if found || n.leaf() {
			break
		}
		n = n.children[i]
	}
	it.settle()
}

// settle pops exhausted frames, leaving the top on the next item in
// key order, or the stack empty at the end of the tree.
func (it *snapIter) settle() {
	for len(it.stack) > 0 {
		if top := &it.stack[len(it.stack)-1]; top.i < len(top.n.items) {
			return
		}
		it.stack = it.stack[:len(it.stack)-1]
	}
}

// step moves past the current item: on into the subtree to its right
// when there is one, else along (or up from) the leaf.
func (it *snapIter) step() {
	top := &it.stack[len(it.stack)-1]
	top.i++
	if !top.n.leaf() {
		for n := top.n.children[top.i]; ; n = n.children[0] {
			it.stack = append(it.stack, iterFrame{n, 0})
			if n.leaf() {
				break
			}
		}
	}
	it.settle()
}

// load resolves the entry the iterator stands on, walking on past keys
// the read does not see; false at the end of the tree, or with trimmed
// set at a key whose version was reclaimed.
func (it *snapIter) load(at readAt) bool {
	for len(it.stack) > 0 {
		top := it.stack[len(it.stack)-1]
		item := &top.n.items[top.i]
		it.visited++
		v, trimmed := at.resolve(item.val)
		if v != nil || trimmed {
			it.key, it.rec, it.trimmed = item.key, v, trimmed
			return !trimmed
		}
		it.step()
	}
	return false
}

// merge visits, in key order, every record of table with key ≥ start
// as at reads it, until fn returns false. The partitions' roots are one
// consistent cut (snapshotTable); the walk itself takes no lock. A read
// below a partition's purge horizon, or one that meets a key whose
// version at the read's ts was reclaimed, fails with ErrBelowHorizon.
func (s *Store) merge(table, start string, at readAt, fn func(key string, rec *VersionedRecord) bool) error {
	snaps, err := s.snapshotTable(table)
	if err != nil {
		return err
	}
	if at.ts != headTS {
		for _, p := range s.parts {
			if at.ts < p.purgeTS.Load() {
				return fmt.Errorf("%w: %s as of %d", ErrBelowHorizon, table, at.ts)
			}
		}
	}
	iters := make([]snapIter, len(snaps))
	heap := make([]*snapIter, 0, len(snaps))
	var trimmed *snapIter
	for i, ts := range snaps {
		s.parts[i].metrics.scans.Inc()
		if ts == nil {
			continue
		}
		it := &iters[i]
		if it.seek(ts.root, start); it.load(at) {
			heap = append(heap, it)
		} else if it.trimmed {
			trimmed, heap = it, nil
			break
		}
	}
	// Partitions hold disjoint key sets, so the heap never sees a tie.
	for i := len(heap)/2 - 1; i >= 0; i-- {
		siftDown(heap, i)
	}
	for len(heap) > 0 {
		it := heap[0]
		if !fn(it.key, it.rec) {
			break
		}
		if it.step(); !it.load(at) {
			if it.trimmed {
				trimmed = it
				break
			}
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		siftDown(heap, 0)
	}
	for i := range iters {
		s.parts[i].metrics.snapScanLen.Observe(float64(iters[i].visited))
	}
	if trimmed != nil {
		return fmt.Errorf("%w: %s/%s as of %d", ErrBelowHorizon, table, trimmed.key, at.ts)
	}
	return nil
}

// siftDown restores the min-heap order of h below position i.
func siftDown(h []*snapIter, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		if r := l + 1; r < len(h) && h[r].key < h[l].key {
			l = r
		}
		if h[i].key <= h[l].key {
			return
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
}
