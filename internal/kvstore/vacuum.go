package kvstore

// Vacuum trims MVCC garbage across every partition: each key's chain
// is cut after the newest version at or below the reclaim horizon
// (now − retention, clamped by pins and the external watermark), and
// keys whose head is an expired tombstone are removed from the tree
// entirely. It returns the number of versions unlinked and keys purged.
// A tombstone already at the horizon when it was written left the index
// with its delete (deleteLocked), so the keys Vacuum purges are the
// ones a pin, the watermark or the retention window held until now.
//
// The chain cuts are lock-free (one atomic prev store per cut — a
// reader pinned at or above the horizon can still reach every version
// it needs); only the tombstone purge runs in a write section, one per
// partition.
func (s *Store) Vacuum() (versions int64, keys int) {
	cut := s.cutTS(s.nextTS())
	for _, p := range s.parts {
		v, k := p.vacuum(cut, true)
		versions += v
		keys += k
	}
	return versions, keys
}

// cutChainAt unlinks everything older than the newest version ≤ cut,
// returning how many versions were dropped. Safe without the
// partition lock: the cut is a single atomic store, and concurrent
// walkers see either the full or the cut chain — both valid for any
// read at or above the cut.
func cutChainAt(head *VersionedRecord, cut int64) int64 {
	for v := head; v != nil; v = v.prev.Load() {
		if v.CommitTS > cut {
			continue
		}
		// v is the newest version ≤ cut: keep it, drop the rest.
		var dropped int64
		for d := v.prev.Load(); d != nil; d = d.prev.Load() {
			dropped++
		}
		if dropped > 0 {
			v.prev.Store(nil)
		}
		return dropped
	}
	return 0
}

// vacuum sweeps one partition at the given horizon. With trim false it
// only purges the keys whose head is a tombstone at or below cut and
// leaves every chain whole: Open's sweep, which keeps the replayed
// versions an as-of read below the open can still reach.
func (p *partition) vacuum(cut int64, trim bool) (int64, int) {
	if p.closed.Load() {
		return 0, 0
	}
	type deadKey struct{ table, key string }
	var dead []deadKey
	var versions int64
	set := p.snaps.Load()
	for name, slot := range set.tables {
		snap := slot.snap.Load()
		if snap == nil {
			continue
		}
		snap.ascend("", func(key string, head *VersionedRecord) bool {
			if trim {
				versions += cutChainAt(head, cut)
			}
			if head.deleted && head.CommitTS <= cut {
				dead = append(dead, deadKey{table: name, key: key})
			}
			p.metrics.chainLen.Observe(float64(chainLength(head)))
			return true
		})
	}
	keys := 0
	if len(dead) > 0 {
		if ws, err := p.begin(); err == nil {
			for _, dk := range dead {
				t := p.tables[dk.table]
				if t == nil {
					continue
				}
				// Re-check under the lock: the key may have been written
				// again (resurrected) since the snapshot was collected.
				cur := t.get(dk.key)
				if cur == nil || !cur.deleted || cur.CommitTS > cut {
					continue
				}
				p.purgeLocked(&ws, dk.table, dk.key, cur)
				keys++
			}
			ws.end()
		}
	}
	// A purged key drops its tombstone version too; the purge is not
	// WAL-logged (the tombstone frame already is — a restart replays it
	// and Open's sweep purges it again), and Compact rewrites the log
	// without it.
	p.metrics.vacuumed.Add(versions + int64(keys))
	return versions, keys
}

// chainLength counts the versions currently reachable from head.
func chainLength(head *VersionedRecord) int {
	n := 0
	for v := head; v != nil; v = v.prev.Load() {
		n++
	}
	return n
}
