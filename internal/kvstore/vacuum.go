package kvstore

import "time"

// Vacuum trims MVCC garbage across every partition: each key's chain
// is cut after the newest version at or below the reclaim horizon
// (now − retention, clamped by pins and the external watermark), and
// keys whose head is an expired tombstone are removed from the tree
// entirely. It returns the number of versions unlinked and keys purged.
//
// The chain cuts are lock-free (one atomic prev store per cut — a
// reader pinned at or above the horizon can still reach every version
// it needs); only the tombstone purge runs in a write section, one per
// partition.
func (s *Store) Vacuum() (versions int64, keys int) {
	cut := s.cutTS(s.nextTS())
	for _, p := range s.parts {
		v, k := p.vacuum(cut)
		versions += v
		keys += k
	}
	return versions, keys
}

// startVacuumLoop runs Vacuum on the given period until Close.
func (s *Store) startVacuumLoop(interval time.Duration) {
	if interval <= 0 {
		return
	}
	s.vacStop = make(chan struct{})
	s.vacDone = make(chan struct{})
	go func() {
		defer close(s.vacDone)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-s.vacStop:
				return
			case <-t.C:
				s.Vacuum()
			}
		}
	}()
}

func (s *Store) stopVacuumLoop() {
	if s.vacStop == nil {
		return
	}
	s.vacOnce.Do(func() {
		close(s.vacStop)
		<-s.vacDone
	})
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

// vacuum sweeps one partition at the given horizon.
func (p *partition) vacuum(cut int64) (int64, int) {
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
			versions += cutChainAt(head, cut)
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
				t.delete(dk.key)
				keys++
				ws.touch(dk.table)
				if cur.CommitTS > p.purgeTS.Load() {
					p.purgeTS.Store(cur.CommitTS)
				}
			}
			_ = ws.end(nil) // nothing logged: no wait, so no error
		}
	}
	// A purged key drops its tombstone version too; the purge is not
	// WAL-logged (the tombstone frame already is — a restart rebuilds
	// it and the next sweep purges it again), and Compact rewrites the
	// log without it.
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
