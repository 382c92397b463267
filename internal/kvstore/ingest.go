package kvstore

import "sync"

// BulkKV is one record of an Ingest. Version and CommitTS are
// optional: zero values default to version 1 and a freshly drawn
// commit timestamp. A migration copy passes both through, so the copy
// preserves the source's versions and as-of visibility; the
// destination clock is advanced past the largest provided CommitTS.
// Deleted marks a tombstone: Ingest writes a delete version instead of
// fields, so a migrated slot carries its deletes along and a later
// copy back to a former owner cannot resurrect them.
type BulkKV struct {
	Key      string
	Fields   map[string][]byte
	Version  uint64
	CommitTS int64
	Deleted  bool
}

// Ingest merges a batch of versioned records into table, preserving
// each record's Version and CommitTS. It layers a consistent cut of
// *someone else's* keys (a shard-map slot copied as-of a pinned ts)
// into a table that is already serving traffic, so it takes the normal
// write path per partition: link onto the key's existing chain, WAL
// the frame, publish one new root per touched partition.
//
// Idempotence: a record whose key already has a head at the same or a
// newer CommitTS is skipped, so re-running a partially failed
// migration copy converges instead of stacking duplicate versions.
//
// Tombstones travel too: a BulkKV with Deleted set writes a delete
// version (same WAL frame the live delete path logs), so a slot copy
// that includes its deletes cannot resurrect a deleted key on a node
// that still holds an older live record from a previous ownership
// stint.
//
// Like every multi-key operation, Ingest is atomic per partition, not
// across the store: readers may observe a prefix of the batch. The
// cluster layer only routes a slot to its new owner after the whole
// ingest returns, so that partial state is never served.
func (s *Store) Ingest(table string, kvs []BulkKV) error {
	if s.parts[0].isClosed() {
		return ErrClosed
	}
	if len(kvs) == 0 {
		return nil
	}
	if len(s.parts) == 1 {
		return s.parts[0].ingest(table, kvs)
	}
	split := make([][]BulkKV, len(s.parts))
	for _, kv := range kvs {
		i := shardOf(kv.Key, len(s.parts))
		split[i] = append(split[i], kv)
	}
	errs := make([]error, len(s.parts))
	var wg sync.WaitGroup
	for i, p := range s.parts {
		if len(split[i]) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int, p *partition, sub []BulkKV) {
			defer wg.Done()
			errs[i] = p.ingest(table, sub)
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

// ingest applies this partition's share of the batch under one lock
// acquisition and one durability wait, mirroring the batch write
// path.
func (p *partition) ingest(table string, kvs []BulkKV) error {
	p.mu.Lock()
	if p.closed.Load() {
		p.mu.Unlock()
		return ErrClosed
	}
	w := p.wal // captured under p.mu: compact may swap p.wal after unlock
	t := p.table(table)
	var seq uint64
	var applied bool
	for _, kv := range kvs {
		cur := t.get(kv.Key)
		ver, ts := kv.Version, kv.CommitTS
		if ver == 0 {
			ver = 1
		}
		if ts == 0 {
			ts = p.store.nextTS()
		} else {
			p.store.advanceTS(ts)
		}
		if cur != nil && cur.CommitTS >= ts {
			continue // already have this version or newer (re-run)
		}
		var rec *VersionedRecord
		if kv.Deleted {
			rec = &VersionedRecord{Version: ver, CommitTS: ts, deleted: true}
		} else {
			rec = p.newRecord(ver, ts, kv.Fields)
		}
		rec.link(cur)
		if w != nil {
			n, err := w.append(walFrameOf(table, kv.Key, rec))
			if err != nil {
				// Publish what was applied so tree and snapshot agree.
				if applied {
					p.publishLocked(table, t)
				}
				p.mu.Unlock()
				return err
			}
			seq = n
		}
		t.put(kv.Key, rec)
		p.retireLocked(rec)
		applied = true
	}
	if applied {
		p.publishLocked(table, t)
	}
	p.mu.Unlock()
	if seq != 0 {
		if err := w.waitDurable(seq); err != nil {
			return err
		}
	}
	return nil
}
