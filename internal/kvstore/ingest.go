package kvstore

// BulkKV is one record of an Ingest. Section is the record as a field
// section (image.go; nil: no fields) — a migration copy passes the
// source's page record on as it arrived. Version and CommitTS are
// optional: zero values default to version 1 and a freshly drawn
// commit timestamp. A migration copy passes both through, so the copy
// preserves the source's versions and as-of visibility; the
// destination clock is advanced past the largest provided CommitTS.
type BulkKV struct {
	Key      string
	Section  []byte
	Version  uint64
	CommitTS int64
}

// Ingest merges a batch of versioned records into table, preserving
// each record's Version and CommitTS. It layers a slot copied from
// *someone else's* heads into a table that is already serving traffic,
// so it takes the normal write path per partition: link onto the key's
// existing chain, WAL the frame, publish one new root per touched
// partition.
//
// Idempotence: a record whose key already has a head at the same or a
// newer CommitTS is skipped, so re-running a partially failed
// migration copy converges instead of stacking duplicate versions, and
// the late ingest of a migration that lost a race never overwrites what
// the winner's new owner has written since.
//
// Each section becomes the version's image through ownImage: a
// canonical one is copied as it stands, anything else re-encoded; no
// map is built. A malformed section fails its partition's share before
// any of it is applied.
//
// Like every multi-key operation, Ingest is atomic per partition, not
// across the store: readers may observe a prefix of the batch. The
// cluster layer only routes a slot to its new owner after the whole
// ingest returns, so that partial state is never served.
func (s *Store) Ingest(table string, kvs []BulkKV) error {
	if s.parts[0].isClosed() {
		return ErrClosed
	}
	return s.fanOut(len(kvs), func(i int) int { return shardOf(kvs[i].Key, len(s.parts)) }, func(p *partition, idx []int) error {
		share := kvs
		if idx != nil {
			share = make([]BulkKV, len(idx))
			for j, i := range idx {
				share[j] = kvs[i]
			}
		}
		return p.ingest(table, share)
	})
}

// ingest applies this partition's share of the batch in one write
// section.
func (p *partition) ingest(table string, kvs []BulkKV) error {
	images := make([][]byte, len(kvs))
	for i, kv := range kvs {
		var err error
		if images[i], err = ownImage(kv.Section); err != nil {
			return err
		}
	}
	ws, err := p.begin()
	if err != nil {
		return err
	}
	t := p.table(table)
	for i, kv := range kvs {
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
		rec := p.imageRecord(ver, ts, images[i])
		rec.link(cur)
		if err = ws.log(walFrameOf(table, kv.Key, rec)); err != nil {
			break
		}
		t.put(kv.Key, rec)
		p.retireLocked(rec)
		ws.touch(table)
	}
	return ws.end(err)
}

// Drop removes every key of table that keep rejects, with its whole
// version chain and no tombstone, and returns how many went: it is for
// data a node must forget (a slot it no longer owns), not a delete.
// Each removed key is logged (walDrop), so replay and a compacted log
// agree, and as-of reads below the drop answer ErrBelowHorizon for the
// keys it took. Like Ingest it is atomic per partition only. The
// partitions drop one after another, so keep is never called
// concurrently.
func (s *Store) Drop(table string, keep func(key string) bool) (int, error) {
	dropped := 0
	for _, p := range s.parts {
		n, err := p.drop(table, keep)
		dropped += n
		if err != nil {
			return dropped, err
		}
	}
	return dropped, nil
}

// drop removes this partition's share in one write section. keep runs
// over the published snapshot, outside the section; a key written
// after that is the caller's to keep out (a node refuses writes to a
// slot it does not own).
func (p *partition) drop(table string, keep func(key string) bool) (int, error) {
	var doomed []string
	if snap := p.tableSnap(table); snap != nil {
		snap.ascend("", func(key string, _ *VersionedRecord) bool {
			if !keep(key) {
				doomed = append(doomed, key)
			}
			return true
		})
	}
	ws, err := p.begin()
	if err != nil {
		return 0, err
	}
	if len(doomed) == 0 {
		return 0, ws.end(nil)
	}
	t := p.table(table)
	ts := p.store.nextTS()
	dropped := 0
	for _, key := range doomed {
		if err = ws.log(walRecord{Op: walDrop, Table: table, Key: key, CommitTS: ts}); err != nil {
			break
		}
		if t.delete(key) {
			dropped++
		}
	}
	p.purgeTS.Store(ts)
	ws.touch(table)
	return dropped, ws.end(err)
}
