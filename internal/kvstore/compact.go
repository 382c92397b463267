package kvstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
)

// Compact rewrites every WAL segment as a snapshot of its partition's
// current state, reclaiming the space of overwritten and deleted
// records. Partitions compact concurrently and independently: each
// snapshot is written to a temporary file, fsynced, and atomically
// renamed over the segment, so a crash at any point leaves either the
// old segment or the complete new one. If swapping the new segment in
// fails after the old WAL is closed, that partition is marked closed
// (operations on its keys return ErrClosed) — reopen the store to
// recover from the on-disk state. No-op for in-memory stores.
func (s *Store) Compact() error {
	return s.fanOut(len(s.parts), func(i int) int { return i }, func(p *partition, _ []int) error {
		return p.compact()
	})
}

// compact rewrites this partition's segment under its write lock.
func (p *partition) compact() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() {
		return ErrClosed
	}
	if p.wal == nil {
		return nil
	}
	path := p.wal.f.Name()
	tmp := path + ".compact"

	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("kvstore: compacting: %w", err)
	}
	w := bufio.NewWriter(f)
	bp := walBufPool.Get().(*[]byte)
	defer walBufPool.Put(bp)
	writeFrame := func(rec walRecord) error {
		payload := appendWALRecord((*bp)[:0], rec)
		*bp = payload[:0] // keep the (possibly grown) buffer for reuse
		var header [8]byte
		binary.LittleEndian.PutUint32(header[:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(header[4:], crc32.ChecksumIEEE(payload))
		if _, err := w.Write(header[:]); err != nil {
			return err
		}
		_, err := w.Write(payload)
		return err
	}
	// Each key's version chain is rewritten oldest→newest so replay
	// relinks it in append order, preserving as-of reads across a
	// restart. Compaction applies the same reclaim horizon as Vacuum
	// while it rewrites: versions older than the newest one visible at
	// the cut are dropped, and keys whose head is a tombstone past the
	// cut vanish from the new segment entirely — so the log still
	// shrinks to (roughly) the retained state, not the full history.
	cut := p.store.cutTS(p.store.clock.Load())
	var chain []*VersionedRecord
	for table, tree := range p.tables {
		var werr error
		tree.ascend("", func(key string, val *VersionedRecord) bool {
			if val.deleted && val.CommitTS <= cut {
				return true // expired tombstone head: drop the key entirely
			}
			chain = chain[:0]
			for v := val; v != nil; v = v.Prev() {
				chain = append(chain, v)
				if v.CommitTS <= cut {
					break // newest version ≤ cut closes the retained suffix
				}
			}
			for i := len(chain) - 1; i >= 0; i-- {
				if werr = writeFrame(walFrameOf(table, key, chain[i])); werr != nil {
					return false
				}
			}
			return true
		})
		if werr != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("kvstore: compacting: %w", werr)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("kvstore: compacting: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("kvstore: compacting: %w", err)
	}

	// Swap the new segment in: close the old handle, rename, reopen
	// for appending at the end (restarting the group-commit syncer
	// when one is configured). Once the old WAL is closed the
	// partition has no live log: any failure before the new one is
	// installed marks the partition closed, so later mutations fail
	// fast instead of buffering into a closed file (or, in
	// group-commit mode, blocking forever on a syncer that exited).
	oldSync, oldGC, oldMetrics := p.wal.syncOn, p.wal.gcInterval, p.wal.metrics
	if err := p.wal.close(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("kvstore: compacting: closing old WAL: %w", err)
	}
	if err := f.Close(); err != nil {
		p.closed.Store(true)
		os.Remove(tmp)
		return fmt.Errorf("kvstore: compacting: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		p.closed.Store(true)
		return fmt.Errorf("kvstore: compacting: %w", err)
	}
	nw, err := openWAL(path, oldSync, oldGC)
	if err != nil {
		p.closed.Store(true)
		return err
	}
	// The fresh segment inherits the shard's metric series so the
	// fsync series stays continuous across compactions.
	nw.metrics = oldMetrics
	// Position for appending without replaying into the live store.
	if err := nw.seekEnd(); err != nil {
		p.closed.Store(true)
		nw.close()
		return err
	}
	p.wal = nw
	p.metrics.compactions.Inc()
	return nil
}

// WALSize reports the current total log size in bytes across all
// segments (0 for in-memory stores); useful for deciding when to
// compact.
func (s *Store) WALSize() (int64, error) {
	var total int64
	for _, p := range s.parts {
		n, err := p.walSize()
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}
