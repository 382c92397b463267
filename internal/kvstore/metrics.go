package kvstore

import (
	"strconv"

	"ycsbt/internal/obs"
)

// partMetrics holds one partition's metric series. Every series is
// labelled by shard, so partitions never write the same cells; every
// method is a no-op on the zero value (nil series), which is what
// partitions carry when Options.Metrics is unset.
type partMetrics struct {
	gets        *obs.Counter
	puts        *obs.Counter
	deletes     *obs.Counter
	scans       *obs.Counter
	compactions *obs.Counter

	// Snapshot read-path series: root swaps published by writers, the
	// index entries each lock-free snapshot scan visited, and the
	// estimated number of B-tree nodes retired per publish (the copied root-to-leaf
	// path, i.e. tree depth) — a proxy for the garbage the COW write
	// path hands to the collector in place of epoch reclamation.
	rootSwaps    *obs.Counter
	retiredNodes *obs.Counter
	snapScanLen  *obs.Histogram

	// MVCC series: the length of each key's version chain observed at
	// write/vacuum time, and versions reclaimed (write-path retention
	// trims plus Vacuum cuts and tombstone purges).
	chainLen *obs.Histogram
	vacuumed *obs.Counter
}

// walMetrics instruments one WAL segment. Compaction swaps the wal
// object but hands the same metrics block to the replacement, so a
// shard's fsync series is continuous across compactions.
type walMetrics struct {
	// fsync observes the duration of every fsync, in seconds.
	fsync *obs.Histogram
}

// instrument registers the engine series on reg and hands every
// partition and WAL its own. A nil registry leaves them all nil
// (inert). Called once from Open, before the store is
// shared.
func (s *Store) instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Help("kvstore_ops_total", "Engine operations started, by kind and shard.")
	reg.Help("kvstore_wal_fsync_seconds", "WAL fsync latency per shard.")
	reg.Help("kvstore_compactions_total", "Completed WAL segment compactions, by shard.")
	reg.Help("kvstore_wal_bytes", "Total WAL size across all segments.")
	reg.Help("kvstore_snapshot_root_swaps_total", "B-tree roots atomically published to the lock-free read path, by shard.")
	reg.Help("kvstore_snapshot_retired_nodes_total", "Estimated B-tree nodes retired to the GC by copy-on-write publishes, by shard.")
	reg.Help("kvstore_snapshot_scan_len", "Index entries each lock-free snapshot scan visited, by shard.")
	reg.Help("kvstore_version_chain_len", "Version-chain length per key observed at write and vacuum time, by shard.")
	reg.Help("kvstore_versions_vacuumed_total", "Record versions reclaimed by retention trims and vacuum, by shard.")
	for i, p := range s.parts {
		sh := strconv.Itoa(i)
		p.metrics = partMetrics{
			gets:         reg.Counter("kvstore_ops_total", "op", "get", "shard", sh),
			puts:         reg.Counter("kvstore_ops_total", "op", "put", "shard", sh),
			deletes:      reg.Counter("kvstore_ops_total", "op", "delete", "shard", sh),
			scans:        reg.Counter("kvstore_ops_total", "op", "scan", "shard", sh),
			compactions:  reg.Counter("kvstore_compactions_total", "shard", sh),
			rootSwaps:    reg.Counter("kvstore_snapshot_root_swaps_total", "shard", sh),
			retiredNodes: reg.Counter("kvstore_snapshot_retired_nodes_total", "shard", sh),
			snapScanLen:  reg.Histogram("kvstore_snapshot_scan_len", obs.CountBuckets, "shard", sh),
			chainLen:     reg.Histogram("kvstore_version_chain_len", obs.CountBuckets, "shard", sh),
			vacuumed:     reg.Counter("kvstore_versions_vacuumed_total", "shard", sh),
		}
		if p.wal != nil {
			p.wal.metrics = &walMetrics{
				fsync: reg.Histogram("kvstore_wal_fsync_seconds", obs.DurationBuckets, "shard", sh),
			}
		}
	}
	reg.GaugeFunc("kvstore_wal_bytes", func() float64 {
		n, err := s.WALSize()
		if err != nil {
			return 0
		}
		return float64(n)
	})
	reg.Help("kvstore_versions_retained", "Record versions still reachable behind a key's head (version memory), counted at scrape time.")
	reg.Help("kvstore_versions_retained_bytes", "Image bytes of the versions in kvstore_versions_retained, counted at scrape time.")
	reg.GaugeFunc("kvstore_versions_retained", func() float64 {
		n, _ := s.retained()
		return float64(n)
	})
	reg.GaugeFunc("kvstore_versions_retained_bytes", func() float64 {
		_, b := s.retained()
		return float64(b)
	})
}

// retained walks every published chain, lock-free, and totals the
// versions behind the heads and their image bytes. It runs at scrape
// time so the write path pays nothing for the gauges.
func (s *Store) retained() (versions, bytes int64) {
	for _, p := range s.parts {
		for _, slot := range p.snaps.Load().tables {
			slot.snap.Load().ascend("", func(_ string, head *VersionedRecord) bool {
				for v := head.prev.Load(); v != nil; v = v.prev.Load() {
					versions++
					bytes += int64(len(v.image))
				}
				return true
			})
		}
	}
	return versions, bytes
}
