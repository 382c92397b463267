package kvstore

// Engine is the versioned ordered-KV contract the rest of the system
// programs against: point gets, conditional puts/deletes on record
// versions (the ETag idiom), ordered scans, full iteration, and
// maintenance hooks. The hash-partitioned Store is the embedded
// implementation; the interface is the seam future engines (an LSM
// variant, a remote store proxy) plug into without touching the
// layers above.
//
// All implementations must make single-key operations linearizable
// and Scan/ForEach results key-ordered.
//
// Immutability contract: records handed out by Get, BatchGet, Scan
// and ForEach are shared immutable snapshots, not private copies —
// callers must not mutate the Fields map or any byte slice in it (use
// VersionedRecord.Clone for a mutable copy), and implementations must
// never edit a handed-out record in place. This is what lets the
// partitioned store serve reads wait-free with zero allocations.
//
// Durability caveat: when a mutation returns an error after its WAL
// append (e.g. a failed group-commit fsync), the write's durability
// is unknown — it may already be visible to readers and recorded in
// the log, so it can survive a restart. An error from a mutation
// means "not known durable", not "rolled back".
type Engine interface {
	// Point operations.
	Get(table, key string) (*VersionedRecord, error)
	Put(table, key string, fields map[string][]byte) (uint64, error)
	Insert(table, key string, fields map[string][]byte) (uint64, error)
	PutIfVersion(table, key string, fields map[string][]byte, expect uint64) (uint64, error)
	Update(table, key string, fields map[string][]byte) (uint64, error)
	Delete(table, key string) error
	DeleteIfVersion(table, key string, expect uint64) error

	// Multi-key operations. Results are positional (out[i] answers
	// in[i]); per-item failures never abort the rest of the batch.
	// Implementations should amortize per-call costs across the batch
	// — the partitioned store takes one lock acquisition and one
	// group-commit wait per touched partition, concurrent across
	// partitions.
	BatchGet(reqs []GetReq) []GetResult
	BatchApply(muts []Mutation) []MutResult

	// Ordered access.
	Scan(table, startKey string, count int) ([]VersionedKV, error)
	ForEach(table string, fn func(key string, rec *VersionedRecord) bool) error

	// Time travel (MVCC). SnapshotTS draws a snapshot timestamp: every
	// already-acknowledged commit is ≤ it and every later commit is >
	// it, so the as-of reads below form a stable consistent cut at
	// that ts. Pin additionally freezes the cut against version
	// reclamation until its release func is called — a read at a merely
	// drawn (unpinned) ts may find its version reclaimed and fail with
	// ErrBelowHorizon unless a retention window covers it. As-of reads
	// resolve each key to its newest version with commit ts ≤ the
	// requested ts; deleted-at-ts keys are not found.
	SnapshotTS() int64
	Pin() (int64, func())
	GetAsOf(table, key string, ts int64) (*VersionedRecord, error)
	BatchGetAsOf(reqs []GetReq, ts int64) []GetResult
	ScanAsOf(table, startKey string, count int, ts int64) ([]VersionedKV, error)
	// ScanVersionsAsOf is ScanAsOf with tombstones included
	// (Record.Tombstone() distinguishes them) — the replication read a
	// migration copy uses so deletes travel with the data.
	ScanVersionsAsOf(table, startKey string, count int, ts int64) ([]VersionedKV, error)

	// Introspection.
	Len(table string) int
	Tables() []string

	// Maintenance and lifecycle. Ingest merges versioned records
	// (preserving Version/CommitTS) into a live table — the
	// shard-migration path.
	Ingest(table string, kvs []BulkKV) error
	Compact() error
	WALSize() (int64, error)
	Sync() error
	Close() error
}

// The partitioned store is the reference Engine.
var _ Engine = (*Store)(nil)
