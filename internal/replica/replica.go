// Package replica implements a primary-backup replicated key-value
// store over the embedded engine — the substrate for the replication
// trade-offs the paper's background section lays out ("Replicating
// data improves performance, system availability and avoids data
// loss. This can be done either synchronously or asynchronously.
// Synchronous replication increases write and update latency while
// asynchronous replication reduces latency but also reduces
// consistency guarantees caused by stale data").
//
// A replica.Store exposes the same interface as every other store
// substrate (versioned get/scan, conditional put/delete), so the
// transaction libraries and benchmark bindings run against it
// unchanged. Writes are evaluated at the primary; the committed
// post-image flows to each backup either through per-backup ordered
// lanes that acknowledge once a configurable quorum has applied
// (Sync — see Config.Quorum) or from a background queue with optional
// replication lag (Async).
//
// Fault injection mirrors the availability tier YCSB sketches:
// FailPrimary makes the primary unreachable, Promote elects the first
// backup — reporting how many acknowledged writes were still in the
// replication queue and are now lost (always zero under Sync).
package replica

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ycsbt/internal/kvstore"
	"ycsbt/internal/obs"
)

// Mode selects the replication discipline.
type Mode int

const (
	// Sync applies every write to a quorum of backups before
	// acknowledging; the remaining backups drain asynchronously from
	// per-backup ordered lanes (see Config.Quorum).
	Sync Mode = iota
	// Async acknowledges after the primary write and replicates from
	// a background queue.
	Async
)

// ReadPolicy selects where reads are served.
type ReadPolicy int

const (
	// ReadPrimary serves reads from the primary (strong).
	ReadPrimary ReadPolicy = iota
	// ReadBackup serves reads round-robin from the backups; under
	// Async this exposes replication lag as stale reads — the
	// "eventual consistency" end of the trade-off.
	ReadBackup
)

// Errors.
var (
	// ErrPrimaryDown reports an operation against a failed primary.
	ErrPrimaryDown = errors.New("replica: primary is down")
	// ErrClosed reports use after Close.
	ErrClosed = errors.New("replica: store is closed")
)

// Config tunes a replicated store.
type Config struct {
	// Name identifies the store to the transaction libraries.
	Name string
	// Backups is the number of backup replicas (≥ 1).
	Backups int
	// Mode is Sync or Async.
	Mode Mode
	// Quorum is how many backups must apply a Sync write before it is
	// acknowledged (1 ≤ Quorum ≤ Backups). 0 selects the majority
	// default ⌈(Backups+1)/2⌉ — with 1 or 2 backups that equals all of
	// them, so small deployments keep the classic "sync = everywhere"
	// semantics. Backups beyond the quorum receive the same writes in
	// the same order from their lanes, just off the ack path.
	// Ignored under Async.
	Quorum int
	// ReadPolicy is ReadPrimary or ReadBackup.
	ReadPolicy ReadPolicy
	// QueueSize bounds the async replication queue (default 4096);
	// a full queue applies backpressure (the write blocks).
	QueueSize int
	// ReplicaLag delays each async apply, modelling the network hop
	// to a remote backup.
	ReplicaLag time.Duration
	// Shards is the hash-partition count of each replica's engine; 0
	// means kvstore.DefaultShards.
	Shards int
	// Metrics, when non-nil, receives the replica_* series: lag and
	// queue-depth gauges, per-backup batch-size histogram, applied
	// counter.
	Metrics *obs.Registry
}

// repOp is one replicated operation (the committed post-image).
type repOp struct {
	del    bool
	table  string
	key    string
	fields map[string][]byte
}

// mutation converts the post-image to the engine's multi-key form.
func (op repOp) mutation() kvstore.Mutation {
	if op.del {
		return kvstore.Mutation{Op: kvstore.MutDelete, Table: op.table, Key: op.key, Expect: kvstore.AnyVersion}
	}
	return kvstore.Mutation{Op: kvstore.MutPut, Table: op.table, Key: op.key, Fields: op.fields, Expect: kvstore.AnyVersion}
}

// syncJob is one write travelling down every backup lane. Each lane
// applies it and sends one ack; the writer returns after quorum acks,
// and the lane whose decrement empties rem counts the write as fully
// replicated.
type syncJob struct {
	muts []kvstore.Mutation
	rem  *atomic.Int32
	ack  chan struct{}
}

// lane is one backup's ordered apply queue. A goroutine drains ch in
// FIFO order, so a slow backup can fall behind but never reorders
// writes; pending counts jobs enqueued and not yet applied so Promote,
// Close and BulkLoad can drain stragglers.
type lane struct {
	eng     *kvstore.Store
	ch      chan syncJob
	pending sync.WaitGroup
}

// laneQueueSize bounds each backup lane; a straggler more than this
// many writes behind applies backpressure (the writer blocks on the
// enqueue), keeping the quorum window bounded.
const laneQueueSize = 1024

// Store is a primary-backup replicated store.
type Store struct {
	cfg Config

	// topo guards the replica topology (which engine is primary,
	// which are backups); Promote rewires it while reads hold RLock.
	topo    sync.RWMutex
	primary *kvstore.Store
	backups []*kvstore.Store

	writeMu sync.Mutex // serializes the write path: primary apply + enqueue order
	queue   chan repOp
	drained chan struct{} // closed when the applier exits
	applied atomic.Int64
	acked   atomic.Int64

	// Sync-mode replication lanes, one per backup. Only the writer
	// (under writeMu) touches the slice; the goroutines live until
	// stopLanes closes their channels. quorum is atomic because the
	// metrics gauge reads it while Promote may be clamping it.
	quorum atomic.Int32
	lanes  []*lane
	laneWG sync.WaitGroup

	// stallBackup, when non-nil, runs in lane idx before each apply —
	// a test hook for modelling a stalled backup. Set it before the
	// first write (the enqueue's channel send orders the read).
	stallBackup func(idx int)

	rr     atomic.Int64 // round-robin backup cursor
	down   atomic.Bool
	closed atomic.Bool

	// obs handles; nil (uninstrumented) handles no-op.
	mBatchItems *obs.Histogram
	mApplied    *obs.Counter
}

// newEngine builds one replica's in-memory partitioned engine. Only
// the initial primary passes a registry: the kvstore_* series then
// count the writes the node acknowledges, not every backup copy of
// them. (A promoted backup serves uninstrumented; the replica_* series
// keep covering the node either way.)
func newEngine(shards int, reg *obs.Registry) *kvstore.Store {
	s, _ := kvstore.Open(kvstore.Options{Shards: shards, Metrics: reg}) // in-memory open cannot fail
	return s
}

// New builds a replicated store with fresh in-memory replicas.
func New(cfg Config) (*Store, error) {
	if cfg.Backups < 1 {
		return nil, fmt.Errorf("replica: need at least one backup, got %d", cfg.Backups)
	}
	if cfg.Quorum < 0 || cfg.Quorum > cfg.Backups {
		return nil, fmt.Errorf("replica: quorum %d out of range [1,%d]", cfg.Quorum, cfg.Backups)
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 4096
	}
	if cfg.Shards <= 0 {
		cfg.Shards = kvstore.DefaultShards
	}
	quorum := cfg.Quorum
	if quorum == 0 {
		quorum = (cfg.Backups + 2) / 2 // ⌈(n+1)/2⌉: majority, = all for n ≤ 2
	}
	s := &Store{
		cfg:     cfg,
		primary: newEngine(cfg.Shards, cfg.Metrics),
		drained: make(chan struct{}),
	}
	s.quorum.Store(int32(quorum))
	for i := 0; i < cfg.Backups; i++ {
		s.backups = append(s.backups, newEngine(cfg.Shards, nil))
	}
	if cfg.Mode == Async {
		s.queue = make(chan repOp, cfg.QueueSize)
	}
	if reg := cfg.Metrics; reg != nil {
		reg.Help("replica_lag_ops", "Acknowledged writes not yet applied to every backup (bounded by the straggler lanes under Sync).")
		reg.Help("replica_queue_depth", "Post-images waiting in the async replication queue.")
		reg.Help("replica_backup_batch_items", "Post-images shipped per backup per engine batch.")
		reg.Help("replica_applied_total", "Writes fully replicated to all backups.")
		reg.Help("replica_quorum_size", "Backups that must apply a Sync write before it is acknowledged.")
		reg.GaugeFunc("replica_lag_ops", func() float64 { return float64(s.Lag()) })
		reg.GaugeFunc("replica_quorum_size", func() float64 { return float64(s.Quorum()) })
		reg.GaugeFunc("replica_queue_depth", func() float64 {
			if s.queue == nil {
				return 0
			}
			return float64(len(s.queue))
		})
		s.mBatchItems = reg.Histogram("replica_backup_batch_items", obs.CountBuckets)
		s.mApplied = reg.Counter("replica_applied_total")
	}
	if cfg.Mode == Async {
		go s.applier()
	} else {
		close(s.drained)
		s.startLanes()
	}
	return s, nil
}

// Quorum reports how many backups must apply a Sync write before the
// writer is acknowledged.
func (s *Store) Quorum() int { return int(s.quorum.Load()) }

// startLanes spawns one ordered apply lane per current backup. Called
// from New and (under writeMu) after Promote rewires the topology.
func (s *Store) startLanes() {
	s.topo.RLock()
	backups := s.backups
	s.topo.RUnlock()
	s.lanes = make([]*lane, len(backups))
	for i, b := range backups {
		l := &lane{eng: b, ch: make(chan syncJob, laneQueueSize)}
		s.lanes[i] = l
		s.laneWG.Add(1)
		go s.runLane(i, l)
	}
}

// runLane is one backup's apply loop: jobs arrive in write order and
// apply in write order. The lane that completes a job's last apply
// counts the write as fully replicated, then acks the writer.
func (s *Store) runLane(idx int, l *lane) {
	defer s.laneWG.Done()
	for job := range l.ch {
		if hook := s.stallBackup; hook != nil {
			hook(idx)
		}
		l.eng.BatchApply(job.muts) // per-item errors ignored: a missing key on delete is fine
		s.mBatchItems.Observe(float64(len(job.muts)))
		if job.rem.Add(-1) == 0 {
			s.applied.Add(int64(len(job.muts)))
			s.mApplied.Add(int64(len(job.muts)))
		}
		job.ack <- struct{}{}
		l.pending.Done()
	}
}

// drainLanes waits until every enqueued job has applied on every
// backup. Caller holds writeMu, so no new jobs arrive meanwhile.
func (s *Store) drainLanes() {
	for _, l := range s.lanes {
		l.pending.Wait()
	}
}

// stopLanes closes the (drained) lanes so their goroutines exit.
// Caller holds writeMu.
func (s *Store) stopLanes() {
	for _, l := range s.lanes {
		close(l.ch)
	}
	s.lanes = nil
	s.laneWG.Wait()
}

// maxApplyBatch bounds how many queued post-images the applier ships
// to the backups in one engine batch.
const maxApplyBatch = 64

// applier is the async replication worker: it drains the queue into
// bounded batches, paying the replica-lag hop and the backups' lock
// round once per batch rather than once per write — a backlog of N
// writes catches up in N/maxApplyBatch hops instead of N.
func (s *Store) applier() {
	defer close(s.drained)
	batch := make([]repOp, 0, maxApplyBatch)
	for op := range s.queue {
		batch = append(batch[:0], op)
	drain:
		for len(batch) < maxApplyBatch {
			select {
			case more, ok := <-s.queue:
				if !ok {
					break drain
				}
				batch = append(batch, more)
			default:
				break drain
			}
		}
		s.applyToBackups(s.cfg.ReplicaLag, batch...)
		s.applied.Add(int64(len(batch)))
		s.mApplied.Add(int64(len(batch)))
	}
}

// applyToBackups ships an ordered run of post-images to every backup
// through the engine's multi-key path, pipelined: each backup gets its
// own goroutine that pays the lag hop (the per-backup network delay)
// and then applies, so N backups cost one lag plus the slowest apply
// instead of N× either. The call still waits for every backup before
// returning, so batch k+1 never races batch k on the same backup —
// order within and across batches stays queue order, and a later put
// of the same key wins as it must. (Async path only; Sync replication
// flows through the per-backup lanes.)
func (s *Store) applyToBackups(lag time.Duration, ops ...repOp) {
	s.topo.RLock()
	backups := s.backups
	s.topo.RUnlock()
	muts := make([]kvstore.Mutation, len(ops))
	for i, op := range ops {
		if op.del {
			muts[i] = kvstore.Mutation{Op: kvstore.MutDelete, Table: op.table, Key: op.key, Expect: kvstore.AnyVersion}
		} else {
			muts[i] = kvstore.Mutation{Op: kvstore.MutPut, Table: op.table, Key: op.key, Fields: op.fields, Expect: kvstore.AnyVersion}
		}
	}
	ship := func(b *kvstore.Store) {
		if lag > 0 {
			time.Sleep(lag)
		}
		b.BatchApply(muts) // per-item errors ignored: a missing key on delete is fine
		s.mBatchItems.Observe(float64(len(muts)))
	}
	if len(backups) == 1 {
		ship(backups[0])
		return
	}
	var wg sync.WaitGroup
	for _, b := range backups {
		wg.Add(1)
		go func(b *kvstore.Store) {
			defer wg.Done()
			ship(b)
		}(b)
	}
	wg.Wait()
}

// replicate ships one committed post-image per the mode. Caller holds
// writeMu, so lane/queue order matches primary apply order. Sync mode
// pays no lag hop (the lag models the async path's network distance).
//
// Under Sync the write goes down every backup lane but the writer
// waits for only quorum acks: a stalled backup off the quorum path
// cannot add latency, it just drains later (bounded by laneQueueSize,
// after which its lane's enqueue blocks the writer — backpressure, not
// unbounded divergence).
func (s *Store) replicate(op repOp) {
	s.acked.Add(1)
	if s.cfg.Mode == Sync {
		job := syncJob{
			muts: []kvstore.Mutation{op.mutation()},
			rem:  new(atomic.Int32),
			ack:  make(chan struct{}, len(s.lanes)),
		}
		job.rem.Store(int32(len(s.lanes)))
		for _, l := range s.lanes {
			l.pending.Add(1)
			l.ch <- job
		}
		for i := 0; i < s.Quorum(); i++ {
			<-job.ack
		}
		return
	}
	s.queue <- op
}

// Name implements the store interface.
func (s *Store) Name() string { return s.cfg.Name }

// Lag reports acknowledged writes not yet applied to every backup —
// the async queue backlog, or under Sync the writes still draining
// through straggler lanes beyond the quorum (0 when quorum = all).
func (s *Store) Lag() int64 { return s.acked.Load() - s.applied.Load() }

// Flush blocks until every acknowledged write reaches every backup
// (the async queue or the sync straggler lanes drain).
func (s *Store) Flush() {
	for s.Lag() > 0 && !s.closed.Load() {
		time.Sleep(time.Millisecond)
	}
}

func (s *Store) checkUp() error {
	if s.closed.Load() {
		return ErrClosed
	}
	if s.down.Load() {
		return ErrPrimaryDown
	}
	return nil
}

// readTarget picks the engine a read goes to per the read policy.
func (s *Store) readTarget() (*kvstore.Store, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	s.topo.RLock()
	defer s.topo.RUnlock()
	if s.cfg.ReadPolicy == ReadBackup {
		return s.backups[int(s.rr.Add(1))%len(s.backups)], nil
	}
	if s.down.Load() {
		return nil, ErrPrimaryDown
	}
	return s.primary, nil
}

// Get implements the store interface per the read policy.
func (s *Store) Get(_ context.Context, table, key string) (*kvstore.VersionedRecord, error) {
	t, err := s.readTarget()
	if err != nil {
		return nil, err
	}
	return t.Get(table, key)
}

// Put implements the store interface: conditional at the primary,
// post-image replicated.
func (s *Store) Put(_ context.Context, table, key string, fields map[string][]byte, expect uint64) (uint64, error) {
	if err := s.checkUp(); err != nil {
		return 0, err
	}
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	s.topo.RLock()
	primary := s.primary
	s.topo.RUnlock()
	ver, err := primary.PutIfVersion(table, key, fields, expect)
	if err != nil {
		return 0, err
	}
	s.replicate(repOp{table: table, key: key, fields: cloneFields(fields)})
	return ver, nil
}

// Delete implements the store interface.
func (s *Store) Delete(_ context.Context, table, key string, expect uint64) error {
	if err := s.checkUp(); err != nil {
		return err
	}
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	s.topo.RLock()
	primary := s.primary
	s.topo.RUnlock()
	if err := primary.DeleteIfVersion(table, key, expect); err != nil {
		return err
	}
	s.replicate(repOp{del: true, table: table, key: key})
	return nil
}

// Scan implements the store interface per the read policy.
func (s *Store) Scan(_ context.Context, table, startKey string, count int) ([]kvstore.VersionedKV, error) {
	t, err := s.readTarget()
	if err != nil {
		return nil, err
	}
	return t.Scan(table, startKey, count)
}

// Primary exposes the primary engine (for validation and tests).
func (s *Store) Primary() *kvstore.Store {
	s.topo.RLock()
	defer s.topo.RUnlock()
	return s.primary
}

// Backup exposes backup i.
func (s *Store) Backup(i int) *kvstore.Store {
	s.topo.RLock()
	defer s.topo.RUnlock()
	return s.backups[i]
}

// backupStreamPage bounds how many records each as-of scan pulls while
// streaming a backup snapshot.
const backupStreamPage = 1024

// BackupSnapshot streams a consistent cut of the primary into a fresh
// standalone store without blocking writers: it pins a snapshot
// timestamp, pages every table through ScanAsOf at that ts, and bulk
// loads the pages — versions and commit timestamps included — into the
// new engine. Concurrent writes proceed normally (the pin only defers
// version reclamation), and the result is exactly the primary's state
// as of the returned timestamp: a point-in-time backup, not a fuzzy
// copy. The caller owns the returned store.
func (s *Store) BackupSnapshot() (*kvstore.Store, int64, error) {
	if err := s.checkUp(); err != nil {
		return nil, 0, err
	}
	s.topo.RLock()
	primary := s.primary
	s.topo.RUnlock()
	ts, release := primary.Pin()
	defer release()
	dst, _ := kvstore.Open(kvstore.Options{Shards: s.cfg.Shards}) // in-memory open cannot fail
	for _, table := range primary.Tables() {
		var kvs []kvstore.BulkKV
		start := ""
		for {
			page, err := primary.ScanAsOf(table, start, backupStreamPage, ts)
			if err != nil {
				dst.Close()
				return nil, 0, err
			}
			for _, kv := range page {
				kvs = append(kvs, kvstore.BulkKV{
					Key:      kv.Key,
					Fields:   kv.Record.Fields,
					Version:  kv.Record.Version,
					CommitTS: kv.Record.CommitTS,
				})
			}
			if len(page) < backupStreamPage {
				break
			}
			start = page[len(page)-1].Key + "\x00"
		}
		if len(kvs) == 0 {
			continue
		}
		if err := dst.BulkLoad(table, kvs); err != nil {
			dst.Close()
			return nil, 0, err
		}
	}
	return dst, ts, nil
}

// FailPrimary simulates a primary crash: subsequent primary-path
// operations fail, and queued-but-unapplied writes are discarded, as
// a real crash would lose them.
func (s *Store) FailPrimary() {
	s.down.Store(true)
}

// Promote elects the first backup as the new primary and reports how
// many acknowledged writes were lost in the unreplicated queue
// (always 0 under Sync: straggler lanes are drained first, so even a
// backup that was behind the quorum catches up before taking over).
// The old primary is discarded.
func (s *Store) Promote() (lost int64) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if s.cfg.Mode == Async && s.queue != nil {
		// Discard whatever the dead primary had not shipped.
	drain:
		for {
			select {
			case <-s.queue:
				lost++
				s.applied.Add(1) // accounted: no longer lagging
			default:
				break drain
			}
		}
		// A batch the applier had already taken off the queue was
		// shipped before the crash: it lands before the backup takes
		// over, so every acknowledged write is either lost or present.
		s.Flush()
	}
	if s.cfg.Mode == Sync {
		// Every lane finishes its backlog, then the lanes are rebuilt
		// around the new backup set below.
		s.drainLanes()
		s.stopLanes()
	}
	s.topo.Lock()
	old := s.primary
	s.primary = s.backups[0]
	s.backups = append([]*kvstore.Store(nil), s.backups[1:]...)
	if len(s.backups) == 0 {
		// Keep at least one backup so the store stays replicated.
		s.backups = append(s.backups, newEngine(s.cfg.Shards, nil))
	}
	s.topo.Unlock()
	if s.cfg.Mode == Sync {
		// A promoted backup shrinks the replica set; never require more
		// acks than there are lanes.
		if n := int32(len(s.backups)); s.quorum.Load() > n {
			s.quorum.Store(n)
		}
		s.startLanes()
	}
	old.Close()
	s.down.Store(false)
	return lost
}

// Divergence counts keys whose value differs between the primary and
// backup i for the given table — a direct measure of replication
// staleness.
func (s *Store) Divergence(table string, i int) int {
	diff := 0
	seen := map[string]bool{}
	s.primary.ForEach(table, func(key string, rec *kvstore.VersionedRecord) bool {
		seen[key] = true
		brec, err := s.backups[i].Get(table, key)
		if err != nil || !fieldsEqual(rec.Fields, brec.Fields) {
			diff++
		}
		return true
	})
	s.backups[i].ForEach(table, func(key string, _ *kvstore.VersionedRecord) bool {
		if !seen[key] {
			diff++
		}
		return true
	})
	return diff
}

// Close shuts the store down, draining the async queue and the sync
// straggler lanes first.
func (s *Store) Close() error {
	s.writeMu.Lock()
	if s.closed.Swap(true) {
		s.writeMu.Unlock()
		return nil
	}
	if s.queue != nil {
		close(s.queue)
	}
	s.drainLanes()
	s.stopLanes()
	s.writeMu.Unlock()
	<-s.drained
	s.topo.RLock()
	defer s.topo.RUnlock()
	s.primary.Close()
	for _, b := range s.backups {
		b.Close()
	}
	return nil
}

func cloneFields(in map[string][]byte) map[string][]byte {
	out := make(map[string][]byte, len(in))
	for f, v := range in {
		out[f] = append([]byte(nil), v...)
	}
	return out
}

func fieldsEqual(a, b map[string][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for f, v := range a {
		if string(b[f]) != string(v) {
			return false
		}
	}
	return true
}
