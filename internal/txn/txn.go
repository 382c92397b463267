// Package txn implements client-coordinated multi-item transactions
// over versioned key-value stores — the reproduction's analog of the
// transaction library the YCSB+T paper evaluates ("We have
// implemented a system similar to Percolator and ReTSO... It does not
// depend on any centralized timestamp oracle or logging
// infrastructure", Dey et al. [28], the Cherry Garcia protocol).
//
// Protocol sketch. A transaction buffers writes at the client. Commit
// proceeds in phases, all executed by the client against the stores
// themselves — there is no central coordinator:
//
//  1. PREPARE: the write set is sorted globally (store, table, key) —
//     the paper's "simple ordered locking protocol" that makes
//     deadlock impossible — and each record is replaced via
//     conditional put (test-and-set on the version the transaction
//     read) with a prepared image that carries the new value, the
//     transaction id, the coordinating store, a prepare timestamp,
//     and the encoded previous committed image. A version mismatch
//     means a concurrent writer won; the transaction rolls back its
//     prepares and aborts.
//  2. COMMIT POINT: a transaction status record (TSR) is written to
//     the coordinating store (create-only). Once the TSR exists the
//     transaction is durably committed.
//  3. ROLL FORWARD: each prepared record is rewritten as a clean
//     committed image (conditional on the prepared version); deletes
//     are applied. Then the TSR is removed.
//
// A write set of one key skips all three: its conditional write, on the
// same expected version a prepare would use, puts the clean image (or
// deletes) and is the commit point — one conditional write is atomic at
// the store, so no other record needs to agree with it. Readers never
// meet a prepared record of such a transaction, and it leaves no TSR.
// The one-key count is taken after SerializableReads has added its
// read-locks.
//
// Readers that encounter a prepared record resolve it: if the
// writer's TSR exists the new image is committed (the reader may
// opportunistically roll the record forward); otherwise the reader
// returns the previous image (read-around), and if the prepare is
// older than the recovery timeout the reader rolls the record back,
// recovering from a crashed writer. Committers enforce a commit
// deadline well under the recovery timeout so a live writer is never
// rolled back by an impatient reader.
//
// Store calls. On a remote backend every store call is a round trip,
// and the ones the caller waits for are what a transaction costs, so
// the library asks a store only for what the transaction does not
// already hold. The read set keeps each fetched image with its version
// (readEntry): a repeated Read, the binding's read-merge-write Update
// and the prepare of a key the transaction read are all served from it
// — the prepare's conditional put on the version read is the
// validation, so a concurrent change surfaces as ErrConflict there.
// Only a clean entry licenses that put; an entry read around an
// in-flight writer carries the version of that writer's prepared record
// and conflicts instead. An insert prepares create-only without looking
// first. A read-modify-write of n ≥ 2 keys is therefore n gets, n
// prepare puts, the TSR put, n roll-forward puts and the TSR delete —
// 3n+2 calls, 8 for the CEW's two accounts — and all of them block the
// caller: the committer makes phase 3 (the finish) itself before Commit
// returns. A one-key transaction makes its one write: an insert is 1
// call, and a one-key read-modify-write, blind write or delete is 2 (the
// get that learns the version, then the write). The calls run on the
// transaction's own goroutine, one after another.
//
// The finish adds no state to the stores: between the TSR put and the
// last roll-forward a record is prepared with a committed TSR, which is
// exactly what a committer that died after its commit point leaves, and
// readers (and Vacuum) finish such records from the TSR. The TSR is
// deleted only when every roll-forward landed, so a prepared record
// always has its TSR while its transaction is committed. A reader of
// another manager can still fetch a prepared record and then find no
// TSR because the finish completed in between, so "TSR absent" alone
// does not mean "not committed" — resolveRecord fetches the record
// again, and only a record still prepared at the same version is read
// around. A manager's own readers (its other client threads) do not ask
// a store about a transaction it committed: they wait for its finish to
// roll forward and take the image from the prepared record they hold
// (Manager.finishing), so one client's transactions make the same calls
// wherever its reads fall relative to another thread's finish. A
// committer that dies before its TSR is rolled back by readers after
// the recovery timeout; one that dies after it is finished by them.
//
// Records need no gateway or daemon: transaction state lives in
// reserved "_txn:" fields of the records themselves and in the "_tsr"
// table, so the library works across heterogeneous stores — anything
// that offers a versioned conditional put.
package txn

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ycsbt/internal/db"
	"ycsbt/internal/history"
	"ycsbt/internal/kvstore"
	"ycsbt/internal/obs"
	"ycsbt/internal/oracle"
)

// Store is what the transaction library needs from a data store: get
// and scan with versions, and conditional put/delete (test-and-set on
// the record version). kvstore (via LocalStore), cloudsim.Store and
// the HTTP client adapter all satisfy it.
type Store interface {
	// Name identifies the store in multi-store transactions.
	Name() string
	// Get returns the record and its version.
	Get(ctx context.Context, table, key string) (*kvstore.VersionedRecord, error)
	// Put stores fields when the current version matches expect
	// (kvstore.AnyVersion / kvstore.MustNotExist / exact) and returns
	// the new version.
	Put(ctx context.Context, table, key string, fields map[string][]byte, expect uint64) (uint64, error)
	// Delete removes the record when the version matches expect.
	Delete(ctx context.Context, table, key string, expect uint64) error
	// Scan returns up to count records from startKey in key order.
	Scan(ctx context.Context, table, startKey string, count int) ([]kvstore.VersionedKV, error)
}

// Sentinel errors. The outcomes a binding reports wrap the db
// sentinel they mean, so they pass up through db.TxnBinding as they
// are.
var (
	// ErrConflict reports that the transaction lost a race and was
	// rolled back; the caller may retry. It is a db.ErrAborted.
	ErrConflict = fmt.Errorf("txn: conflict: %w", db.ErrAborted)
	// ErrNotFound reports a missing record. It is a db.ErrNotFound.
	ErrNotFound = fmt.Errorf("txn: %w", db.ErrNotFound)
	// ErrTxnDone reports use of a finished transaction.
	ErrTxnDone = errors.New("txn: transaction already committed or aborted")
	// ErrUnknownStore reports a reference to an unregistered store.
	ErrUnknownStore = errors.New("txn: unknown store")
)

// Reserved metadata field names stored inside prepared records.
const (
	metaState     = "_txn:state" // "P" while prepared; absent when clean
	metaID        = "_txn:id"
	metaCoord     = "_txn:coord"
	metaPrepareTS = "_txn:prepare_ts"
	metaPrev      = "_txn:prev" // encoded previous committed image
	metaDelete    = "_txn:del"  // present when the write is a delete
)

// tsrTable is the reserved table holding transaction status records.
const tsrTable = "_tsr"

// TSR field names and states.
const (
	tsrState     = "state"
	tsrCommitTS  = "commit_ts"
	tsrWriteSet  = "write_set" // encoded list of written keys, for Vacuum
	tsrCommitted = "committed"
	tsrAborted   = "aborted"
)

// Options tunes a Manager.
type Options struct {
	// RecoveryTimeout is how old a prepared record must be before a
	// reader may roll it back, presuming its writer dead. The
	// committer enforces CommitDeadline (RecoveryTimeout/2) between
	// first prepare and TSR write, so live writers are never rolled
	// back. Default 10s.
	RecoveryTimeout time.Duration
	// SerializableReads makes read-write transactions fully
	// serializable by materializing their reads: at commit time every
	// key read but not written joins the write set as a no-op write,
	// so its prepare lock (a conditional put on the version read)
	// both validates the read and blocks concurrent writers through
	// the commit point. Off by default, as in the paper; each read is
	// then a committed image but not necessarily one snapshot with the
	// others — history.Check can refute snapshot isolation on such a
	// run (a read before a concurrent commit, another after one).
	// Read-only transactions still commit trivially: each of their
	// reads individually returned a committed image, and they take no
	// locks.
	SerializableReads bool
	// DisableOrderedPrepare skips sorting the write set before the
	// prepare phase (ablation: the paper's "simple ordered locking
	// protocol"). Correctness is unaffected — prepares are
	// conditional puts, not blocking locks — but contended
	// transactions that prepare in conflicting orders abort each
	// other more often.
	DisableOrderedPrepare bool
	// Clock supplies timestamps; nil uses a monotonic wrapper over
	// the local clock ("in the current version, it relies on the
	// local clock" — Section II-B).
	Clock Clock
	// History, when set, receives one record per finished transaction
	// — committed or aborted — with the versions read and installed,
	// the session (from db.WithSession on the Begin context), and
	// start/commit timestamps, for dependency-graph certification
	// (internal/history, cmd/histcheck: the Zellag & Kemme approach the
	// paper discusses). Aborts are included, which the checker needs
	// for dirty-read detection. Deleted keys leave a tombstone version
	// in place, so a later re-create continues the version sequence and
	// the version-ordered graph stays sound across delete/insert
	// cycles. Install it before the first Begin. Read-only snapshot
	// transactions (BeginReadOnly) are not recorded: they read a fixed
	// as-of timestamp, take no part in the version-ordered graph, and
	// would need their own snapshot-read semantics in the checker.
	History history.TxnSink
	// Metrics, when non-nil, receives the manager's txn_* series.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.RecoveryTimeout <= 0 {
		o.RecoveryTimeout = 10 * time.Second
	}
	if o.Clock == nil {
		o.Clock = NewHLC()
	}
	return o
}

// Clock produces strictly increasing timestamps (nanoseconds).
type Clock interface {
	Now() int64
}

// HLC is a hybrid logical clock: physical time, bumped to stay
// strictly monotonic under bursts and small clock steps.
type HLC struct {
	last atomic.Int64
}

// NewHLC returns a monotonic clock over the local wall clock.
func NewHLC() *HLC { return &HLC{} }

// Now returns a strictly increasing nanosecond timestamp.
func (c *HLC) Now() int64 {
	for {
		phys := time.Now().UnixNano()
		last := c.last.Load()
		next := phys
		if next <= last {
			next = last + 1
		}
		if c.last.CompareAndSwap(last, next) {
			return next
		}
	}
}

// noActiveSnapshot is the watermark's "no floor" sentinel.
const noActiveSnapshot = int64(math.MaxInt64)

// Manager coordinates transactions across one or more stores.
type Manager struct {
	opts   Options
	stores map[string]Store
	defalt string // the sole store's name, for single-store shorthand
	seq    atomic.Uint64
	id     string // manager instance id, part of txn ids

	// watermark tracks the snapshot timestamps pinned by live read-only
	// transactions; its min is published to vacuum-capable stores and
	// holds the TSR GC back (see Vacuum), so a snapshot reader can
	// always resolve the prepared records it meets.
	watermark *oracle.Watermark

	// Stats.
	commits   atomic.Int64
	aborts    atomic.Int64
	conflicts atomic.Int64
	recovered atomic.Int64
	// tsrLeft counts commits that left their TSR in place because a
	// roll-forward did not land (a no-op without Options.Metrics).
	tsrLeft *obs.Counter

	// finishing holds, for every finish in progress (see finish), a
	// channel closed when its roll-forwards are over, under the
	// transaction's id: a reader of this manager that meets one of its
	// prepared records waits on it instead of asking a store.
	// The last endedFinishes that ended (and landed) stay in it,
	// finEnded saying which: a reader may still hold a record it fetched
	// while the finish ran.
	finMu      sync.Mutex
	finishing  map[string]chan struct{}
	finEnded   [endedFinishes]string // a ring; finEndedAt is the oldest
	finEndedAt int
}

// endedFinishes is how many ended finishes a manager remembers for the
// readers still holding a record fetched while one ran.
const endedFinishes = 64

// NewManager returns a manager over the given stores. With exactly
// one store, the empty store name refers to it.
func NewManager(opts Options, stores ...Store) (*Manager, error) {
	if len(stores) == 0 {
		return nil, errors.New("txn: at least one store required")
	}
	m := &Manager{
		opts:      opts.withDefaults(),
		stores:    make(map[string]Store, len(stores)),
		watermark: oracle.NewWatermark(),
		finishing: make(map[string]chan struct{}),
	}
	for _, s := range stores {
		if s.Name() == "" {
			return nil, errors.New("txn: store with empty name")
		}
		if _, dup := m.stores[s.Name()]; dup {
			return nil, fmt.Errorf("txn: duplicate store name %q", s.Name())
		}
		m.stores[s.Name()] = s
	}
	if len(stores) == 1 {
		m.defalt = stores[0].Name()
	}
	m.id = strconv.FormatInt(m.opts.Clock.Now()&0xFFFFFFFF, 36)
	m.opts.Metrics.Help("txn_tsr_left_total", "Committed transactions whose TSR was left in place because a roll-forward failed; readers finish them from it.")
	m.tsrLeft = m.opts.Metrics.Counter("txn_tsr_left_total")
	return m, nil
}

// Stats reports commit/abort/conflict/recovery counts.
func (m *Manager) Stats() (commits, aborts, conflicts, recovered int64) {
	return m.commits.Load(), m.aborts.Load(), m.conflicts.Load(), m.recovered.Load()
}

// store resolves a store name ("" = the sole store).
func (m *Manager) store(name string) (Store, error) {
	if name == "" {
		if m.defalt == "" {
			return nil, fmt.Errorf("%w: empty name with multiple stores", ErrUnknownStore)
		}
		name = m.defalt
	}
	s, ok := m.stores[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownStore, name)
	}
	return s, nil
}

// Begin starts a transaction. When the context carries a session id
// (db.WithSession) it is recorded into the transaction's history
// record.
func (m *Manager) Begin(ctx context.Context) (*Txn, error) {
	startTS := m.opts.Clock.Now()
	// "t<manager>-<start ts>-<seq>", both numbers in hex.
	id := append(make([]byte, 0, 40), 't')
	id = append(append(id, m.id...), '-')
	id = append(strconv.AppendInt(id, startTS, 16), '-')
	id = strconv.AppendUint(id, m.seq.Add(1), 16)
	t := &Txn{m: m, id: string(id), startTS: startTS}
	if m.opts.History != nil {
		// Only the history record carries the session, and the lookup
		// allocates on some contexts (context.WithoutCancel's).
		t.session = db.SessionFromContext(ctx)
	}
	return t, nil
}

// SetHistory installs (or clears) the history sink. Call it before
// the first Begin; transactions read it at finish time.
func (m *Manager) SetHistory(sink history.TxnSink) { m.opts.History = sink }

// RunInTxn executes fn inside a transaction, committing on success
// and retrying (up to maxRetries) when the attempt conflicts, after a
// jittered exponential back-off: the loser of a conflict learns it in
// a round trip or two, and coming straight back it meets the same
// winner still committing. fn must be idempotent.
func (m *Manager) RunInTxn(ctx context.Context, maxRetries int, fn func(*Txn) error) error {
	var lastErr error
	for attempt := 0; attempt <= maxRetries; attempt++ {
		if attempt > 0 {
			if err := retryBackoff(ctx, attempt); err != nil {
				return err
			}
		}
		t, err := m.Begin(ctx)
		if err != nil {
			return err
		}
		if err = fn(t); err != nil {
			t.Abort(ctx)
		} else {
			err = t.Commit(ctx)
		}
		if !errors.Is(err, ErrConflict) {
			return err // committed, or failed for a reason a retry would not cure
		}
		lastErr = err
	}
	return fmt.Errorf("txn: retries exhausted: %w", lastErr)
}

// Back-off before RunInTxn's retries: the n-th waits between half and
// all of min(retryBackoffBase << n, retryBackoffMax). The base is about
// one commit on a loopback fleet, the cap well under any recovery
// timeout.
const (
	retryBackoffBase = 50 * time.Microsecond
	retryBackoffMax  = 10 * time.Millisecond
)

func retryBackoff(ctx context.Context, retry int) error {
	d := min(retryBackoffBase<<min(retry, 8), retryBackoffMax)
	d = d/2 + rand.N(d/2)
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// wkey identifies one record across stores.
type wkey struct {
	store, table, key string
}

func (k wkey) String() string { return k.store + "/" + k.table + "/" + k.key }

// writeKind enumerates buffered-write types.
type writeKind uint8

const (
	kindPut writeKind = iota + 1
	kindInsert
	kindDelete
	// kindReadLock is a materialized read: the record is re-written
	// with its current committed image, so the prepare conditional
	// put validates the read version and excludes concurrent writers
	// until the transaction finishes (SerializableReads mode).
	kindReadLock
)

// pendingWrite is one buffered write.
type pendingWrite struct {
	kind   writeKind
	fields map[string][]byte

	// Set when the write lands. installedVer is the version its commit
	// installs (0 until then): the store's reply to a one-key commit's
	// write, or for a prepared record the version its roll-forward
	// installs, preparedVer+1 — every roll-forward, whoever makes it, is
	// a conditional put on preparedVer, and versions advance by one per
	// put.
	installedVer uint64
	prepared     bool // a prepared image holds the key (two-phase commits only)
	preparedVer  uint64
	prevImage    []byte // encoded previous committed image ("" for insert)
	prevExisted  bool
}

// Txn is one client-coordinated transaction. A Txn is confined to a
// single goroutine.
type Txn struct {
	m       *Manager
	id      string
	startTS int64
	session int
	done    bool
	// commitTS is a one-key commit's timestamp, drawn just before its
	// write (see putPrepared).
	commitTS int64

	// reads holds what was read, not just its version: a key is
	// fetched at most once per transaction, and prepare takes the
	// previous image and the expected version from here.
	reads  readSet
	writes map[wkey]*pendingWrite // nil until the first buffered write
}

// readSet is a transaction's read set. Most transactions read one key,
// so the first key and its entry live inline and the map is made only
// at a second key.
type readSet struct {
	has  bool // k0 and r0 hold the first key read
	k0   wkey
	r0   readEntry
	more map[wkey]readEntry // every other key; nil until the second
}

func (s *readSet) get(k wkey) (readEntry, bool) {
	if s.has && k == s.k0 {
		return s.r0, true
	}
	r, ok := s.more[k]
	return r, ok
}

func (s *readSet) put(k wkey, r readEntry) {
	switch {
	case !s.has:
		s.has, s.k0, s.r0 = true, k, r
	case k == s.k0:
		s.r0 = r
	default:
		if s.more == nil {
			s.more = make(map[wkey]readEntry)
		}
		s.more[k] = r
	}
}

func (s *readSet) len() int {
	if !s.has {
		return 0
	}
	return 1 + len(s.more)
}

// each calls fn for every key read, the inline one first.
func (s *readSet) each(fn func(k wkey, r readEntry)) {
	if !s.has {
		return
	}
	fn(s.k0, s.r0)
	for k, r := range s.more {
		fn(k, r)
	}
}

// ID returns the transaction id.
func (t *Txn) ID() string { return t.id }

// Read returns the committed user fields of store/table/key, seeing
// the transaction's own buffered writes first. A key already in the
// read set is served from it — reads repeat by construction, and a
// concurrent change to the key surfaces as ErrConflict when the
// transaction prepares a write on it.
func (t *Txn) Read(ctx context.Context, store, table, key string) (map[string][]byte, error) {
	if t.done {
		return nil, ErrTxnDone
	}
	s, err := t.m.store(store)
	if err != nil {
		return nil, err
	}
	k := wkey{s.Name(), table, key}
	if w, ok := t.writes[k]; ok {
		if w.kind == kindDelete {
			return nil, fmt.Errorf("%w: %s (deleted in this transaction)", ErrNotFound, k)
		}
		return cloneFields(w.fields), nil
	}
	r, ok := t.reads.get(k)
	if !ok {
		if r, err = t.m.readResolved(ctx, s, table, key); err != nil {
			return nil, err
		}
		t.reads.put(k, r)
	}
	return r.userCopy(), nil
}

// noteRead files what a scan observed for a key and enforces
// repeatable reads: seeing a different version than an earlier read
// in the same transaction means a concurrent commit slid underneath
// us, and any derived write would be based on stale data — conflict
// now rather than at prepare time.
func (t *Txn) noteRead(k wkey, r readEntry) error {
	if prev, ok := t.reads.get(k); ok && prev.ver != r.ver {
		return fmt.Errorf("%w: %s read at v%d then v%d", ErrConflict, k, prev.ver, r.ver)
	}
	t.reads.put(k, r)
	return nil
}

// Write buffers a full-record put.
func (t *Txn) Write(store, table, key string, fields map[string][]byte) error {
	return t.buffer(store, table, key, kindPut, fields)
}

// Insert buffers a create-only put; commit fails with ErrConflict if
// the key exists by then.
func (t *Txn) Insert(store, table, key string, fields map[string][]byte) error {
	return t.buffer(store, table, key, kindInsert, fields)
}

// Delete buffers a delete.
func (t *Txn) Delete(store, table, key string) error {
	return t.buffer(store, table, key, kindDelete, nil)
}

func (t *Txn) buffer(store, table, key string, kind writeKind, fields map[string][]byte) error {
	if t.done {
		return ErrTxnDone
	}
	s, err := t.m.store(store)
	if err != nil {
		return err
	}
	for f := range fields {
		if isMetaField(f) {
			return fmt.Errorf("txn: field name %q is reserved", f)
		}
	}
	if t.writes == nil {
		t.writes = make(map[wkey]*pendingWrite)
	}
	t.writes[wkey{s.Name(), table, key}] = &pendingWrite{kind: kind, fields: cloneFields(fields)}
	return nil
}

// Scan returns up to count committed records of store/table from
// startKey, resolving prepared records and overlaying this
// transaction's buffered writes.
func (t *Txn) Scan(ctx context.Context, store, table, startKey string, count int) ([]db.KV, error) {
	if t.done {
		return nil, ErrTxnDone
	}
	s, err := t.m.store(store)
	if err != nil {
		return nil, err
	}
	kvs, err := s.Scan(ctx, table, startKey, count)
	if err != nil {
		return nil, err
	}
	// Resolve store records.
	resolved := make([]db.KV, 0, len(kvs))
	for _, kv := range kvs {
		k := wkey{s.Name(), table, kv.Key}
		if w, ok := t.writes[k]; ok {
			if w.kind != kindDelete {
				resolved = append(resolved, db.KV{Key: kv.Key, Fields: db.MapFields(w.fields)})
			}
			continue
		}
		r, err := t.m.resolveRecord(ctx, s, table, kv.Key, kv.Record)
		if err != nil {
			if errors.Is(err, ErrNotFound) {
				continue // prepared insert whose txn aborted
			}
			return nil, err
		}
		if err := t.noteRead(k, r); err != nil {
			return nil, err
		}
		resolved = append(resolved, db.KV{Key: kv.Key, Fields: r.view()})
	}
	// Overlay buffered inserts/puts that fall in range but were not
	// returned by the store.
	present := make(map[string]bool, len(resolved))
	for _, kv := range resolved {
		present[kv.Key] = true
	}
	for k, w := range t.writes {
		if k.store != s.Name() || k.table != table || w.kind == kindDelete {
			continue
		}
		if k.key >= startKey && !present[k.key] {
			resolved = append(resolved, db.KV{Key: k.key, Fields: db.MapFields(w.fields)})
		}
	}
	sort.Slice(resolved, func(i, j int) bool { return resolved[i].Key < resolved[j].Key })
	if count >= 0 && len(resolved) > count {
		resolved = resolved[:count]
	}
	return resolved, nil
}

// Abort rolls back any prepared records and finishes the transaction.
// Aborting a finished transaction is a no-op.
func (t *Txn) Abort(ctx context.Context) error {
	if t.done {
		return nil
	}
	t.done = true
	t.m.aborts.Add(1)
	t.emitHistory(false, 0)
	return t.rollbackPrepared(ctx)
}

func (t *Txn) rollbackPrepared(ctx context.Context) error {
	var firstErr error
	for k, w := range t.writes {
		if !w.prepared {
			continue
		}
		s, err := t.m.store(k.store)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if err := t.m.rollbackRecord(ctx, s, k.table, k.key, w.preparedVer, w.prevImage, w.prevExisted); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Commit prepares the write set, writes the TSR — the commit point —
// and finishes the transaction (see finish) before it returns. A write
// set of one key commits with that key's conditional write alone (see
// putPrepared). On conflict it rolls back and returns ErrConflict; the
// transaction is finished either way.
func (t *Txn) Commit(ctx context.Context) error {
	if t.done {
		return ErrTxnDone
	}
	if len(t.writes) == 0 {
		// Read-only transactions commit trivially: every read already
		// returned a committed image. No TSR is written, so the
		// history commit timestamp is drawn here, when a sink will
		// record it — any timestamp at or after the last read is a
		// valid serialization point.
		t.done = true
		t.m.commits.Add(1)
		if t.m.opts.History != nil {
			t.emitHistory(true, t.m.opts.Clock.Now())
		}
		return nil
	}

	// Serializable mode: materialize the read set so prepare locks
	// cover it atomically through the commit point (validating at
	// commit time and then writing the TSR would leave a window for a
	// concurrent writer to slip in between).
	if t.m.opts.SerializableReads {
		t.reads.each(func(k wkey, _ readEntry) {
			if _, written := t.writes[k]; !written {
				t.writes[k] = &pendingWrite{kind: kindReadLock}
			}
		})
	}

	// Deterministic global order — the ordered locking protocol
	// (unless ablated; map iteration order is effectively random).
	keys := make([]wkey, 0, len(t.writes))
	for k := range t.writes {
		keys = append(keys, k)
	}
	if !t.m.opts.DisableOrderedPrepare {
		sort.Slice(keys, func(i, j int) bool {
			a, b := keys[i], keys[j]
			if a.store != b.store {
				return a.store < b.store
			}
			if a.table != b.table {
				return a.table < b.table
			}
			return a.key < b.key
		})
	}

	// The coordinating store — where the TSR goes, and what every
	// prepared record names so readers know where to look for it — is
	// the store of the first write in prepare order.
	coordName := keys[0].store
	coord := t.m.stores[coordName]

	prepareStart := time.Now()
	prepTS := t.m.opts.Clock.Now()

	// Failure-path rollbacks run on a detached context: cleanup must
	// complete even when the caller's context caused the failure.
	cleanupCtx := context.WithoutCancel(ctx)

	// Phase 1: prepare every write in order. A write set of one key
	// commits here: its one write is the commit point, and no TSR or
	// finish follows.
	for _, k := range keys {
		if err := t.prepareOne(ctx, k, coordName, prepTS); err != nil {
			t.done = true
			t.m.conflicts.Add(1)
			t.m.aborts.Add(1)
			t.emitHistory(false, 0)
			t.rollbackPrepared(cleanupCtx)
			return fmt.Errorf("%w: preparing %s: %v", ErrConflict, k, err)
		}
	}
	if len(keys) == 1 {
		t.done = true
		t.m.commits.Add(1)
		t.emitHistory(true, t.commitTS)
		return nil
	}

	// Enforce the commit deadline so readers' crash recovery can
	// never roll back a live committer.
	if time.Since(prepareStart) > t.m.opts.RecoveryTimeout/2 {
		t.done = true
		t.m.aborts.Add(1)
		t.emitHistory(false, 0)
		t.rollbackPrepared(cleanupCtx)
		return fmt.Errorf("%w: commit deadline exceeded", ErrConflict)
	}

	// Phase 2: the commit point — write the TSR to the coordinating
	// store.
	commitTS := t.m.opts.Clock.Now()
	tsrFields := map[string][]byte{
		tsrState:    []byte(tsrCommitted),
		tsrCommitTS: []byte(strconv.FormatInt(commitTS, 10)),
		tsrWriteSet: encodeWriteSet(keys),
	}
	if _, err := coord.Put(ctx, tsrTable, t.id, tsrFields, kvstore.MustNotExist); err != nil {
		t.done = true
		t.m.aborts.Add(1)
		t.emitHistory(false, 0)
		t.rollbackPrepared(cleanupCtx)
		return fmt.Errorf("%w: writing TSR: %v", ErrConflict, err)
	}

	// The transaction is durably committed; phase 3 runs on the
	// committer.
	t.done = true
	t.m.commits.Add(1)
	t.emitHistory(true, commitTS)
	t.m.finish(cleanupCtx, t, keys)
	return nil
}

// finishOf returns the channel that closes when the finish of the
// transaction this manager committed under id has made its
// roll-forwards — closed already if it ended a moment ago — and nil for
// any other id.
func (m *Manager) finishOf(id string) <-chan struct{} {
	m.finMu.Lock()
	defer m.finMu.Unlock()
	return m.finishing[id]
}

// finish is phase 3 of a committed transaction: roll every prepared
// record forward in prepare order, then remove the TSR. A failed
// roll-forward is benign only while the TSR exists — readers finish the
// job from it, and without it they would presume this writer dead and
// roll back an acknowledged commit — so the TSR goes only when every
// record landed. A TSR left in place is Vacuum's to collect.
//
// The finish is registered while it runs, so that this manager's
// readers wait for its roll-forwards rather than ask a store, and
// remembered once it has landed. It runs under detached, the caller's
// context without the cancellation: it carries the caller's values to
// the store calls it makes, and a caller that gives up cannot cut it
// short — the transaction is committed, and a cut finish would leave
// its TSR for readers to finish from. It carries no deadline: a store
// that stops answering is the transport's to give up on.
func (m *Manager) finish(detached context.Context, t *Txn, keys []wkey) {
	rolled := make(chan struct{})
	m.finMu.Lock()
	m.finishing[t.id] = rolled
	m.finMu.Unlock()
	landed := true // until a roll-forward fails
	for _, k := range keys {
		if err := m.rollForwardRecord(detached, m.stores[k.store], k.table, k.key, t.writes[k]); err != nil {
			landed = false
		}
	}
	close(rolled)
	if landed {
		// Dropping this error leaves a TSR nothing points at.
		_ = m.stores[keys[0].store].Delete(detached, tsrTable, t.id, kvstore.AnyVersion)
	} else {
		m.tsrLeft.Inc()
	}
	m.finMu.Lock()
	if landed {
		// Remembered in place of the oldest ended before it. One that
		// did not land is forgotten now: its records are still
		// prepared, and readers must go to its TSR to finish them.
		delete(m.finishing, m.finEnded[m.finEndedAt])
		m.finEnded[m.finEndedAt] = t.id
		m.finEndedAt = (m.finEndedAt + 1) % len(m.finEnded)
	} else {
		delete(m.finishing, t.id)
	}
	m.finMu.Unlock()
}

// emitHistory reports this finished transaction to the history sink.
// It fires for aborts too (the checker needs them for dirty-read
// analysis) and includes reads of keys the transaction also wrote.
// Aborted transactions report only their reads: their prepared images
// were rolled back, so no version was durably installed. Each write
// reports its installedVer. Read-around reads report
// the in-flight prepared record's version (see resolveRecord): the
// checker then sees no committed writer for that version — losing a
// WR edge, never inventing a cycle — while the RW anti-dependency to
// the in-flight writer's install lands correctly.
func (t *Txn) emitHistory(committed bool, commitTS int64) {
	sink := t.m.opts.History
	if sink == nil {
		return
	}
	rec := &history.TxnRecord{
		ID:      t.id,
		Session: t.session,
		StartTS: t.startTS,
		Outcome: history.OutcomeAbort,
	}
	if committed {
		rec.Outcome = history.OutcomeCommit
		rec.CommitTS = commitTS
	}
	rec.Ops = make([]history.Op, 0, t.reads.len()+len(t.writes))
	t.reads.each(func(k wkey, r readEntry) {
		rec.Ops = append(rec.Ops, history.Op{Kind: history.OpRead, Store: k.store, Table: k.table, Key: k.key, Ver: r.ver})
	})
	if committed {
		for k, w := range t.writes {
			if w.installedVer == 0 {
				continue
			}
			kind := history.OpWrite
			if w.kind == kindDelete {
				kind = history.OpDelete
			}
			rec.Ops = append(rec.Ops, history.Op{Kind: kind, Store: k.store, Table: k.table, Key: k.key, Ver: w.installedVer})
		}
	}
	if len(rec.Ops) > 0 {
		sink.RecordTxn(rec)
	}
}

// prepareOne installs the prepared image for one write — or, for a
// write set of one key, the committed write itself (see putPrepared) —
// asking the store only for what the transaction does not already know:
//
//   - a key the transaction read clean is prepared straight from the
//     read set — the conditional put on the version read is the
//     validation, and the image read is the previous image;
//   - a key it read around an in-flight writer conflicts: the version
//     it holds is that writer's prepared record, which must survive;
//   - an insert it never read is put create-only, and only a mismatch
//     sends it to the fetch below (the occupant may be a dead or
//     already-committed prepare);
//   - anything else (a blind write or delete) fetches the current
//     record, resolving a prepared one, to learn the previous image.
func (t *Txn) prepareOne(ctx context.Context, k wkey, coordName string, prepTS int64) error {
	if r, ok := t.reads.get(k); ok {
		if !r.clean {
			return errors.New("read around an in-flight writer")
		}
		return t.putPrepared(ctx, k, coordName, prepTS, r, r.ver)
	}
	if t.writes[k].kind == kindInsert {
		err := t.putPrepared(ctx, k, coordName, prepTS, readEntry{}, kvstore.MustNotExist)
		if !errors.Is(err, db.ErrConflict) {
			return err // prepared, or a failure a fetch would not explain
		}
	}

	s := t.m.stores[k.store]
	cur, err := s.Get(ctx, k.table, k.key)
	if err == nil && isPrepared(cur) {
		// Another transaction holds this record; try to resolve it (it
		// may be long-committed or long-dead).
		if _, rerr := t.m.resolveRecord(ctx, s, k.table, k.key, cur); rerr != nil && !errors.Is(rerr, ErrNotFound) {
			return fmt.Errorf("record held by %s: %w", cur.Field(metaID), rerr)
		}
		cur, err = s.Get(ctx, k.table, k.key)
		if err == nil && isPrepared(cur) {
			return fmt.Errorf("record still held by %s", cur.Field(metaID))
		}
	}
	switch {
	case err == nil:
		return t.putPrepared(ctx, k, coordName, prepTS, readEntry{rec: cur}, cur.Version)
	case errors.Is(err, kvstore.ErrNotFound):
		return t.putPrepared(ctx, k, coordName, prepTS, readEntry{}, kvstore.MustNotExist)
	default:
		return err
	}
}

// putPrepared writes the prepared image of k's buffered write over the
// committed image prev, conditional on expect: prev's version, or
// kvstore.MustNotExist when there is no committed image (prev is then
// the zero entry).
//
// When k is the write set's only key, the write is the commit itself:
// one conditional write is atomic at the store, so it writes the clean
// image (or deletes) under the same expect, and leaves nothing to roll
// forward or back. A reader never meets a prepared record of it; a
// concurrent two-phase writer of k either fails its own conditional put
// on the version this one moves, or holds a prepared record this one's
// expect does not match. The commit timestamp is drawn just before the
// write, after every read of k this transaction makes, so the commit
// order agrees with the key's version order.
func (t *Txn) putPrepared(ctx context.Context, k wkey, coordName string, prepTS int64, prev readEntry, expect uint64) error {
	w := t.writes[k]
	prevExisted := expect != kvstore.MustNotExist
	switch {
	case w.kind == kindInsert && prevExisted:
		return errors.New("insert of existing key")
	case w.kind == kindDelete && !prevExisted:
		return errors.New("delete of missing key")
	case w.kind == kindReadLock:
		// The materialized read re-writes the image it observed (a
		// read-lock's key is always in the read set, so prev exists).
		w.fields = prev.fieldMap()
	}
	s := t.m.stores[k.store]
	if len(t.writes) == 1 {
		t.commitTS = t.m.opts.Clock.Now()
		if w.kind == kindDelete {
			if err := s.Delete(ctx, k.table, k.key, expect); err != nil {
				return err
			}
			w.installedVer = expect + 1 // the tombstone's version
			return nil
		}
		ver, err := s.Put(ctx, k.table, k.key, w.fields, expect)
		if err != nil {
			return err
		}
		w.installedVer = ver
		return nil
	}

	var prevImage []byte
	if prevExisted {
		prevImage = prev.image()
	}

	prepared := make(map[string][]byte, len(w.fields)+6)
	for f, v := range w.fields {
		prepared[f] = v
	}
	prepared[metaState] = []byte("P")
	prepared[metaID] = []byte(t.id)
	prepared[metaCoord] = []byte(coordName)
	prepared[metaPrepareTS] = []byte(strconv.FormatInt(prepTS, 10))
	prepared[metaPrev] = prevImage
	if w.kind == kindDelete {
		prepared[metaDelete] = []byte("1")
	}

	ver, err := s.Put(ctx, k.table, k.key, prepared, expect)
	if err != nil {
		return err
	}
	w.installedVer = ver + 1
	w.prepared = true
	w.preparedVer = ver
	w.prevImage = prevImage
	w.prevExisted = prevExisted
	return nil
}

func cloneFields(in map[string][]byte) map[string][]byte {
	out := make(map[string][]byte, len(in))
	for f, v := range in {
		out[f] = append([]byte(nil), v...)
	}
	return out
}
