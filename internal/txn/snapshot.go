package txn

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	"ycsbt/internal/db"
	"ycsbt/internal/kvstore"
)

// SnapshotStore is the optional capability a Store exposes when its
// backing engine keeps MVCC version chains: pinning a snapshot
// timestamp and reading as of one. LocalStore implements it over any
// engine with time-travel support; the HTTP remote store implements it
// over the as-of wire protocol. Stores without the capability (e.g.
// the cloudsim simulator) simply don't, and BeginReadOnly reads
// against them fail with ErrSnapshotUnsupported.
type SnapshotStore interface {
	Store
	// Snapshot draws a snapshot timestamp in this store's commit-ts
	// domain and, where the transport allows, pins it against version
	// reclamation until the release func is called. Release must be
	// idempotent; implementations that cannot pin remotely return a
	// no-op release, and their reads stay exact only while the store's
	// opt-in retention window covers the snapshot.
	Snapshot(ctx context.Context) (int64, func(), error)
	// GetAsOf resolves table/key to its newest version with commit ts
	// ≤ ts; keys deleted as of ts are not found, and a version the store
	// has already reclaimed fails with kvstore.ErrBelowHorizon.
	GetAsOf(ctx context.Context, table, key string, ts int64) (*kvstore.VersionedRecord, error)
	// ScanAsOf is Scan against the same frozen cut.
	ScanAsOf(ctx context.Context, table, startKey string, count int, ts int64) ([]kvstore.VersionedKV, error)
}

// ErrSnapshotUnsupported reports a snapshot read against a store that
// does not keep version history.
var ErrSnapshotUnsupported = errors.New("txn: store does not support snapshot reads")

// snapPin is one store's pinned snapshot.
type snapPin struct {
	store   SnapshotStore
	ts      int64
	release func()
}

// ReadOnlyTxn is a snapshot transaction: every read resolves against a
// timestamp pinned per store at first touch, so the transaction sees a
// frozen cut of each store no matter how many writers commit
// concurrently — no locks taken, no validation at commit, no prepare
// phase, and writers are never blocked or aborted by it.
//
// Prepared records met under the snapshot are resolved without
// repairing them: the writer's commit point is its TSR write, and the
// TSR table is itself MVCC-versioned, so looking the TSR up as of the
// coordinating store's snapshot ts answers "had this transaction
// committed at my snapshot?" exactly — even after the committer
// deleted the TSR, because the deletion is a later tombstone the as-of
// read does not see. Committed-as-of writes surface their new image;
// everything else reads around via the prepared record's previous-
// image metadata.
//
// Each store's cut is internally exact. Across stores the cuts are
// pinned sequentially, so a distributed transaction whose commit
// point races the pinning sequence may appear committed on one store's
// cut and uncommitted on another's; single-store snapshot reads (and
// multi-store reads that only touch one store) have no such window.
type ReadOnlyTxn struct {
	m    *Manager
	id   string
	done bool

	snaps map[string]*snapPin
}

// BeginReadOnly starts a snapshot transaction. Store snapshots are
// pinned lazily on first read of each store and released by
// Commit/Abort; the manager's min-active-ts watermark (published to
// every vacuum-capable store) keeps the pinned versions reclaimable
// only after release.
func (m *Manager) BeginReadOnly(_ context.Context) (*ReadOnlyTxn, error) {
	return &ReadOnlyTxn{
		m:     m,
		id:    fmt.Sprintf("r%s-%x", m.id, m.seq.Add(1)),
		snaps: make(map[string]*snapPin),
	}, nil
}

// ID returns the transaction id.
func (t *ReadOnlyTxn) ID() string { return t.id }

// ReadTS reports the snapshot timestamp pinned for a store, or 0 when
// the transaction has not read from it yet.
func (t *ReadOnlyTxn) ReadTS(store string) int64 {
	if p, ok := t.snaps[store]; ok {
		return p.ts
	}
	if store == "" && t.m.defalt != "" {
		if p, ok := t.snaps[t.m.defalt]; ok {
			return p.ts
		}
	}
	return 0
}

// pin resolves a store to its SnapshotStore capability and pins its
// snapshot on first touch.
func (t *ReadOnlyTxn) pin(ctx context.Context, store string) (*snapPin, error) {
	s, err := t.m.store(store)
	if err != nil {
		return nil, err
	}
	if p, ok := t.snaps[s.Name()]; ok {
		return p, nil
	}
	ss, ok := s.(SnapshotStore)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrSnapshotUnsupported, s.Name())
	}
	ts, release, err := ss.Snapshot(ctx)
	if err != nil {
		return nil, err
	}
	wmRelease := t.m.acquireSnapshot(ts)
	p := &snapPin{store: ss, ts: ts, release: func() {
		release()
		wmRelease()
	}}
	t.snaps[s.Name()] = p
	return p, nil
}

// Read returns the committed user fields of store/table/key as of this
// transaction's snapshot.
func (t *ReadOnlyTxn) Read(ctx context.Context, store, table, key string) (map[string][]byte, error) {
	if t.done {
		return nil, ErrTxnDone
	}
	p, err := t.pin(ctx, store)
	if err != nil {
		return nil, err
	}
	rec, err := p.store.GetAsOf(ctx, table, key, p.ts)
	if err != nil {
		if errors.Is(err, kvstore.ErrNotFound) && !errors.Is(err, kvstore.ErrBelowHorizon) {
			return nil, fmt.Errorf("%w: %s/%s/%s as of %d", ErrNotFound, p.store.Name(), table, key, p.ts)
		}
		return nil, err
	}
	fields, err := t.resolveAsOf(ctx, p, table, key, rec)
	if err != nil {
		return nil, err
	}
	if fields == nil {
		return nil, fmt.Errorf("%w: %s/%s/%s as of %d", ErrNotFound, p.store.Name(), table, key, p.ts)
	}
	return fields, nil
}

// Scan returns up to count committed records of store/table from
// startKey as of this transaction's snapshot. A count < 0 scans to the
// end of the table.
func (t *ReadOnlyTxn) Scan(ctx context.Context, store, table, startKey string, count int) ([]db.KV, error) {
	if t.done {
		return nil, ErrTxnDone
	}
	p, err := t.pin(ctx, store)
	if err != nil {
		return nil, err
	}
	kvs, err := p.store.ScanAsOf(ctx, table, startKey, count, p.ts)
	if err != nil {
		return nil, err
	}
	out := make([]db.KV, 0, len(kvs))
	for _, kv := range kvs {
		fields, err := t.resolveAsOf(ctx, p, table, kv.Key, kv.Record)
		if err != nil {
			return nil, err
		}
		if fields == nil {
			continue // write of a txn not committed as of the snapshot, no prior image
		}
		out = append(out, db.KV{Key: kv.Key, Fields: db.MapFields(fields)})
	}
	return out, nil
}

// resolveAsOf turns a record fetched at the snapshot into its
// committed-as-of user image, or nil when the key did not (visibly)
// exist at the snapshot. It never writes: prepared records are read
// around or through via metadata only.
func (t *ReadOnlyTxn) resolveAsOf(ctx context.Context, p *snapPin, table, key string, rec *kvstore.VersionedRecord) (map[string][]byte, error) {
	if !isPrepared(rec) {
		return userFields(rec.FieldMap()), nil
	}

	// A prepared image sits at the snapshot. Its transaction committed
	// for this snapshot iff the TSR exists as of the coordinating
	// store's snapshot ts — the commit point, frozen in the TSR table's
	// own version history.
	writerID := string(rec.Field(metaID))
	coordName := string(rec.Field(metaCoord))
	isDelete := len(rec.Field(metaDelete)) > 0
	prevImage := rec.Field(metaPrev)

	committed := false
	if cp, err := t.pin(ctx, coordName); err == nil {
		tsr, err := cp.store.GetAsOf(ctx, tsrTable, writerID, cp.ts)
		switch {
		case err == nil:
			committed = string(tsr.Field(tsrState)) == tsrCommitted
		case errors.Is(err, kvstore.ErrBelowHorizon):
			if err := notCommittedSince(ctx, p, cp, table, key, rec, err); err != nil {
				return nil, err // the commit point is no longer on record as of the snapshot
			}
		}
	}
	// An unknown or snapshot-incapable coordinating store leaves
	// committed = false: the conservative read-around below returns the
	// previous committed image, the same answer a fresh in-flight
	// prepare gets.

	if committed {
		if isDelete {
			return nil, nil
		}
		return userFields(rec.FieldMap()), nil
	}
	if len(prevImage) == 0 {
		return nil, nil // prepared insert, not committed as of the snapshot
	}
	prev, err := decodeImage(prevImage)
	if err != nil {
		return nil, err
	}
	return userFields(prev), nil
}

// notCommittedSince settles a TSR lookup that the TSR table's history
// no longer reaches, from what the stores hold now: it returns nil when
// the writer of rec, prepared at table/key on p's store, cannot have
// committed as of cp's snapshot, and horizonErr when that cannot be
// told. Each TSR a store purges raises the table's purge horizon, and on
// a store whose snapshots pin nothing that horizon passes the snapshot
// with the next commit. The writer had not committed as of the snapshot
// when its TSR is live now — one written at or before the snapshot would
// have answered the as-of lookup — or when it has no TSR now and rec is
// still the head of its key: a committer removes its TSR only after
// rolling every record forward, so this writer's commit point, if it
// ever reaches one, is still to come. Otherwise the writer is done and
// its TSR gone with the history that dated it.
func notCommittedSince(ctx context.Context, p, cp *snapPin, table, key string, rec *kvstore.VersionedRecord, horizonErr error) error {
	writerID := rec.Field(metaID)
	_, err := cp.store.Get(ctx, tsrTable, string(writerID))
	switch {
	case err == nil:
		return nil
	case !errors.Is(err, kvstore.ErrNotFound):
		return err
	}
	head, err := p.store.Get(ctx, table, key)
	if err == nil && head.Version == rec.Version && bytes.Equal(head.Field(metaID), writerID) {
		return nil
	}
	return horizonErr
}

// Commit finishes the transaction, releasing every pinned snapshot.
// Snapshot transactions cannot conflict; Commit never fails with
// ErrConflict.
func (t *ReadOnlyTxn) Commit(_ context.Context) error {
	if t.done {
		return ErrTxnDone
	}
	t.finish()
	t.m.commits.Add(1)
	return nil
}

// Abort finishes the transaction, releasing every pinned snapshot.
// Aborting a finished transaction is a no-op.
func (t *ReadOnlyTxn) Abort(_ context.Context) error {
	if t.done {
		return nil
	}
	t.finish()
	t.m.aborts.Add(1)
	return nil
}

func (t *ReadOnlyTxn) finish() {
	t.done = true
	for _, p := range t.snaps {
		p.release()
	}
}

// Snapshot implements SnapshotStore over the embedded engine.
func (l *LocalStore) Snapshot(_ context.Context) (int64, func(), error) {
	ts, release := l.inner.Pin()
	return ts, release, nil
}

// GetAsOf implements SnapshotStore.
func (l *LocalStore) GetAsOf(_ context.Context, table, key string, ts int64) (*kvstore.VersionedRecord, error) {
	return l.inner.GetAsOf(table, key, ts)
}

// ScanAsOf implements SnapshotStore.
func (l *LocalStore) ScanAsOf(_ context.Context, table, startKey string, count int, ts int64) ([]kvstore.VersionedKV, error) {
	return l.inner.ScanAsOf(table, startKey, count, ts)
}

var _ SnapshotStore = (*LocalStore)(nil)

// vacuumFloorStore is implemented by stores that can defer version
// reclamation below an externally supplied min-active-ts watermark
// (LocalStore forwards to engines that support it).
type vacuumFloorStore interface {
	SetVacuumFloor(ts int64)
}

// SetVacuumFloor forwards the watermark to the embedded engine when it
// supports one; other engines keep what their pins and retention window
// keep.
func (l *LocalStore) SetVacuumFloor(ts int64) {
	if f, ok := l.inner.(interface{ SetVacuumFloor(int64) }); ok {
		f.SetVacuumFloor(ts)
	}
}

// acquireSnapshot registers a live snapshot ts with the manager's
// watermark and republishes the min-active floor to every
// vacuum-capable store; the returned release undoes both.
func (m *Manager) acquireSnapshot(ts int64) func() {
	release := m.watermark.Acquire(ts)
	m.publishWatermark()
	return func() {
		release()
		m.publishWatermark()
	}
}

// publishWatermark pushes the current min-active snapshot ts to every
// store that can hold its vacuum below it. No active snapshot clears
// the floor (stores then keep only what pins and an opt-in retention
// window need). Commit
// timestamps are drawn per store, but all clock domains are bumped
// UnixNano, so the min across stores is a conservative shared floor.
func (m *Manager) publishWatermark() {
	min := m.watermark.Min()
	for _, s := range m.stores {
		if f, ok := s.(vacuumFloorStore); ok {
			if min == noActiveSnapshot {
				f.SetVacuumFloor(0)
			} else {
				f.SetVacuumFloor(min)
			}
		}
	}
}

// MinActiveSnapshot reports the oldest snapshot ts pinned by a live
// read-only transaction, or noActiveSnapshot (MaxInt64) when none is.
func (m *Manager) MinActiveSnapshot() int64 { return m.watermark.Min() }
