package percolator

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"ycsbt/internal/kvstore"
)

// This file implements the storage-level record manipulation: loading
// records, reading a snapshot version, committing and rolling back
// locks, and crash resolution through a lock's primary.

// loadRecord fetches the raw record fields and version; a missing
// record returns (nil, 0, nil).
func (m *Manager) loadRecord(ctx context.Context, table, key string) (map[string][]byte, uint64, error) {
	rec, err := m.store.Get(ctx, table, key)
	if err != nil {
		if errors.Is(err, kvstore.ErrNotFound) {
			return nil, 0, nil
		}
		return nil, 0, err
	}
	return rec.FieldMap(), rec.Version, nil
}

// dataField formats the committed-version field name for a commit_ts.
func dataField(commitTS int64) string {
	return dataPrefix + fmt.Sprintf("%0*d", tsFieldWide, commitTS)
}

// parseDataField extracts the commit_ts from a version field name, or
// -1 when the field is not a version.
func parseDataField(name string) int64 {
	if !strings.HasPrefix(name, dataPrefix) {
		return -1
	}
	ts, err := strconv.ParseInt(name[len(dataPrefix):], 10, 64)
	if err != nil {
		return -1
	}
	return ts
}

// maxCommitTS returns the newest committed version timestamp in a
// record (0 when none).
func maxCommitTS(fields map[string][]byte) int64 {
	var max int64
	for f := range fields {
		if ts := parseDataField(f); ts > max {
			max = ts
		}
	}
	return max
}

// versionAt returns the newest committed version with commit_ts ≤ ts,
// or (nil, 0) when none is visible.
func versionAt(fields map[string][]byte, ts int64) ([]byte, int64) {
	var bestTS int64 = -1
	var best []byte
	for f, v := range fields {
		if cts := parseDataField(f); cts >= 0 && cts <= ts && cts > bestTS {
			bestTS, best = cts, v
		}
	}
	if bestTS < 0 {
		return nil, 0
	}
	return best, bestTS
}

// readAt performs a snapshot read with lock resolution and bounded
// waiting.
func (m *Manager) readAt(ctx context.Context, table, key string, ts int64) (map[string][]byte, error) {
	fields, _, err := m.loadRecord(ctx, table, key)
	if err != nil {
		return nil, err
	}
	if fields == nil {
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, table, key)
	}
	rec := &kvstore.VersionedRecord{Fields: fields}
	return m.resolveRead(ctx, table, key, rec, ts, m.opts.ReadLockRetries)
}

// resolveRead turns a fetched raw record into the user image at ts,
// resolving or waiting out locks as Percolator prescribes: a lock
// with start_ts ≤ read_ts could commit at a commit_ts below read_ts,
// so the read cannot proceed past it.
func (m *Manager) resolveRead(ctx context.Context, table, key string, rec *kvstore.VersionedRecord, ts int64, retries int) (map[string][]byte, error) {
	fields := rec.FieldMap()
	for attempt := 0; ; attempt++ {
		if lockBytes := fields[lockField]; len(lockBytes) > 0 {
			lk, err := decodeLock(lockBytes)
			if err != nil {
				return nil, err
			}
			if lk.StartTS <= ts {
				if m.maybeResolve(ctx, table, key, lk) {
					// Resolved; reload and re-check.
				} else if attempt >= retries {
					return nil, fmt.Errorf("%w: %s/%s by txn@%d", ErrLocked, table, key, lk.StartTS)
				} else if err := sleepCtx(ctx, m.opts.ReadLockBackoff); err != nil {
					return nil, err
				}
				var lerr error
				fields, _, lerr = m.loadRecord(ctx, table, key)
				if lerr != nil {
					return nil, lerr
				}
				if fields == nil {
					return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, table, key)
				}
				continue
			}
		}
		break
	}
	val, _ := versionAt(fields, ts)
	if val == nil {
		return nil, fmt.Errorf("%w: %s/%s (no version ≤ %d)", ErrNotFound, table, key, ts)
	}
	del, user, err := decodePending(val)
	if err != nil {
		return nil, err
	}
	if del {
		return nil, fmt.Errorf("%w: %s/%s (tombstone)", ErrNotFound, table, key)
	}
	return user, nil
}

// commitRecord replaces this transaction's lock on table/key with a
// committed version at commitTS. It is used for both the primary (the
// commit point, where failure aborts) and secondaries / recovery
// roll-forward (where a missing lock means someone else finished the
// job).
func (m *Manager) commitRecord(ctx context.Context, table, key string, startTS, commitTS int64) error {
	for {
		fields, ver, err := m.loadRecord(ctx, table, key)
		if err != nil {
			return err
		}
		if fields == nil {
			return fmt.Errorf("record vanished")
		}
		lockBytes := fields[lockField]
		if len(lockBytes) == 0 {
			// Lock gone: either already committed (fine) or rolled
			// back (conflict for the primary path).
			if _, ok := fields[dataField(commitTS)]; ok {
				return nil
			}
			return fmt.Errorf("lock lost before commit")
		}
		lk, err := decodeLock(lockBytes)
		if err != nil {
			return err
		}
		if lk.StartTS != startTS {
			return fmt.Errorf("lock stolen by txn@%d", lk.StartTS)
		}
		next := make(map[string][]byte, len(fields)+1)
		for f, v := range fields {
			if f == lockField || f == pendingFld {
				continue
			}
			next[f] = v
		}
		next[dataField(commitTS)] = fields[pendingFld]
		pruneVersions(next, m.opts.MaxVersions)
		if _, err := m.store.Put(ctx, table, key, next, ver); err != nil {
			if errors.Is(err, kvstore.ErrVersionMismatch) {
				continue // raced with a reader's resolution; reload
			}
			return err
		}
		return nil
	}
}

// rollbackLock removes a lock installed by startTS (and its pending
// value) from table/key. A lock held by someone else, or no lock at
// all, is left untouched.
func (m *Manager) rollbackLock(ctx context.Context, table, key string, startTS int64) error {
	for {
		fields, ver, err := m.loadRecord(ctx, table, key)
		if err != nil {
			return err
		}
		if fields == nil {
			return nil
		}
		lockBytes := fields[lockField]
		if len(lockBytes) == 0 {
			return nil
		}
		lk, err := decodeLock(lockBytes)
		if err != nil {
			return err
		}
		if lk.StartTS != startTS {
			return nil
		}
		next := make(map[string][]byte, len(fields))
		for f, v := range fields {
			if f == lockField || f == pendingFld {
				continue
			}
			next[f] = v
		}
		if len(next) == 0 {
			// The prewrite created this record; remove it entirely.
			err = m.store.Delete(ctx, table, key, ver)
		} else {
			_, err = m.store.Put(ctx, table, key, next, ver)
		}
		if err != nil {
			if errors.Is(err, kvstore.ErrVersionMismatch) {
				continue
			}
			if errors.Is(err, kvstore.ErrNotFound) {
				return nil
			}
			return err
		}
		return nil
	}
}

// maybeResolve handles a foreign lock: when it is older than the lock
// TTL the writer is presumed dead and the lock is resolved through
// its primary — rolled forward if the primary committed, rolled back
// otherwise. Returns true when the lock was (probably) cleared.
func (m *Manager) maybeResolve(ctx context.Context, table, key string, lk lockRecord) bool {
	// Consult the primary first: rolling FORWARD a transaction whose
	// primary committed is safe at any lock age (the outcome is
	// decided), so readers never stall behind a committed-but-
	// unfinished writer.
	pFields, _, err := m.loadRecord(ctx, lk.PrimaryTable, lk.PrimaryKey)
	if err != nil {
		return false
	}
	// Did the primary commit? Percolator stores the start_ts in the
	// write column; we scan the primary's committed versions for one
	// recorded at this lock's start_ts.
	if commitTS := m.findCommit(pFields, lk.StartTS); commitTS > 0 {
		m.recovered.Add(1)
		m.commitRecord(ctx, table, key, lk.StartTS, commitTS)
		return true
	}
	// Rolling BACK requires presuming the writer dead: TTL-gated.
	age := time.Duration(time.Now().UnixNano() - lk.WallNano)
	if age < m.opts.LockTTL {
		return false
	}
	m.recovered.Add(1)
	// Primary still locked by the same transaction → roll it back
	// first, then this record.
	if lockBytes := pFields[lockField]; len(lockBytes) > 0 {
		if plk, err := decodeLock(lockBytes); err == nil && plk.StartTS == lk.StartTS {
			if err := m.rollbackLock(ctx, lk.PrimaryTable, lk.PrimaryKey, lk.StartTS); err != nil {
				return false
			}
		}
	}
	m.rollbackLock(ctx, table, key, lk.StartTS)
	return true
}

// findCommit searches a record's committed versions for one written
// by startTS and returns its commit_ts (0 when none).
func (m *Manager) findCommit(fields map[string][]byte, startTS int64) int64 {
	for f, v := range fields {
		if cts := parseDataField(f); cts > 0 {
			if sts, ok := pendingStartTS(v); ok && sts == startTS {
				return cts
			}
		}
	}
	return 0
}

// pruneVersions drops the oldest committed versions beyond max.
func pruneVersions(fields map[string][]byte, max int) {
	var tss []int64
	for f := range fields {
		if ts := parseDataField(f); ts >= 0 {
			tss = append(tss, ts)
		}
	}
	if len(tss) <= max {
		return
	}
	sortInt64s(tss)
	for _, ts := range tss[:len(tss)-max] {
		delete(fields, dataField(ts))
	}
}

func sortInt64s(v []int64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j-1] > v[j]; j-- {
			v[j-1], v[j] = v[j], v[j-1]
		}
	}
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
