package percolator

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ycsbt/internal/kvstore"
)

// Batched prewrite. The per-key prewrite pays one read and one
// conditional put per record — 2N store round trips for an N-record
// write set, which is exactly the per-operation overhead the paper's
// Tier 5 identifies as the transactional bottleneck. When the store
// offers the batched capability, the whole write set is prewritten
// with ONE batched read plus ONE batched conditional put; only records
// that hit a foreign lock or lose a version race fall back to the
// per-key path, which knows how to resolve and retry.

// BatchStore is the optional store capability the batched prewrite
// detects: multi-key reads and conditional writes as single requests.
// cloudsim.Store and txn.LocalStore implement it; any Store without it
// gets the per-key path unchanged.
type BatchStore interface {
	BatchGet(ctx context.Context, reqs []kvstore.GetReq) ([]kvstore.GetResult, error)
	BatchApply(ctx context.Context, muts []kvstore.Mutation) ([]kvstore.MutResult, error)
}

// prewriteAll installs the transaction's locks on every buffered
// write. On failure it reports which record conflicted.
func (t *Txn) prewriteAll(ctx context.Context, keys []tkey, primary tkey) (tkey, error) {
	bs, ok := t.m.store.(BatchStore)
	if !ok || len(keys) < 2 {
		for _, k := range keys {
			if err := t.prewrite(ctx, k, primary); err != nil {
				return k, err
			}
		}
		return tkey{}, nil
	}

	// One batched read of the whole write set.
	reqs := make([]kvstore.GetReq, len(keys))
	for i, k := range keys {
		reqs[i] = kvstore.GetReq{Table: k.table, Key: k.key}
	}
	recs, err := bs.BatchGet(ctx, reqs)
	if err != nil {
		return primary, err
	}

	// Build the lock mutations for every record that is cleanly
	// writable at this snapshot; anything holding a foreign lock goes
	// to the per-key path, which resolves stale holders.
	muts := make([]kvstore.Mutation, 0, len(keys))
	mutIdx := make([]int, 0, len(keys))
	var slow []int
	for i, k := range keys {
		r := recs[i]
		var fields map[string][]byte
		var ver uint64
		if r.Err != nil {
			if !errors.Is(r.Err, kvstore.ErrNotFound) {
				return k, r.Err
			}
		} else {
			fields, ver = r.Record.FieldMap(), r.Record.Version
		}
		if fields != nil {
			if maxCommitTS(fields) > t.startTS {
				return k, fmt.Errorf("newer committed version")
			}
			if lockBytes := fields[lockField]; len(lockBytes) > 0 {
				lk, err := decodeLock(lockBytes)
				if err != nil {
					return k, err
				}
				if lk.StartTS == t.startTS {
					continue // already prewritten (retry path)
				}
				slow = append(slow, i)
				continue
			}
		}
		w := t.writes[k]
		next := make(map[string][]byte, len(fields)+2)
		for f, v := range fields {
			next[f] = v
		}
		next[lockField] = encodeLock(lockRecord{
			PrimaryTable: primary.table,
			PrimaryKey:   primary.key,
			StartTS:      t.startTS,
			WallNano:     time.Now().UnixNano(),
		})
		next[pendingFld] = encodePending(w.del, t.startTS, w.fields)
		expect := ver
		if fields == nil {
			expect = kvstore.MustNotExist
		}
		muts = append(muts, kvstore.Mutation{Op: kvstore.MutPut, Table: k.table, Key: k.key, Fields: next, Expect: expect})
		mutIdx = append(mutIdx, i)
	}

	// One batched conditional put installs all the clean locks.
	if len(muts) > 0 {
		results, err := bs.BatchApply(ctx, muts)
		if err != nil {
			return primary, err
		}
		for j, r := range results {
			i := mutIdx[j]
			if r.Err == nil {
				w := t.writes[keys[i]]
				w.prewritten = true
				w.prewriteVer = r.Version
				continue
			}
			// Lost a version race since the batched read; the per-key
			// path reloads, re-checks, and resolves.
			slow = append(slow, i)
		}
	}

	for _, i := range slow {
		if err := t.prewrite(ctx, keys[i], primary); err != nil {
			return keys[i], err
		}
	}
	return tkey{}, nil
}
