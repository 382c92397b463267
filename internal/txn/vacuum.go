package txn

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"

	"ycsbt/internal/kvstore"
)

// Vacuum is the maintenance sweep for transaction garbage: a
// committer that crashes after its commit point leaves a committed
// TSR and possibly prepared records. Readers repair records
// lazily, but keys that are never read again would stay prepared and
// their TSRs would accumulate forever. Vacuum finishes the job
// eagerly: for every TSR older than the recovery timeout it resolves
// each key in the TSR's recorded write set (rolling committed writes
// forward) and then removes the TSR.
//
// It returns how many TSRs were removed and how many records were
// resolved. A record that will not resolve (its store, or the store
// holding its TSR, did not answer) keeps its TSR; the sweep goes on and
// returns the first such error. Safe to run concurrently with live
// transactions: all repairs go through the same conditional-put
// resolution paths, and the cutoff never advances past the oldest snapshot pinned by a live
// read-only transaction — a snapshot reader decides commit-as-of by
// looking the TSR up in its version history, so the TSR (and the
// prepared records it covers) must outlive every snapshot that might
// still consult it.
func (m *Manager) Vacuum(ctx context.Context) (tsrsRemoved, recordsResolved int, err error) {
	cutoff := m.opts.Clock.Now() - int64(m.opts.RecoveryTimeout)
	if wm := m.watermark.Min(); wm < cutoff {
		cutoff = wm
	}
	for _, s := range m.stores {
		kvs, serr := s.Scan(ctx, tsrTable, "", -1)
		if serr != nil {
			return tsrsRemoved, recordsResolved, fmt.Errorf("txn: vacuum scanning %s: %w", s.Name(), serr)
		}
		for _, kv := range kvs {
			commitTS, _ := strconv.ParseInt(string(kv.Record.Field(tsrCommitTS)), 10, 64)
			if commitTS == 0 || commitTS > cutoff {
				continue // young TSR: its committer may still be rolling forward
			}
			resolved := true
			for _, wk := range decodeWriteSet(kv.Record.Field(tsrWriteSet)) {
				ws, serr := m.store(wk.store)
				if serr != nil {
					continue // store no longer registered
				}
				if _, rerr := m.readResolved(ctx, ws, wk.table, wk.key); rerr == nil || errors.Is(rerr, ErrNotFound) {
					recordsResolved++
				} else {
					resolved = false
					if err == nil {
						err = fmt.Errorf("txn: vacuum resolving %s: %w", wk, rerr)
					}
				}
			}
			if !resolved {
				continue // a record may still be prepared: its TSR stays (see finish)
			}
			if derr := s.Delete(ctx, tsrTable, kv.Key, kvstore.AnyVersion); derr == nil {
				tsrsRemoved++
			}
		}
	}
	return tsrsRemoved, recordsResolved, err
}

// encodeWriteSet serializes the written keys for the TSR.
func encodeWriteSet(keys []wkey) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(keys)))
	for _, k := range keys {
		for _, part := range []string{k.store, k.table, k.key} {
			buf = binary.AppendUvarint(buf, uint64(len(part)))
			buf = append(buf, part...)
		}
	}
	return buf
}

// decodeWriteSet reverses encodeWriteSet; corrupt input yields an
// empty set (vacuum then only removes the TSR).
func decodeWriteSet(buf []byte) []wkey {
	n, w := binary.Uvarint(buf)
	if w <= 0 {
		return nil
	}
	buf = buf[w:]
	out := make([]wkey, 0, n)
	for i := uint64(0); i < n; i++ {
		var parts [3]string
		for j := 0; j < 3; j++ {
			l, w := binary.Uvarint(buf)
			if w <= 0 || uint64(len(buf)-w) < l {
				return nil
			}
			parts[j] = string(buf[w : w+int(l)])
			buf = buf[w+int(l):]
		}
		out = append(out, wkey{parts[0], parts[1], parts[2]})
	}
	return out
}
