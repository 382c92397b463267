package httpkv

import (
	"context"
	"fmt"

	"ycsbt/internal/db"
	"ycsbt/internal/kvstore"
	"ycsbt/internal/kvwire"
)

// ExecBatch implements db.BatchDB. On a frame endpoint the whole batch
// rides one request frame, answered positionally with per-item results
// (no atomicity across items); an HTTP endpoint has no batch route and
// answers the batch with sequential single operations.
func (c *Client) ExecBatch(ctx context.Context, ops []db.BatchOp) []db.BatchResult {
	if c.wire == nil {
		return db.ExecEach(ctx, c, ops)
	}
	out := make([]db.BatchResult, len(ops))
	wops := make([]kvwire.Op, 0, len(ops))
	idx := make([]int, 0, len(ops))
	for i, op := range ops {
		w := kvwire.Op{Table: op.Table, Key: op.Key, Expect: kvstore.AnyVersion}
		switch op.Op {
		case db.OpRead:
			w.Kind, w.AsOf = kvwire.KindGet, c.asOf
		case db.OpInsert:
			w.Kind, w.Fields = kvwire.KindPut, op.Values
		case db.OpUpdate:
			w.Kind, w.Fields = kvwire.KindPatch, op.Values
		case db.OpDelete:
			w.Kind = kvwire.KindDelete
		default:
			out[i] = db.BatchResult{Err: fmt.Errorf("%w: cannot batch %v", db.ErrNotSupported, op.Op)}
			continue
		}
		wops = append(wops, w)
		idx = append(idx, i)
	}
	if len(wops) == 0 {
		return out
	}
	res, err := c.exec(ctx, wops)
	for j, i := range idx {
		if err != nil {
			out[i] = db.BatchResult{Err: err}
			continue
		}
		if rerr := wireResultErr(res[j]); rerr != nil {
			out[i] = db.BatchResult{Err: rerr}
		} else if res[j].Fields != nil {
			out[i] = db.BatchResult{Record: db.ProjectFields(res[j].Fields, ops[i].Fields)}
		}
	}
	return out
}

var _ db.BatchDB = (*Client)(nil)
