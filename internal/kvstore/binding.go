package kvstore

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ycsbt/internal/db"
	"ycsbt/internal/obs"
	"ycsbt/internal/properties"
)

// Binding adapts a Store to the YCSB+T db.DB interface. It is the
// non-transactional embedded binding ("kvstore"): single-key
// operations are linearizable but multi-operation sequences are not
// isolated, so the CEW anomaly score grows with concurrency exactly
// as in Figure 4 of the paper.
type Binding struct {
	db.NoTransactions
	eng  Engine
	owns bool // Close the engine on Cleanup

	// asOf pins every read to a fixed snapshot timestamp (the "as_of"
	// property); 0 reads at head. unpin releases the retention pin
	// taken for it on Cleanup.
	asOf  int64
	unpin func()
}

// NewBinding wraps an existing store; Cleanup leaves it open.
func NewBinding(s *Store) *Binding { return &Binding{eng: s} }

// NewEngineBinding wraps any Engine (an audit wrapper, a service-time
// model, ...) in the same db.DB adapter; Cleanup leaves it open.
func NewEngineBinding(e Engine) *Binding { return &Binding{eng: e} }

func init() {
	db.Register("kvstore", func() (db.DB, error) { return &Binding{}, nil })
}

// Init opens the store per the "kvstore.path", "kvstore.sync",
// "kvstore.shards", "kvstore.wal.group_commit_ms",
// "kvstore.retention_ms" and "kvstore.vacuum_interval_ms" properties
// unless NewBinding supplied one. The "as_of" property (a commit
// timestamp, or -1 for "now") pins every read this binding serves to
// that snapshot: reads resolve through version chains and never see
// later writes, and the pinned versions are protected from vacuum
// until Cleanup.
func (b *Binding) Init(p *properties.Properties) error {
	if b.eng == nil {
		s, err := Open(Options{
			Path:           p.GetString("kvstore.path", ""),
			SyncWrites:     p.GetBool("kvstore.sync", false),
			Shards:         p.GetInt("kvstore.shards", DefaultShards),
			GroupCommit:    time.Duration(p.GetInt64("kvstore.wal.group_commit_ms", 0)) * time.Millisecond,
			Retention:      time.Duration(p.GetInt64("kvstore.retention_ms", 0)) * time.Millisecond,
			VacuumInterval: time.Duration(p.GetInt64("kvstore.vacuum_interval_ms", 0)) * time.Millisecond,
			Metrics:        obs.Enabled(p.GetBool("obs.enabled", false)),
		})
		if err != nil {
			return err
		}
		b.eng = s
		b.owns = true
	}
	if ts := p.GetInt64("as_of", 0); ts != 0 {
		pinned, release := b.eng.Pin()
		if ts < 0 {
			ts = pinned
		}
		b.asOf, b.unpin = ts, release
	}
	return nil
}

// Cleanup releases the as-of pin and closes the store when this
// binding opened it.
func (b *Binding) Cleanup() error {
	if b.unpin != nil {
		b.unpin()
		b.unpin = nil
	}
	if b.owns && b.eng != nil {
		return b.eng.Close()
	}
	return nil
}

// Store exposes the underlying partitioned store when the binding
// wraps one directly (for validation scans and tests); nil when the
// binding wraps some other Engine.
func (b *Binding) Store() *Store {
	s, _ := b.eng.(*Store)
	return s
}

// Eng exposes the wrapped engine.
func (b *Binding) Eng() Engine { return b.eng }

// translate maps engine errors to db-layer sentinels.
func translate(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrBelowHorizon):
		return err // not db.ErrNotFound: the record may well have existed
	case errors.Is(err, ErrNotFound):
		return fmt.Errorf("%w: %v", db.ErrNotFound, err)
	case errors.Is(err, ErrVersionMismatch), errors.Is(err, ErrExists):
		return fmt.Errorf("%w: %v", db.ErrConflict, err)
	default:
		return err
	}
}

// Read implements db.DB.
func (b *Binding) Read(ctx context.Context, table, key string, fields []string) (db.Record, error) {
	var rec *VersionedRecord
	var err error
	if b.asOf != 0 {
		rec, err = b.eng.GetAsOf(table, key, b.asOf)
	} else {
		rec, err = b.eng.Get(table, key)
	}
	if err != nil {
		return nil, translate(err)
	}
	db.ReportReadVersion(ctx, rec.Version)
	return rec.Project(fields), nil
}

// Scan implements db.DB.
func (b *Binding) Scan(_ context.Context, table, startKey string, count int, fields []string) ([]db.KV, error) {
	var kvs []VersionedKV
	var err error
	if b.asOf != 0 {
		kvs, err = b.eng.ScanAsOf(table, startKey, count, b.asOf)
	} else {
		kvs, err = b.eng.Scan(table, startKey, count)
	}
	if err != nil {
		return nil, translate(err)
	}
	out := make([]db.KV, 0, len(kvs))
	for _, kv := range kvs {
		out = append(out, db.KV{Key: kv.Key, Record: kv.Record.Project(fields)})
	}
	return out, nil
}

// Update implements db.DB.
func (b *Binding) Update(ctx context.Context, table, key string, values db.Record) error {
	ver, err := b.eng.Update(table, key, values)
	if err == nil {
		db.ReportWriteVersion(ctx, ver)
	}
	return translate(err)
}

// Insert implements db.DB; like most key-value stores, an insert of
// an existing key overwrites it.
func (b *Binding) Insert(ctx context.Context, table, key string, values db.Record) error {
	ver, err := b.eng.Put(table, key, values)
	if err == nil {
		db.ReportWriteVersion(ctx, ver)
	}
	return translate(err)
}

// Delete implements db.DB.
func (b *Binding) Delete(_ context.Context, table, key string) error {
	return translate(b.eng.Delete(table, key))
}

// ExecBatch implements db.BatchDB by splitting the batch into maximal
// runs of same-kind operations — consecutive reads become one
// BatchGet, consecutive writes one BatchApply — so each run pays one
// lock acquisition and one group-commit wait per touched partition
// while the batch's internal order is preserved.
func (b *Binding) ExecBatch(_ context.Context, ops []db.BatchOp) []db.BatchResult {
	out := make([]db.BatchResult, len(ops))
	for lo := 0; lo < len(ops); {
		hi := lo + 1
		for hi < len(ops) && (ops[hi].Op == db.OpRead) == (ops[lo].Op == db.OpRead) {
			hi++
		}
		if ops[lo].Op == db.OpRead {
			b.execReadRun(ops[lo:hi], out[lo:hi])
		} else {
			b.execWriteRun(ops[lo:hi], out[lo:hi])
		}
		lo = hi
	}
	return out
}

// execReadRun answers a run of reads with one engine BatchGet
// (BatchGetAsOf when the binding is pinned to a snapshot).
func (b *Binding) execReadRun(ops []db.BatchOp, out []db.BatchResult) {
	reqs := make([]GetReq, len(ops))
	for i, op := range ops {
		reqs[i] = GetReq{Table: op.Table, Key: op.Key}
	}
	var results []GetResult
	if b.asOf != 0 {
		results = b.eng.BatchGetAsOf(reqs, b.asOf)
	} else {
		results = b.eng.BatchGet(reqs)
	}
	for i, r := range results {
		if r.Err != nil {
			out[i] = db.BatchResult{Err: translate(r.Err)}
			continue
		}
		out[i] = db.BatchResult{Record: r.Record.Project(ops[i].Fields)}
	}
}

// execWriteRun applies a run of writes with one engine BatchApply.
// Updates map to MutUpdate (read-merge-write under the partition
// lock); inserts overwrite like single-op Insert does.
func (b *Binding) execWriteRun(ops []db.BatchOp, out []db.BatchResult) {
	muts := make([]Mutation, 0, len(ops))
	idx := make([]int, 0, len(ops))
	for i, op := range ops {
		var m Mutation
		switch op.Op {
		case db.OpUpdate:
			m = Mutation{Op: MutUpdate, Table: op.Table, Key: op.Key, Fields: op.Values}
		case db.OpInsert:
			m = Mutation{Op: MutPut, Table: op.Table, Key: op.Key, Fields: op.Values, Expect: AnyVersion}
		case db.OpDelete:
			m = Mutation{Op: MutDelete, Table: op.Table, Key: op.Key, Expect: AnyVersion}
		default:
			out[i] = db.BatchResult{Err: fmt.Errorf("%w: cannot batch %v", db.ErrNotSupported, op.Op)}
			continue
		}
		muts = append(muts, m)
		idx = append(idx, i)
	}
	for j, r := range b.eng.BatchApply(muts) {
		out[idx[j]] = db.BatchResult{Err: translate(r.Err)}
	}
}

var _ db.BatchDB = (*Binding)(nil)
