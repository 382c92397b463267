package kvstore

import (
	"context"

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
}

// NewBinding wraps an existing store; Cleanup leaves it open.
func NewBinding(s *Store) *Binding { return &Binding{eng: s} }

// NewEngineBinding wraps any Engine (an audit wrapper, a service-time
// model, ...) in the same db.DB adapter; Cleanup leaves it open.
func NewEngineBinding(e Engine) *Binding { return &Binding{eng: e} }

func init() {
	db.Register("kvstore", func() (db.DB, error) { return &Binding{}, nil })
}

// Init opens a DefaultShards store at the "kvstore.path" property
// (empty: volatile) unless NewBinding supplied one.
func (b *Binding) Init(p *properties.Properties) error {
	if b.eng == nil {
		s, err := Open(Options{
			Path:    p.GetString("kvstore.path", ""),
			Shards:  DefaultShards,
			Metrics: obs.Enabled(p.GetBool("obs.enabled", false)),
		})
		if err != nil {
			return err
		}
		b.eng = s
		b.owns = true
	}
	return nil
}

// Cleanup closes the store when this binding opened it.
func (b *Binding) Cleanup() error {
	if b.owns && b.eng != nil {
		return b.eng.Close()
	}
	return nil
}

// Read implements db.DB.
func (b *Binding) Read(ctx context.Context, table, key string, fields []string) (db.Record, error) {
	rec, err := b.eng.Get(table, key)
	if err != nil {
		return nil, err
	}
	db.ReportReadVersion(ctx, rec.Version)
	return rec.Project(fields), nil
}

// Scan implements db.DB.
func (b *Binding) Scan(_ context.Context, table, startKey string, count int, fields []string) ([]db.KV, error) {
	kvs, err := b.eng.Scan(table, startKey, count)
	if err != nil {
		return nil, err
	}
	out := make([]db.KV, 0, len(kvs))
	for _, kv := range kvs {
		out = append(out, db.KV{Key: kv.Key, Fields: kv.Record.View().Project(fields)})
	}
	return out, nil
}

// Update implements db.DB.
func (b *Binding) Update(ctx context.Context, table, key string, values db.Record) error {
	ver, err := b.eng.Update(table, key, values)
	if err == nil {
		db.ReportWriteVersion(ctx, ver)
	}
	return err
}

// Insert implements db.DB; like most key-value stores, an insert of
// an existing key overwrites it.
func (b *Binding) Insert(ctx context.Context, table, key string, values db.Record) error {
	ver, err := b.eng.Put(table, key, values)
	if err == nil {
		db.ReportWriteVersion(ctx, ver)
	}
	return err
}

// Delete implements db.DB.
func (b *Binding) Delete(_ context.Context, table, key string) error {
	return b.eng.Delete(table, key)
}
