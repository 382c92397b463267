package txn

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"

	"ycsbt/internal/cloudsim"
	"ycsbt/internal/db"
	"ycsbt/internal/history"
	"ycsbt/internal/httpkv"
	"ycsbt/internal/kvstore"
	"ycsbt/internal/obs"
	"ycsbt/internal/properties"
)

// Binding exposes the transaction library as the "txnkv" YCSB+T
// binding: a db.TransactionalDB whose Start/Commit/Abort demarcate
// real client-coordinated transactions and whose data operations,
// when routed through WithTx, execute inside them.
//
// With multiple stores, records are partitioned across stores by key
// hash, so ordinary workloads exercise cross-store transactions.
// Operations invoked outside a transaction run as single-operation
// auto-commit transactions.
type Binding struct {
	m      *Manager
	names  []string // sorted store names for partitioning
	closer func() error
}

// NewBinding wraps an existing manager.
func NewBinding(m *Manager) *Binding {
	b := &Binding{m: m}
	for n := range m.stores {
		b.names = append(b.names, n)
	}
	sort.Strings(b.names)
	return b
}

func init() {
	db.Register("txnkv", func() (db.DB, error) { return &Binding{}, nil })
}

// Init builds the manager from properties when the binding was opened
// by name: "txnkv.backend" is one of "memory" (default), "was",
// "gcs", "was+gcs" (two simulated containers, keys partitioned), or
// "cluster" (client-coordinated transactions over a multi-node
// kvserver fleet routed by the shard map; requires "cluster.nodes");
// "txnkv.serializable" upgrades read validation.
func (b *Binding) Init(p *properties.Properties) error {
	if b.m != nil {
		return nil
	}
	opts := Options{SerializableReads: p.GetBool("txnkv.serializable", false)}
	var stores []Store
	var closers []func() error
	add := func(s Store, c func() error) {
		stores = append(stores, s)
		closers = append(closers, c)
	}
	reg := obs.Enabled(p.GetBool("obs.enabled", false))
	opts.Metrics = reg
	sim := func(cfg cloudsim.Config) *cloudsim.Store {
		cfg.Metrics = reg
		return cloudsim.New(cfg)
	}
	switch backend := p.GetString("txnkv.backend", "memory"); backend {
	case "memory":
		inner, err := kvstore.Open(kvstore.Options{
			Shards:  p.GetInt("kvstore.shards", kvstore.DefaultShards),
			Metrics: reg,
		})
		if err != nil {
			return err
		}
		add(NewLocalStore("local", inner), inner.Close)
	case "was":
		s := sim(cloudsim.WASPreset())
		add(s, s.Close)
	case "gcs":
		s := sim(cloudsim.GCSPreset())
		add(s, s.Close)
	case "was+gcs":
		w := sim(cloudsim.WASPreset())
		g := sim(cloudsim.GCSPreset())
		add(w, w.Close)
		add(g, g.Close)
	case "cluster":
		seeds := httpkv.SplitNodes(p.GetString("cluster.nodes", ""))
		if len(seeds) == 0 {
			return errors.New("txnkv: cluster backend requires cluster.nodes")
		}
		router, err := httpkv.NewRouter(seeds, nil, reg)
		if err != nil {
			return fmt.Errorf("txnkv: cluster backend: %w", err)
		}
		add(httpkv.NewRouterStore("cluster", router), router.Cleanup)
	default:
		return fmt.Errorf("txnkv: unknown backend %q", backend)
	}
	m, err := NewManager(opts, stores...)
	if err != nil {
		return err
	}
	b.m = m
	for n := range m.stores {
		b.names = append(b.names, n)
	}
	sort.Strings(b.names)
	b.closer = func() error {
		var first error
		for _, c := range closers {
			if err := c(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	return nil
}

// Cleanup waits for the commits still finishing behind their callers,
// then closes the stores the binding created.
func (b *Binding) Cleanup() error {
	if b.m == nil {
		return nil
	}
	// A finish stuck on a store that stopped answering is not waited for
	// longer than readers would wait before presuming its writer dead.
	ctx, cancel := context.WithTimeout(context.Background(), b.m.opts.RecoveryTimeout)
	defer cancel()
	_ = b.m.Flush(ctx)
	if b.closer != nil {
		return b.closer()
	}
	return nil
}

// Flush waits for the commits still finishing behind their callers
// (Manager.Flush); the client calls it at the end of every phase.
func (b *Binding) Flush(ctx context.Context) error { return b.m.Flush(ctx) }

// Manager exposes the underlying transaction manager.
func (b *Binding) Manager() *Manager { return b.m }

// SetHistorySink implements history.CapableDB: the transaction
// manager feeds the sink natively from its commit and abort paths —
// richer than the capture middleware (store-qualified keys, commit
// timestamps drawn at the TSR write, aborted read sets) — so the
// client installs the sink here instead of stacking the middleware.
func (b *Binding) SetHistorySink(sink history.TxnSink) { b.m.SetHistory(sink) }

var _ history.CapableDB = (*Binding)(nil)

// storeFor partitions a key across the registered stores.
func (b *Binding) storeFor(key string) string {
	if len(b.names) == 1 {
		return b.names[0]
	}
	h := fnv.New32a()
	h.Write([]byte(key))
	return b.names[int(h.Sum32())%len(b.names)]
}

// translateErr maps txn errors onto db sentinels.
func translateErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrNotFound):
		return fmt.Errorf("%w: %v", db.ErrNotFound, err)
	case errors.Is(err, ErrConflict):
		return fmt.Errorf("%w: %v", db.ErrAborted, err)
	default:
		return err
	}
}

// Start implements db.TransactionalDB.
func (b *Binding) Start(ctx context.Context) (*db.TransactionContext, error) {
	t, err := b.m.Begin(ctx)
	if err != nil {
		return nil, err
	}
	return &db.TransactionContext{Handle: t}, nil
}

// Commit implements db.TransactionalDB.
func (b *Binding) Commit(ctx context.Context, tctx *db.TransactionContext) error {
	t, err := b.txnOf(tctx)
	if err != nil {
		return err
	}
	return translateErr(t.Commit(ctx))
}

// Abort implements db.TransactionalDB.
func (b *Binding) Abort(ctx context.Context, tctx *db.TransactionContext) error {
	t, err := b.txnOf(tctx)
	if err != nil {
		return err
	}
	return t.Abort(ctx)
}

func (b *Binding) txnOf(tctx *db.TransactionContext) (*Txn, error) {
	if tctx == nil {
		return nil, errors.New("txnkv: nil transaction context")
	}
	t, ok := tctx.Handle.(*Txn)
	if !ok {
		return nil, fmt.Errorf("txnkv: foreign transaction context %T", tctx.Handle)
	}
	return t, nil
}

// WithTx implements db.ContextualDB: the returned view executes its
// operations inside the given transaction.
func (b *Binding) WithTx(tctx *db.TransactionContext) db.DB {
	t, err := b.txnOf(tctx)
	if err != nil {
		return b // defensive: fall back to auto-commit semantics
	}
	return &txView{b: b, t: t}
}

// Auto-commit single-operation paths (used when the harness is run in
// non-transactional mode against this binding).

func (b *Binding) autoCommit(ctx context.Context, fn func(*Txn) error) error {
	return translateErr(b.m.RunInTxn(ctx, 3, fn))
}

// Read implements db.DB (auto-commit).
func (b *Binding) Read(ctx context.Context, table, key string, fields []string) (db.Record, error) {
	var out db.Record
	err := b.autoCommit(ctx, func(t *Txn) error {
		f, err := t.Read(ctx, b.storeFor(key), table, key)
		if err != nil {
			return err
		}
		out = db.ProjectFields(f, fields)
		return nil
	})
	return out, err
}

// Scan implements db.DB (auto-commit). With multiple stores the scan
// only covers the partition holding startKey's neighbours on each
// store; cross-store ordered scans merge all partitions.
func (b *Binding) Scan(ctx context.Context, table, startKey string, count int, fields []string) ([]db.KV, error) {
	var out []db.KV
	err := b.autoCommit(ctx, func(t *Txn) error {
		out = out[:0]
		for _, name := range b.names {
			kvs, err := t.Scan(ctx, name, table, startKey, count)
			if err != nil {
				return err
			}
			for _, kv := range kvs {
				out = append(out, db.KV{Key: kv.Key, Record: db.ProjectFields(kv.Fields, fields)})
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
		if count >= 0 && len(out) > count {
			out = out[:count]
		}
		return nil
	})
	return out, err
}

// Update implements db.DB (auto-commit read-merge-write).
func (b *Binding) Update(ctx context.Context, table, key string, values db.Record) error {
	return b.autoCommit(ctx, func(t *Txn) error {
		return txUpdate(ctx, t, b.storeFor(key), table, key, values)
	})
}

// Insert implements db.DB (auto-commit).
func (b *Binding) Insert(ctx context.Context, table, key string, values db.Record) error {
	return b.autoCommit(ctx, func(t *Txn) error {
		return t.Insert(b.storeFor(key), table, key, values)
	})
}

// Delete implements db.DB (auto-commit).
func (b *Binding) Delete(ctx context.Context, table, key string) error {
	return b.autoCommit(ctx, func(t *Txn) error {
		return t.Delete(b.storeFor(key), table, key)
	})
}

// txView is the in-transaction view of the binding.
type txView struct {
	b *Binding
	t *Txn
}

// Init implements db.DB; the view inherits the binding's state.
func (v *txView) Init(*properties.Properties) error { return nil }

// Cleanup implements db.DB; the transaction owns no resources.
func (v *txView) Cleanup() error { return nil }

// Read implements db.DB inside the transaction.
func (v *txView) Read(ctx context.Context, table, key string, fields []string) (db.Record, error) {
	f, err := v.t.Read(ctx, v.b.storeFor(key), table, key)
	if err != nil {
		return nil, translateErr(err)
	}
	return db.ProjectFields(f, fields), nil
}

// Scan implements db.DB inside the transaction.
func (v *txView) Scan(ctx context.Context, table, startKey string, count int, fields []string) ([]db.KV, error) {
	var out []db.KV
	for _, name := range v.b.names {
		kvs, err := v.t.Scan(ctx, name, table, startKey, count)
		if err != nil {
			return nil, translateErr(err)
		}
		for _, kv := range kvs {
			out = append(out, db.KV{Key: kv.Key, Record: db.ProjectFields(kv.Fields, fields)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	if count >= 0 && len(out) > count {
		out = out[:count]
	}
	return out, nil
}

// Update implements db.DB inside the transaction (read-merge-write;
// the read version is validated at commit by the conditional
// prepare, so concurrent updates conflict rather than lose updates).
func (v *txView) Update(ctx context.Context, table, key string, values db.Record) error {
	return translateErr(txUpdate(ctx, v.t, v.b.storeFor(key), table, key, values))
}

// Insert implements db.DB inside the transaction.
func (v *txView) Insert(ctx context.Context, table, key string, values db.Record) error {
	return translateErr(v.t.Insert(v.b.storeFor(key), table, key, values))
}

// Delete implements db.DB inside the transaction.
func (v *txView) Delete(ctx context.Context, table, key string) error {
	return translateErr(v.t.Delete(v.b.storeFor(key), table, key))
}

// txUpdate merges values over the current committed image inside t.
func txUpdate(ctx context.Context, t *Txn, store, table, key string, values db.Record) error {
	cur, err := t.Read(ctx, store, table, key)
	if err != nil {
		return err
	}
	merged := make(map[string][]byte, len(cur)+len(values))
	for f, val := range cur {
		merged[f] = val
	}
	for f, val := range values {
		merged[f] = append([]byte(nil), val...)
	}
	return t.Write(store, table, key, merged)
}
