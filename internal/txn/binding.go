package txn

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"

	"ycsbt/internal/cloudsim"
	"ycsbt/internal/db"
	"ycsbt/internal/history"
	"ycsbt/internal/httpkv"
	"ycsbt/internal/kvstore"
	"ycsbt/internal/obs"
	"ycsbt/internal/properties"
)

// Binding exposes the transaction library as the "txnkv" YCSB+T
// binding: the db.TxnBinding surface over client-coordinated
// transactions, whose Start/Commit/Abort demarcate real transactions
// and whose data operations, when routed through WithTx, execute
// inside them.
//
// With multiple stores, records are partitioned across stores by key
// hash, so ordinary workloads exercise cross-store transactions.
type Binding struct {
	db.TxnBinding
	m      *Manager
	closer func() error
}

// NewBinding wraps an existing manager.
func NewBinding(m *Manager) *Binding {
	b := &Binding{}
	b.use(m)
	return b
}

// use binds b to m.
func (b *Binding) use(m *Manager) {
	b.m = m
	b.TxnBinding = db.NewTxnBinding(library{m})
}

func init() {
	db.Register("txnkv", func() (db.DB, error) { return &Binding{}, nil })
}

// Init builds the manager from properties when the binding was opened
// by name: "txnkv.backend" names the stores (OpenBackend; default
// "memory"), "txnkv.serializable" upgrades read validation.
func (b *Binding) Init(p *properties.Properties) error {
	if b.m != nil {
		return nil
	}
	stores, closer, err := OpenBackend(p, p.GetString("txnkv.backend", "memory"))
	if err != nil {
		return fmt.Errorf("txnkv: %w", err)
	}
	m, err := NewManager(Options{
		SerializableReads: p.GetBool("txnkv.serializable", false),
		Metrics:           obs.Enabled(p.GetBool("obs.enabled", false)),
	}, stores...)
	if err != nil {
		closer()
		return err
	}
	b.use(m)
	b.closer = closer
	return nil
}

// OpenBackend opens the stores a transaction binding runs over, by the
// name its backend property gives: "memory" (an in-process kvstore),
// "was" or "gcs" (a simulated cloud container), "was+gcs" (one of each,
// keys partitioned across them) or "cluster" (client-coordinated
// transactions over a multi-node kvserver fleet routed by the shard
// map; requires "cluster.nodes"). It returns the stores and one
// function that closes them all.
func OpenBackend(p *properties.Properties, backend string) ([]Store, func() error, error) {
	var stores []Store
	var closers []func() error
	add := func(s Store, c func() error) {
		stores = append(stores, s)
		closers = append(closers, c)
	}
	reg := obs.Enabled(p.GetBool("obs.enabled", false))
	sim := func(cfg cloudsim.Config) {
		cfg.Metrics = reg
		s := cloudsim.New(cfg)
		add(s, s.Close)
	}
	switch backend {
	case "memory":
		inner, err := kvstore.Open(kvstore.Options{
			Shards:  kvstore.DefaultShards,
			Metrics: reg,
		})
		if err != nil {
			return nil, nil, err
		}
		add(NewLocalStore("local", inner), inner.Close)
	case "was":
		sim(cloudsim.WASPreset())
	case "gcs":
		sim(cloudsim.GCSPreset())
	case "was+gcs":
		sim(cloudsim.WASPreset())
		sim(cloudsim.GCSPreset())
	case "cluster":
		seeds := httpkv.SplitNodes(p.GetString("cluster.nodes", ""))
		if len(seeds) == 0 {
			return nil, nil, errors.New("cluster backend requires cluster.nodes")
		}
		router, err := httpkv.NewRouter(seeds, nil, reg)
		if err != nil {
			return nil, nil, fmt.Errorf("cluster backend: %w", err)
		}
		add(httpkv.NewRouterStore("cluster", router), router.Cleanup)
	default:
		return nil, nil, fmt.Errorf("unknown backend %q", backend)
	}
	return stores, func() error {
		var first error
		for _, c := range closers {
			if err := c(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}, nil
}

// Cleanup closes the stores the binding created.
func (b *Binding) Cleanup() error {
	if b.closer == nil {
		return nil
	}
	return b.closer()
}

// SetHistorySink implements history.CapableDB: the transaction
// manager feeds the sink natively from its commit and abort paths —
// richer than the capture middleware (store-qualified keys, commit
// timestamps drawn at the TSR write, aborted read sets) — so the
// client installs the sink here instead of stacking the middleware.
func (b *Binding) SetHistorySink(sink history.TxnSink) { b.m.SetHistory(sink) }

var (
	_ db.TransactionalDB = (*Binding)(nil)
	_ db.ContextualDB    = (*Binding)(nil)
	_ history.CapableDB  = (*Binding)(nil)
)

// storeFor partitions a key across the registered stores, as the
// binding lays records out.
func (m *Manager) storeFor(key string) string {
	if len(m.names) == 1 {
		return m.names[0]
	}
	h := fnv.New32a()
	h.Write([]byte(key))
	return m.names[int(h.Sum32())%len(m.names)]
}

// library is the manager as db.TxnBinding runs it, each key on the
// store storeFor picks.
type library struct{ m *Manager }

func (l library) Begin(ctx context.Context) (any, error) { return l.m.Begin(ctx) }

func (l library) Txn(handle any) (db.Txn, bool) {
	t, ok := handle.(*Txn)
	return (*boundTxn)(t), ok
}

func (l library) RunInTxn(ctx context.Context, retries int, fn func(db.Txn) error) error {
	return l.m.RunInTxn(ctx, retries, func(t *Txn) error { return fn((*boundTxn)(t)) })
}

// boundTxn is a transaction as a db.Txn, with its keys partitioned
// across the manager's stores. It is the Txn itself under db.Txn's
// method set, so each transaction is its one bound view and handing it
// out allocates nothing.
type boundTxn Txn

func (x *boundTxn) txn() *Txn { return (*Txn)(x) }

func (x *boundTxn) Read(ctx context.Context, table, key string) (db.Record, error) {
	return x.txn().Read(ctx, x.m.storeFor(key), table, key)
}

func (x *boundTxn) Write(table, key string, values db.Record) error {
	return x.txn().Write(x.m.storeFor(key), table, key, values)
}

func (x *boundTxn) Insert(table, key string, values db.Record) error {
	return x.txn().Insert(x.m.storeFor(key), table, key, values)
}

func (x *boundTxn) Delete(table, key string) error {
	return x.txn().Delete(x.m.storeFor(key), table, key)
}

func (x *boundTxn) Commit(ctx context.Context) error { return x.txn().Commit(ctx) }

func (x *boundTxn) Abort(ctx context.Context) error { return x.txn().Abort(ctx) }

// Scan merges the scans of every store in key order.
func (x *boundTxn) Scan(ctx context.Context, table, startKey string, count int) ([]db.KV, error) {
	names := x.m.names
	if len(names) == 1 {
		return x.txn().Scan(ctx, names[0], table, startKey, count)
	}
	var out []db.KV
	for _, name := range names {
		kvs, err := x.txn().Scan(ctx, name, table, startKey, count)
		if err != nil {
			return nil, err
		}
		out = append(out, kvs...)
	}
	slices.SortFunc(out, func(a, b db.KV) int { return strings.Compare(a.Key, b.Key) })
	if count >= 0 && len(out) > count {
		out = out[:count]
	}
	return out, nil
}
