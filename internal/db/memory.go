package db

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"ycsbt/internal/properties"
)

// Memory is a minimal map-backed non-transactional binding. It is the
// YCSB "BasicDB" analog used in unit tests and the quickstart
// example; the production-grade embedded engine lives in
// internal/kvstore. Memory is linearizable per key but offers no
// multi-operation atomicity, so racing read-modify-write sequences
// lose updates — which is precisely what Tier 6 exists to detect.
type Memory struct {
	NoTransactions
	mu     sync.RWMutex
	tables map[string]map[string]Record
}

// NewMemory returns an empty in-memory store.
func NewMemory() *Memory {
	return &Memory{tables: make(map[string]map[string]Record)}
}

func init() {
	Register("memory", func() (DB, error) { return NewMemory(), nil })
}

// Init implements DB; Memory needs no configuration.
func (m *Memory) Init(*properties.Properties) error { return nil }

// Cleanup implements DB.
func (m *Memory) Cleanup() error { return nil }

// table returns the named table, creating it; the caller holds the
// write lock (readers index m.tables directly: a missing table reads
// as an empty one).
func (m *Memory) table(name string) map[string]Record {
	t, ok := m.tables[name]
	if !ok {
		t = make(map[string]Record)
		m.tables[name] = t
	}
	return t
}

func copyFields(rec Record, fields []string) Record {
	out := make(Record, len(rec))
	if fields == nil {
		for f, v := range rec {
			out[f] = append([]byte(nil), v...)
		}
		return out
	}
	for _, f := range fields {
		if v, ok := rec[f]; ok {
			out[f] = append([]byte(nil), v...)
		}
	}
	return out
}

// Read implements DB.
func (m *Memory) Read(_ context.Context, table, key string, fields []string) (Record, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	rec, ok := m.tables[table][key]
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, table, key)
	}
	return copyFields(rec, fields), nil
}

// Scan implements DB; keys are returned in lexicographic order
// starting at startKey.
func (m *Memory) Scan(_ context.Context, table, startKey string, count int, fields []string) ([]KV, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	t := m.tables[table]
	keys := make([]string, 0, len(t))
	for k := range t {
		if strings.Compare(k, startKey) >= 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	if count < len(keys) {
		keys = keys[:count]
	}
	out := make([]KV, 0, len(keys))
	for _, k := range keys {
		out = append(out, KV{Key: k, Fields: MapFields(copyFields(t[k], fields))})
	}
	return out, nil
}

// Update implements DB; it merges values into the existing record.
func (m *Memory) Update(_ context.Context, table, key string, values Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.table(table)
	rec, ok := t[key]
	if !ok {
		return fmt.Errorf("%w: %s/%s", ErrNotFound, table, key)
	}
	for f, v := range values {
		rec[f] = append([]byte(nil), v...)
	}
	return nil
}

// Insert implements DB; inserting an existing key overwrites it,
// matching typical key-value-store put semantics.
func (m *Memory) Insert(_ context.Context, table, key string, values Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.table(table)[key] = copyFields(values, nil)
	return nil
}

// Delete implements DB.
func (m *Memory) Delete(_ context.Context, table, key string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.table(table)
	if _, ok := t[key]; !ok {
		return fmt.Errorf("%w: %s/%s", ErrNotFound, table, key)
	}
	delete(t, key)
	return nil
}

// Len returns the number of records in table (test helper).
func (m *Memory) Len(table string) int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.tables[table])
}
