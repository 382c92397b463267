package httpkv

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"ycsbt/internal/cluster"
	"ycsbt/internal/kvstore"
	"ycsbt/internal/kvwire"
)

// Server-side cluster mode: when ServerOptions.Cluster is set, the
// node serves only the shard-map slots it owns and answers everything
// else with 410 Gone plus routing hints (X-Shard-Map-Version and, for
// settled slots, X-Shard-Owner). The control-plane routes a migration
// drives:
//
//	GET  /v1/shardmap               → 200 the node's current map JSON
//	PUT  /v1/shardmap               → install a newer map (409 if stale)
//	POST /v1/shardmap/freeze?slot=N → drain writes to one slot ("&thaw=1" reverts)
//	POST /v1/shardmap/copy?slot=N&ts=T&table=t
//	                                → 200 once this node pulled the slot's table
//	                                  from its owner (409 if that is this node)
//	GET  /v1/tables                 → 200 {"tables":[...]}
//
// A non-cluster server answers the shardmap routes 404. The records
// themselves move over frames: the copy is a scan stream the
// destination opens on the source (migrate.go).
//
// Reads keep serving while a slot drains (the data is still local and
// immutable past the migration snapshot); only writes 410 during the
// drain window, with no owner hint — the new owner is not serving
// yet, so clients back off and retry rather than redirect.

// writeMoved answers a request for a key this node does not serve.
func writeMoved(w http.ResponseWriter, me *cluster.MovedError) {
	w.Header().Set(cluster.HeaderMapVersion, strconv.FormatInt(me.MapVersion, 10))
	if me.Owner != "" {
		w.Header().Set(cluster.HeaderOwner, me.Owner)
	}
	http.Error(w, me.Error(), http.StatusGone)
}

// handleShardMap serves GET (fetch) and PUT (install) /v1/shardmap.
func (s *Server) handleShardMap(w http.ResponseWriter, r *http.Request) {
	cs := s.opts.Cluster
	if cs == nil {
		http.Error(w, "not a cluster node", http.StatusNotFound)
		return
	}
	switch r.Method {
	case http.MethodGet:
		m := cs.Map()
		w.Header().Set(cluster.HeaderMapVersion, strconv.FormatInt(m.Version, 10))
		w.Header().Set("Content-Type", "application/json")
		w.Write(cs.MapJSON())
	case http.MethodPut:
		var m cluster.Map
		if err := json.NewDecoder(r.Body).Decode(&m); err != nil {
			writeDecodeError(w, err)
			return
		}
		var installed *cluster.Map
		var err error
		if cas := r.Header.Get(cluster.HeaderMapCAS); cas != "" {
			expect, perr := strconv.ParseInt(cas, 10, 64)
			if perr != nil || expect < 0 {
				http.Error(w, "bad "+cluster.HeaderMapCAS, http.StatusBadRequest)
				return
			}
			installed, err = cs.InstallCAS(&m, expect)
		} else {
			installed, err = cs.Install(&m)
		}
		if err != nil {
			cur := cs.Map()
			w.Header().Set(cluster.HeaderMapVersion, strconv.FormatInt(cur.Version, 10))
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		s.releaseFreezePins()
		w.Header().Set(cluster.HeaderMapVersion, strconv.FormatInt(installed.Version, 10))
		w.WriteHeader(http.StatusOK)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// handleFreeze serves POST /v1/shardmap/freeze?slot=N[&thaw=1]. Freeze
// returns only after every in-flight write to the slot has drained, so
// a snapshot timestamp drawn afterwards covers them all.
//
// A freeze also pins the engine, before the slot reads as frozen, and
// holds the pin until a thaw or the map install that concludes the
// migration. The copy scans the table as of a ts drawn after the
// freeze and resolves every key on the way, the slot filter running
// above the engine; with no retention window, versions the pin does
// not hold are reclaimed as soon as they are overwritten, and Vacuum
// would purge the tombstones the copy must carry.
func (s *Server) handleFreeze(w http.ResponseWriter, r *http.Request) {
	cs := s.opts.Cluster
	if cs == nil {
		http.Error(w, "not a cluster node", http.StatusNotFound)
		return
	}
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	slot, err := strconv.Atoi(r.URL.Query().Get("slot"))
	if err != nil {
		http.Error(w, "bad slot", http.StatusBadRequest)
		return
	}
	if r.URL.Query().Get("thaw") != "" {
		cs.Thaw(slot)
		s.releaseFreezePins()
		w.WriteHeader(http.StatusOK)
		return
	}
	s.pinMu.Lock()
	defer s.pinMu.Unlock()
	_, release := s.store.Pin()
	if err := cs.Freeze(slot); err != nil {
		release()
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	if _, held := s.freezePins[slot]; held {
		release() // a repeated freeze keeps the older, more protective pin
	} else {
		s.freezePins[slot] = release
	}
	w.WriteHeader(http.StatusOK)
}

// releaseFreezePins drops the pins of slots no longer frozen.
func (s *Server) releaseFreezePins() {
	s.pinMu.Lock()
	defer s.pinMu.Unlock()
	for slot, release := range s.freezePins {
		if !s.opts.Cluster.Frozen(slot) {
			release()
			delete(s.freezePins, slot)
		}
	}
}

// handleCopy serves POST /v1/shardmap/copy?slot=N&ts=T&table=t, a
// migration's copy step, on the destination: it pulls table's slice of
// the slot as of ts, tombstones included, over an ordinary scan stream
// from the slot's owner in this node's own map — never from an address
// the request names — and ingests it version for version. The pull
// holds one batch admission slot (429 when none is free) and lives as
// long as the request: a coordinator that goes away cancels the scan on
// the source.
func (s *Server) handleCopy(w http.ResponseWriter, r *http.Request) {
	cs := s.opts.Cluster
	if cs == nil {
		http.Error(w, "not a cluster node", http.StatusNotFound)
		return
	}
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	q := r.URL.Query()
	m := cs.Map()
	slot, err := strconv.Atoi(q.Get("slot"))
	if err != nil || slot < 0 || slot >= m.Slots {
		http.Error(w, "bad slot", http.StatusBadRequest)
		return
	}
	ts, err := strconv.ParseInt(q.Get("ts"), 10, 64)
	if err != nil || ts <= 0 {
		http.Error(w, "bad ts", http.StatusBadRequest)
		return
	}
	table := q.Get("table")
	if table == "" {
		http.Error(w, "missing table", http.StatusBadRequest)
		return
	}
	src := m.OwnerOfSlot(slot)
	if src == cs.Self() {
		http.Error(w, fmt.Sprintf("slot %d is this node's own: no source to pull from", slot), http.StatusConflict)
		return
	}
	release, ok := s.core.AcquireBatch()
	if !ok {
		http.Error(w, "too many in-flight batches", http.StatusTooManyRequests)
		return
	}
	defer release()
	if err := s.pullSlot(r.Context(), src, table, slot, ts); err != nil {
		http.Error(w, fmt.Sprintf("pulling slot %d of %q from %s: %v", slot, table, src, err), http.StatusBadGateway)
		return
	}
	w.WriteHeader(http.StatusOK)
}

// pullBatch bounds one Engine.Ingest call of a pull.
const pullBatch = 512

// pullSlot streams table's slice of slot as of ts from src's frame
// listener into StreamIngest.
func (s *Server) pullSlot(ctx context.Context, src, table string, slot int, ts int64) error {
	// A server keeps no outbound HTTP client, so the pull builds one for
	// its single probe of src and drops it after.
	hc, _ := newPooledHTTPClient(1, DefaultTimeout)
	defer hc.CloseIdleConnections()
	ep, err := openNodeWire(ctx, hc, src, 1)
	if err != nil {
		return err
	}
	defer ep.Close()
	sc, err := ep.Scan(ctx, &kvwire.ScanRequest{Table: table, Count: -1, AsOf: ts, Slot: slot, Tombstones: true})
	if err != nil {
		return err
	}
	defer sc.Close()
	batch := make([]kvstore.BulkKV, 0, pullBatch)
	_, err = s.core.StreamIngest(ctx, table, func() ([]kvstore.BulkKV, error) {
		batch = batch[:0]
		for len(batch) < pullBatch && sc.Next() {
			rec := sc.Record()
			batch = append(batch, kvstore.BulkKV{Key: rec.Key, Fields: rec.Fields, Version: rec.Version, CommitTS: rec.CommitTS, Deleted: rec.Deleted})
		}
		if len(batch) == 0 {
			return nil, sc.Err() // nil, nil: a clean end
		}
		return batch, nil
	})
	return err
}

// handleTables serves GET /v1/tables so the migrator can enumerate
// what to copy.
func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	tables := s.store.Tables()
	if tables == nil {
		tables = []string{}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string][]string{"tables": tables})
}
