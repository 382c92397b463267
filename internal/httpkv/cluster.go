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
//	POST /v1/shardmap/freeze?slot=N → drain writes to one slot (409 if it is
//	                                  already frozen; "&thaw=1" reverts)
//	POST /v1/shardmap/copy?slot=N&table=t
//	                                → 200 once this node emptied its copy of the
//	                                  slot's table and pulled it from its owner
//	                                  (409 if that is this node)
//	POST /v1/shardmap/drop?slot=N   → 200 once this node holds no record of the
//	                                  slot (409 if it owns the slot)
//	GET  /v1/tables                 → 200 {"tables":[...]}
//
// A non-cluster server answers the shardmap routes 404. The records
// themselves move over frames: the copy is a paged slot scan the
// destination runs against the source (migrate.go). A node holds records
// only for the slots its map gives it: a copy lands on an emptied slot,
// and the source drops the slot once the cutover has installed on both
// ends.
//
// Reads keep serving while a slot drains (the data is still local and
// cannot change); only writes 410 during the drain window, with no
// owner hint — the new owner is not serving yet, so clients back off
// and retry rather than redirect.

// writeMoved answers a request for a key this node does not serve.
func writeMoved(w http.ResponseWriter, res *kvwire.Result) {
	w.Header().Set(cluster.HeaderMapVersion, strconv.FormatInt(res.MapVersion, 10))
	if res.Owner != "" {
		w.Header().Set(cluster.HeaderOwner, res.Owner)
	}
	http.Error(w, res.Err, http.StatusGone)
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
		w.Header().Set(cluster.HeaderMapVersion, strconv.FormatInt(installed.Version, 10))
		w.WriteHeader(http.StatusOK)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// slotRequest checks a control-plane POST naming one slot of the map:
// 404 off a cluster node, 405 for another method, 400 for a bad slot.
// ok is false once it has answered.
func (s *Server) slotRequest(w http.ResponseWriter, r *http.Request) (cs *cluster.State, slot int, ok bool) {
	cs = s.opts.Cluster
	if cs == nil {
		http.Error(w, "not a cluster node", http.StatusNotFound)
		return nil, 0, false
	}
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return nil, 0, false
	}
	slot, err := strconv.Atoi(r.URL.Query().Get("slot"))
	if err != nil || slot < 0 || slot >= cs.Map().Slots {
		http.Error(w, "bad slot", http.StatusBadRequest)
		return nil, 0, false
	}
	return cs, slot, true
}

// handleFreeze serves POST /v1/shardmap/freeze?slot=N[&thaw=1]. Freeze
// returns only after every in-flight write to the slot has drained, so
// the slot's heads cannot change until a thaw or the map install that
// concludes the migration: a plain head scan of the slot is a
// consistent copy. A freeze is exclusive: a slot already frozen, or one
// the node does not own, answers 409.
func (s *Server) handleFreeze(w http.ResponseWriter, r *http.Request) {
	cs, slot, ok := s.slotRequest(w, r)
	if !ok {
		return
	}
	if r.URL.Query().Get("thaw") != "" {
		cs.Thaw(slot)
	} else if err := cs.Freeze(slot); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	w.WriteHeader(http.StatusOK)
}

// handleCopy serves POST /v1/shardmap/copy?slot=N&table=t, a
// migration's copy step, on the destination: it drops whatever it still
// holds of table's slice of the slot (records from an earlier stint as
// owner, or a failed earlier copy), then pulls the slice's heads page by
// page from the slot's owner in this node's own map — never from an
// address the request names — and ingests them version for version. The
// pull holds one batch admission slot (429 when none is free) and lives
// as long as the request: a coordinator that goes away stops it before
// its next page, and the source holds nothing for it.
func (s *Server) handleCopy(w http.ResponseWriter, r *http.Request) {
	cs, slot, ok := s.slotRequest(w, r)
	if !ok {
		return
	}
	table := r.URL.Query().Get("table")
	if table == "" {
		http.Error(w, "missing table", http.StatusBadRequest)
		return
	}
	src := cs.Map().OwnerOfSlot(slot)
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
	if !s.dropSlot(w, slot, []string{table}) {
		return
	}
	if err := s.pullSlot(r.Context(), src, table, slot); err != nil {
		http.Error(w, fmt.Sprintf("pulling slot %d of %q from %s: %v", slot, table, src, err), http.StatusBadGateway)
		return
	}
	w.WriteHeader(http.StatusOK)
}

// pullBatch bounds one Engine.Ingest call of a pull.
const pullBatch = 512

// pullSlot pulls the heads of table's slice of slot from src's frame
// listener, page by page, into StreamIngest. The source has frozen the
// slot, so its heads hold still for the whole scan. Each record goes on
// as the field section its page carried — the source's image — with no
// map built on the way.
func (s *Server) pullSlot(ctx context.Context, src, table string, slot int) error {
	// A server keeps no client of its own, so the pull opens one to src
	// for its single probe and its scan, and closes it after.
	c := NewClient(src, nil)
	defer c.Cleanup()
	ep, err := c.openWire(ctx, 1)
	if err != nil {
		return err
	}
	defer ep.Close()
	sc, err := ep.Scan(ctx, &kvwire.ScanRequest{Table: table, Slot: slot, Count: -1})
	if err != nil {
		return err
	}
	defer sc.Close()
	batch := make([]kvstore.BulkKV, 0, pullBatch)
	_, err = s.core.StreamIngest(ctx, table, func() ([]kvstore.BulkKV, error) {
		batch = batch[:0]
		for len(batch) < pullBatch && sc.Next() {
			rec := sc.Record()
			batch = append(batch, kvstore.BulkKV{Key: rec.Key, Section: rec.Section(), Version: rec.Version, CommitTS: rec.CommitTS})
		}
		if len(batch) == 0 {
			return nil, sc.Err() // nil, nil: a clean end
		}
		return batch, nil
	})
	return err
}

// handleDrop serves POST /v1/shardmap/drop?slot=N, a migration's last
// step, on the source once the cutover has installed on both ends: the
// node forgets every record of a slot its map gives to another node.
func (s *Server) handleDrop(w http.ResponseWriter, r *http.Request) {
	if _, slot, ok := s.slotRequest(w, r); ok && s.dropSlot(w, slot, s.store.Tables()) {
		w.WriteHeader(http.StatusOK)
	}
}

// dropSlot removes every record of slot from the given tables, or
// answers 409 if this node's map gives it the slot (500 if the engine
// fails); it reports whether the drop happened. The check and the drop
// run under the cluster barrier's read side, as a write's check and
// apply do, so no map install lands between them.
func (s *Server) dropSlot(w http.ResponseWriter, slot int, tables []string) bool {
	cs := s.opts.Cluster
	release := cs.Enter()
	defer release()
	m := cs.Map()
	if m.OwnerOfSlot(slot) == cs.Self() {
		http.Error(w, fmt.Sprintf("slot %d is this node's own: not dropped", slot), http.StatusConflict)
		return false
	}
	for _, table := range tables {
		if _, err := s.store.Drop(table, func(key string) bool { return m.SlotOf(key) != slot }); err != nil {
			http.Error(w, fmt.Sprintf("dropping slot %d of %q: %v", slot, table, err), http.StatusInternalServerError)
			return false
		}
	}
	return true
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
