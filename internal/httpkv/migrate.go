package httpkv

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"ycsbt/internal/cluster"
)

// Slot migration: move one shard-map slot between live nodes with no
// lost updates and no stale reads.
//
//	freeze   POST src /v1/shardmap/freeze?slot=N — drains in-flight
//	         writes; returns only when every admitted write has
//	         applied. Reads keep serving (the data cannot change:
//	         src rejects new writes, and no other node owns the slot).
//	copy     per table, POST dest /v1/shardmap/copy?slot=N&table=t:
//	         dest drops whatever it still holds of the slot, then pulls
//	         the slot's heads from its owner in dest's own map (src)
//	         as an ordinary slot-filtered paged scan, so dest holds at
//	         most one page, and ingests them batch by batch
//	         (handleCopy). The freeze keeps the heads still, so the
//	         scan needs no snapshot ts. The records move src → dest once;
//	         the migrator only asks. Ingest preserves Version and
//	         CommitTS, so CAS handles held by clients stay valid across
//	         the move, and advances dest's commit clock past the
//	         imported history.
//	serve    install map v+1 (slot → dest) on src FIRST, then dest,
//	         then the rest of the fleet. Both cutover installs are
//	         CAS-conditioned on the predecessor version v, so a
//	         concurrent migration built from the same v cannot
//	         silently install a divergent v+1 — the loser 409s and
//	         aborts (src) or rolls back (dest). Between the two
//	         installs the slot answers 410 everywhere — briefly
//	         unavailable, never stale: src stops serving reads the
//	         instant it learns the slot is no longer its own, so no
//	         read can miss a write that landed on dest. Routers ride
//	         the window out with refetch-and-retry.
//	drop     POST src /v1/shardmap/drop?slot=N once both ends have
//	         installed v+1: src forgets the slot. Best effort — a src
//	         that misses it keeps hidden records until a later copy
//	         into it empties them.
//
// Before freezing, a preflight confirms every fleet member is at
// exactly map version v: stragglers behind v are converged by
// re-pushing v, and any node already past v aborts the migration (a
// concurrent migration won). Combined with the CAS cutover this
// serializes racing migrations: at most one v+1 ever installs.
//
// Failure before the src install thaws the slot and leaves the old
// map in force (a retry's copy drops what the failed one left on dest
// and pulls again). Failure at the dest install rolls the slot back to
// src on top of the newest map observed in the fleet, so the rollback
// converges any concurrent divergence instead of fighting it; src's
// data is still complete, because src drops the slot only after dest
// has installed.
//
// A node holds records only for the slots its map gives it, so a slot
// that migrates away and back lands on an emptied former owner: no
// record hidden there from an earlier stint can shadow a delete made
// elsewhere.

// MigrateSlot moves slot to dest under the given map, returning the
// successor map it installed across the fleet. The source must
// advertise a frame listener, which dest's pull dials (NoWireError
// otherwise, before anything is frozen).
func MigrateSlot(ctx context.Context, hc *http.Client, m *cluster.Map, slot int, dest string) (*cluster.Map, error) {
	if hc == nil {
		hc, _ = newPooledHTTPClient(poolSize)
	}
	if slot < 0 || slot >= m.Slots {
		return nil, fmt.Errorf("cluster: migrate slot %d out of range [0,%d)", slot, m.Slots)
	}
	if m.NodeIndex(dest) < 0 {
		return nil, fmt.Errorf("cluster: migrate destination %q not a cluster member", dest)
	}
	src := m.OwnerOfSlot(slot)
	if src == dest {
		return m, nil
	}
	next, err := m.WithSlotMoved(slot, dest)
	if err != nil {
		return nil, err
	}
	if _, err := requireWire(ctx, hc, src); err != nil {
		return nil, fmt.Errorf("cluster: migrate slot %d: %w", slot, err)
	}

	// Preflight: a concurrent migration shows up as a fleet member
	// whose map is already past m. Stragglers behind m (a previous
	// migration's best-effort fan-out missed them) are converged by
	// re-pushing m; anything ahead aborts before we freeze.
	for _, addr := range m.Nodes {
		got, ferr := fetchShardMap(ctx, hc, addr)
		if ferr != nil {
			return nil, fmt.Errorf("cluster: migrate slot %d: preflight map fetch from %s: %w", slot, addr, ferr)
		}
		switch {
		case got.Version > m.Version:
			return nil, fmt.Errorf("cluster: migrate slot %d: node %s already at map v%d (concurrent migration?); re-run against the current map",
				slot, addr, got.Version)
		case got.Version < m.Version:
			if perr := putShardMap(ctx, hc, addr, m, 0); perr != nil {
				return nil, fmt.Errorf("cluster: migrate slot %d: converging straggler %s to v%d: %w", slot, addr, m.Version, perr)
			}
		}
	}

	// Drain: after this returns, no write to the slot is in flight
	// anywhere, and none can start (src rejects, nobody else owns it).
	if err := postFreeze(ctx, hc, src, slot, false); err != nil {
		return nil, fmt.Errorf("cluster: freezing slot %d on %s: %w", slot, src, err)
	}
	fail := func(step string, err error) (*cluster.Map, error) {
		postFreeze(ctx, hc, src, slot, true) // thaw, best effort
		return nil, fmt.Errorf("cluster: migrate slot %d %s→%s: %s: %w", slot, src, dest, step, err)
	}

	tables, err := fetchTables(ctx, hc, src)
	if err != nil {
		return fail("listing tables", err)
	}
	// A failed copy aborts the migration and leaves the old map in
	// force; a retry re-copies from the top onto a slot the destination
	// empties first. A copy takes as long as the slot is large, so its
	// request reuses hc's transport without hc's per-request timeout,
	// which would cut a large copy short: only ctx bounds it.
	copyHC := &http.Client{Transport: hc.Transport}
	for _, table := range tables {
		if err := copySlot(ctx, copyHC, dest, table, slot); err != nil {
			return fail(fmt.Sprintf("copying table %q", table), err)
		}
	}

	// Cut over: src first (stops serving the slot, clears the freeze),
	// then dest (starts serving), then the rest of the fleet. Both
	// installs are CAS-conditioned on the predecessor version so a
	// racing migration that slipped past the preflight loses cleanly
	// instead of split-braining the fleet with a divergent successor.
	if err := putShardMap(ctx, hc, src, next, m.Version); err != nil {
		return fail("installing map on source", err)
	}
	if err := putShardMap(ctx, hc, dest, next, m.Version); err != nil {
		// src already dropped the slot; give it back so the fleet is
		// never left with an unserved slot. Build the rollback on top of
		// the newest map observed (a concurrent migration may have moved
		// dest past next), so the rollback converges the divergence.
		base := next
		if dm, derr := fetchShardMap(ctx, hc, dest); derr == nil && dm.Version > base.Version {
			base = dm
		}
		if back, berr := base.WithSlotMoved(slot, src); berr == nil {
			if rerr := putShardMap(ctx, hc, src, back, 0); rerr == nil {
				installEverywhere(ctx, hc, back, src)
				return nil, fmt.Errorf("cluster: migrate slot %d %s→%s: installing map on destination: %w (rolled back to %s at map v%d)",
					slot, src, dest, err, src, back.Version)
			}
		}
		return nil, fmt.Errorf("cluster: migrate slot %d %s→%s: installing map on destination: %w (ROLLBACK FAILED: slot unserved until an operator re-installs a map)",
			slot, src, dest, err)
	}
	installEverywhere(ctx, hc, next, src, dest)
	// Both ends serve v+1: no rollback needs src's copy any more. Best
	// effort, and as slow as the slot is large, like the copy.
	post(ctx, copyHC, fmt.Sprintf("%s/v1/shardmap/drop?slot=%d", src, slot))
	return next, nil
}

// installEverywhere pushes the map to every fleet node not in done,
// best effort: a straggler keeps answering moved hints from its stale
// map, which routers resolve by polling the whole fleet for the
// newest copy.
func installEverywhere(ctx context.Context, hc *http.Client, m *cluster.Map, done ...string) {
	skip := make(map[string]bool, len(done))
	for _, d := range done {
		skip[d] = true
	}
	for _, addr := range m.Nodes {
		if !skip[addr] {
			putShardMap(ctx, hc, addr, m, 0)
		}
	}
}

// postFreeze freezes (or thaws) one slot on a node.
func postFreeze(ctx context.Context, hc *http.Client, base string, slot int, thaw bool) error {
	u := fmt.Sprintf("%s/v1/shardmap/freeze?slot=%d", base, slot)
	if thaw {
		u += "&thaw=1"
	}
	return post(ctx, hc, u)
}

// copySlot has dest empty and pull one table's slice of the slot from
// the slot's owner (handleCopy).
func copySlot(ctx context.Context, hc *http.Client, dest, table string, slot int) error {
	return post(ctx, hc, fmt.Sprintf("%s/v1/shardmap/copy?slot=%d&table=%s", dest, slot, url.QueryEscape(table)))
}

// post sends one bodiless control-plane POST; anything but 200 is an
// error carrying the node's answer.
func post(ctx context.Context, hc *http.Client, u string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", resp.Status, errorText(resp))
	}
	drainClose(resp)
	return nil
}

// fetchTables lists the tables a node carries.
func fetchTables(ctx context.Context, hc *http.Client, base string) ([]string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/tables", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		drainClose(resp)
		return nil, fmt.Errorf("listing tables: %s", resp.Status)
	}
	var body struct {
		Tables []string `json:"tables"`
	}
	if err := decodeBody(resp, &body); err != nil {
		return nil, err
	}
	return body.Tables, nil
}

// putShardMap installs a map on one node via PUT /v1/shardmap.
//
// With expect > 0 the install is a CAS on the node's exact current
// version (the HeaderMapCAS header) and only a 200 is success — the
// cutover installs use this so a concurrent migration's divergent
// same-version map can never be mistaken for our own already landed.
// With expect == 0 the install is unconditional convergence: a 409
// with an equal-or-newer version header is success (the node is
// already there or ahead), which is what the best-effort fleet
// fan-out and rollback paths want.
func putShardMap(ctx context.Context, hc *http.Client, base string, m *cluster.Map, expect int64) error {
	doc, err := m.Encode()
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, base+"/v1/shardmap", bytes.NewReader(doc))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if expect > 0 {
		req.Header.Set(cluster.HeaderMapCAS, strconv.FormatInt(expect, 10))
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	body := errorText(resp) // consumes the response on every path
	if resp.StatusCode == http.StatusOK {
		return nil
	}
	if expect == 0 && resp.StatusCode == http.StatusConflict {
		if have, _ := strconv.ParseInt(resp.Header.Get(cluster.HeaderMapVersion), 10, 64); have >= m.Version {
			return nil // already there or ahead
		}
	}
	return fmt.Errorf("installing map v%d on %s: %s: %s", m.Version, base, resp.Status, body)
}
