package httpkv

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"

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
// A freeze is exclusive: a slot already frozen on src (another
// coordinator's migration of it is in flight) answers 409, and the
// migration fails without touching that freeze. Failure after its own
// freeze, before the src install, thaws the slot and leaves the old
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
// otherwise, before anything is frozen). It talks to each node over a
// REST exchange of its own, closed when it returns.
func MigrateSlot(ctx context.Context, m *cluster.Map, slot int, dest string) (*cluster.Map, error) {
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
	nodes := peers{}
	defer nodes.close()
	srcC, destC := nodes.of(src), nodes.of(dest)
	if _, err := srcC.requireWire(ctx); err != nil {
		return nil, fmt.Errorf("cluster: migrate slot %d: %w", slot, err)
	}

	// Preflight: a concurrent migration shows up as a fleet member
	// whose map is already past m. Stragglers behind m (a previous
	// migration's best-effort fan-out missed them) are converged by
	// re-pushing m; anything ahead aborts before we freeze.
	for _, addr := range m.Nodes {
		got, ferr := nodes.of(addr).fetchShardMap(ctx)
		if ferr != nil {
			return nil, fmt.Errorf("cluster: migrate slot %d: preflight map fetch from %s: %w", slot, addr, ferr)
		}
		switch {
		case got.Version > m.Version:
			return nil, fmt.Errorf("cluster: migrate slot %d: node %s already at map v%d (concurrent migration?); re-run against the current map",
				slot, addr, got.Version)
		case got.Version < m.Version:
			if perr := nodes.of(addr).putShardMap(ctx, m, 0); perr != nil {
				return nil, fmt.Errorf("cluster: migrate slot %d: converging straggler %s to v%d: %w", slot, addr, m.Version, perr)
			}
		}
	}

	// Drain: after this returns, no write to the slot is in flight
	// anywhere, and none can start (src rejects, nobody else owns it).
	// A freeze src refuses is another migration's, not ours to thaw.
	if err := srcC.postFreeze(ctx, slot, false); err != nil {
		return nil, fmt.Errorf("cluster: freezing slot %d on %s: %w", slot, src, err)
	}
	fail := func(step string, err error) (*cluster.Map, error) {
		srcC.postFreeze(ctx, slot, true) // thaw, best effort
		return nil, fmt.Errorf("cluster: migrate slot %d %s→%s: %s: %w", slot, src, dest, step, err)
	}

	tables, err := srcC.fetchTables(ctx)
	if err != nil {
		return fail("listing tables", err)
	}
	// A failed copy aborts the migration and leaves the old map in
	// force; a retry re-copies from the top onto a slot the destination
	// empties first.
	for _, table := range tables {
		if err := destC.copySlot(ctx, table, slot); err != nil {
			return fail(fmt.Sprintf("copying table %q", table), err)
		}
	}

	// Cut over: src first (stops serving the slot, clears the freeze),
	// then dest (starts serving), then the rest of the fleet. Both
	// installs are CAS-conditioned on the predecessor version so a
	// racing migration that slipped past the preflight loses cleanly
	// instead of split-braining the fleet with a divergent successor.
	if err := srcC.putShardMap(ctx, next, m.Version); err != nil {
		return fail("installing map on source", err)
	}
	if err := destC.putShardMap(ctx, next, m.Version); err != nil {
		// src already dropped the slot; give it back so the fleet is
		// never left with an unserved slot. Build the rollback on top of
		// the newest map observed (a concurrent migration may have moved
		// dest past next), so the rollback converges the divergence.
		base := next
		if dm, derr := destC.fetchShardMap(ctx); derr == nil && dm.Version > base.Version {
			base = dm
		}
		if back, berr := base.WithSlotMoved(slot, src); berr == nil {
			if rerr := srcC.putShardMap(ctx, back, 0); rerr == nil {
				nodes.installEverywhere(ctx, back, src)
				return nil, fmt.Errorf("cluster: migrate slot %d %s→%s: installing map on destination: %w (rolled back to %s at map v%d)",
					slot, src, dest, err, src, back.Version)
			}
		}
		return nil, fmt.Errorf("cluster: migrate slot %d %s→%s: installing map on destination: %w (ROLLBACK FAILED: slot unserved until an operator re-installs a map)",
			slot, src, dest, err)
	}
	nodes.installEverywhere(ctx, next, src, dest)
	// Both ends serve v+1: no rollback needs src's copy any more. Best
	// effort, and as slow as the slot is large, like the copy.
	srcC.post(ctx, "/v1/shardmap/drop", fmt.Sprintf("slot=%d", slot), true)
	return next, nil
}

// peers are the clients a migration talks to the fleet through, one
// per node, made on first use.
type peers map[string]*Client

func (p peers) of(addr string) *Client {
	c := p[addr]
	if c == nil {
		c = NewClient(addr, nil)
		p[addr] = c
	}
	return c
}

func (p peers) close() {
	for _, c := range p {
		c.Cleanup()
	}
}

// installEverywhere pushes the map to every fleet node not in done,
// best effort: a straggler keeps answering moved hints from its stale
// map, which routers resolve by polling the whole fleet for the
// newest copy.
func (p peers) installEverywhere(ctx context.Context, m *cluster.Map, done ...string) {
	skip := make(map[string]bool, len(done))
	for _, d := range done {
		skip[d] = true
	}
	for _, addr := range m.Nodes {
		if !skip[addr] {
			p.of(addr).putShardMap(ctx, m, 0)
		}
	}
}

// postFreeze freezes (or thaws) one slot on the node.
func (c *Client) postFreeze(ctx context.Context, slot int, thaw bool) error {
	q := fmt.Sprintf("slot=%d", slot)
	if thaw {
		q += "&thaw=1"
	}
	return c.post(ctx, "/v1/shardmap/freeze", q, false)
}

// copySlot has the node, a migration's destination, empty and pull one
// table's slice of the slot from the slot's owner (handleCopy). The
// copy takes as long as the slot is large, so only ctx bounds it.
func (c *Client) copySlot(ctx context.Context, table string, slot int) error {
	return c.post(ctx, "/v1/shardmap/copy", fmt.Sprintf("slot=%d&table=%s", slot, url.QueryEscape(table)), true)
}

// post sends one bodiless control POST of path?query; anything but 200
// is an error carrying the node's answer. An unbounded one has no
// requestTimeout: only ctx bounds it.
func (c *Client) post(ctx context.Context, path, query string, unbounded bool) error {
	rep, err := c.control(ctx, &request{method: http.MethodPost, path: path, query: query, unbounded: unbounded})
	putBodyBuf(rep.body)
	return err
}

// fetchTables lists the tables the node carries.
func (c *Client) fetchTables(ctx context.Context) ([]string, error) {
	rep, err := c.control(ctx, &request{method: http.MethodGet, path: "/v1/tables"})
	if err != nil {
		return nil, fmt.Errorf("listing tables: %w", err)
	}
	defer putBodyBuf(rep.body)
	var body struct {
		Tables []string `json:"tables"`
	}
	if err := json.Unmarshal(rep.bytes(), &body); err != nil {
		return nil, err
	}
	return body.Tables, nil
}

// putShardMap installs a map on the node via PUT /v1/shardmap.
//
// With expect > 0 the install is a CAS on the node's exact current
// version (the HeaderMapCAS header) and only a 200 is success — the
// cutover installs use this so a concurrent migration's divergent
// same-version map can never be mistaken for our own already landed.
// With expect == 0 the install is unconditional convergence: a 409
// with an equal-or-newer version header is success (the node is
// already there or ahead), which is what the best-effort fleet
// fan-out and rollback paths want.
func (c *Client) putShardMap(ctx context.Context, m *cluster.Map, expect int64) error {
	doc, err := m.Encode()
	if err != nil {
		return err
	}
	rep, err := c.control(ctx, &request{method: http.MethodPut, path: "/v1/shardmap", mapCAS: expect, body: doc})
	putBodyBuf(rep.body)
	if err == nil || expect == 0 && rep.status == http.StatusConflict && rep.mapVersion >= m.Version {
		return nil // installed, or (expect == 0) already there or ahead
	}
	return fmt.Errorf("installing map v%d on %s: %w", m.Version, c.base, err)
}
