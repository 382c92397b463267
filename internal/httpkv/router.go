package httpkv

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ycsbt/internal/cluster"
	"ycsbt/internal/db"
	"ycsbt/internal/kvwire"
	"ycsbt/internal/obs"
	"ycsbt/internal/properties"
)

// Router is the "cluster" DB binding: a client-side, coordinator-free
// router over a fleet of cluster-mode kvservers. It caches the
// versioned shard map, routes every single-key operation to the key's
// owner, fans batches out as one request frame per owner node (merging
// results back in request order), and merges scans across the fleet. When a
// node answers 410 moved — its map is newer, or the router's copy is
// stale, or the key's slot is mid-migration — the router re-fetches
// the map and retries with bounded attempts and backoff, so a live
// rebalance costs clients a blip, not an error.
//
// Each node has one Client, which carries the node's control calls over
// its REST exchange — the shard map (GET /v1/shardmap) and the probe for
// the frame listener — and, once mounted, its frames. The data plane is
// frames only: a node is mounted once, by that probe, and a node that
// advertises no listener fails the call with a NoWireError naming it.
//
// The router does not support the "as_of" property: commit timestamps
// are per-store logical clocks, so one timestamp has no meaning
// across node boundaries. Snapshot transactions against a cluster
// need a cluster-wide clock — future work, out of scope here.
type Router struct {
	db.NoTransactions

	// retries bounds how many moved-error rounds one logical op may
	// pay; backoff is slept (doubling) between rounds while the fleet
	// converges on a new map. The constructor sets them to
	// routerRetries and routerBackoff.
	retries int
	backoff time.Duration

	cur atomic.Pointer[cluster.Map]

	// mu guards nodes and the mounting of each node's frames.
	mu    sync.RWMutex
	nodes map[string]*Client // node address → its client, frames mounted or not yet

	metrics *routerMetrics
}

const (
	// routerRetries is how many moved-error rounds one logical
	// operation survives before the router gives up. A migration's
	// unavailability window is two map installs long, so a handful of
	// short-backoff rounds rides it out with margin.
	routerRetries = 8
	// routerBackoff is the first between-round sleep; it doubles per
	// round.
	routerBackoff = 25 * time.Millisecond
)

// routerMetrics holds the router's obs handles; everything is
// nil-safe so the binding runs identically with metrics off.
type routerMetrics struct {
	reg     *obs.Registry
	refetch *obs.Counter // cluster_map_refetch_total
	moved   *obs.Counter // httpkv_client_moved_total

	mu         sync.Mutex
	batchItems map[string]*obs.Histogram // httpkv_routed_batch_items per node
}

func newRouterMetrics(reg *obs.Registry, dials, mapVersion func() float64) *routerMetrics {
	m := &routerMetrics{reg: reg, batchItems: make(map[string]*obs.Histogram)}
	reg.Help("cluster_map_refetch_total", "Shard-map re-fetches triggered by moved errors or bootstrap.")
	reg.Help("httpkv_client_moved_total", "Moved (410) answers observed by the cluster router.")
	reg.Help("cluster_client_shardmap_version", "Version of the shard map the router currently routes by.")
	reg.Help("httpkv_routed_batch_items", "Operations per routed per-node batch, labeled by owner node.")
	m.refetch = reg.Counter("cluster_map_refetch_total")
	m.moved = reg.Counter("httpkv_client_moved_total")
	reg.GaugeFunc("cluster_client_shardmap_version", mapVersion)
	reg.RegisterCollector(func() []obs.Sample {
		return []obs.Sample{{
			Name:  "httpkv_client_dials_total",
			Kind:  obs.KindCounter,
			Help:  "TCP connections dialled by the node clients' REST exchanges (the probe and shard-map calls; tracks requests if connections stop being reused).",
			Value: dials(),
		}}
	})
	return m
}

// observeRoutedBatch records the per-node envelope size.
func (m *routerMetrics) observeRoutedBatch(node string, items int) {
	if m == nil || m.reg == nil {
		return
	}
	m.mu.Lock()
	h, ok := m.batchItems[node]
	if !ok {
		h = m.reg.Histogram("httpkv_routed_batch_items", obs.CountBuckets, "node", node)
		m.batchItems[node] = h
	}
	m.mu.Unlock()
	h.Observe(float64(items))
}

func (m *routerMetrics) incRefetch() {
	if m != nil {
		m.refetch.Inc()
	}
}

func (m *routerMetrics) incMoved() {
	if m != nil {
		m.moved.Inc()
	}
}

func init() {
	db.Register("cluster", func() (db.DB, error) { return &Router{}, nil })
}

// NewRouter builds a router over the given seed node addresses,
// bootstrapping the shard map from the first node that serves one. The
// registry may be nil (metrics off). hc is ignored: each node's calls
// ride its own client. It goes once benchmark/stack.go stops passing
// it.
func NewRouter(seeds []string, hc *http.Client, reg *obs.Registry) (*Router, error) {
	r := &Router{}
	if err := r.open(seeds, reg); err != nil {
		return nil, err
	}
	return r, nil
}

// open is the one construction path, NewRouter's and Init's.
func (r *Router) open(seeds []string, reg *obs.Registry) error {
	r.retries, r.backoff = routerRetries, routerBackoff
	r.nodes = make(map[string]*Client)
	r.metrics = newRouterMetrics(reg, r.dials, func() float64 {
		if m := r.cur.Load(); m != nil {
			return float64(m.Version)
		}
		return 0
	})
	return r.bootstrap(context.Background(), seeds)
}

// dials sums the node clients' Dials.
func (r *Router) dials() float64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var n int64
	for _, c := range r.nodes {
		n += c.Dials()
	}
	return float64(n)
}

// Init reads the "cluster.nodes" (comma-separated base URLs, required)
// and "obs.enabled" properties, and refuses "as_of" and any
// "rawhttp.wire" but "auto": each node's frame listener is discovered
// from its base URL, and the router has no HTTP data plane to fall back
// to.
func (r *Router) Init(p *properties.Properties) error {
	if r.cur.Load() != nil {
		return nil // built via NewRouter
	}
	seeds := SplitNodes(p.GetString("cluster.nodes", ""))
	if len(seeds) == 0 {
		return errors.New("cluster: missing required property cluster.nodes")
	}
	if mode := p.GetString("rawhttp.wire", WireModeAuto); mode != WireModeAuto {
		return fmt.Errorf("cluster: rawhttp.wire=%q: the cluster binding rides each node's advertised frame listener and nothing else", mode)
	}
	if p.GetInt64("as_of", 0) != 0 {
		return fmt.Errorf("%w: the cluster binding cannot serve as-of reads (per-store commit clocks)", db.ErrNotSupported)
	}
	return r.open(seeds, obs.Enabled(p.GetBool("obs.enabled", false)))
}

// SplitNodes parses a comma-separated node address list (the
// cluster.nodes property): whitespace is trimmed, empty entries are
// dropped, and trailing slashes are stripped so addresses compare
// equal to the map's node entries. Every consumer of cluster.nodes
// must parse it this way or the same property string routes
// differently per entry point.
func SplitNodes(s string) []string {
	var out []string
	for _, n := range strings.Split(s, ",") {
		if n = strings.TrimSpace(n); n != "" {
			out = append(out, strings.TrimRight(n, "/"))
		}
	}
	return out
}

// bootstrap fetches the shard map from the first seed that serves
// one and mounts every fleet node, so a node without a frame listener
// fails the router's construction rather than its first operation.
func (r *Router) bootstrap(ctx context.Context, seeds []string) error {
	var firstErr error
	for _, seed := range seeds {
		m, err := r.client(seed).fetchShardMap(ctx)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: fetching shard map from %s: %w", seed, err)
			}
			continue
		}
		r.installMap(m)
		r.metrics.incRefetch()
		for _, addr := range m.Nodes {
			if _, err := r.node(ctx, addr); err != nil {
				return err
			}
		}
		return nil
	}
	return firstErr
}

// fetchShardMap GETs the node's /v1/shardmap; a non-cluster server
// answers 404.
func (c *Client) fetchShardMap(ctx context.Context) (*cluster.Map, error) {
	rep, err := c.control(ctx, &request{method: http.MethodGet, path: "/v1/shardmap"})
	if err != nil {
		return nil, fmt.Errorf("shardmap fetch: %w", err)
	}
	defer putBodyBuf(rep.body)
	return cluster.Decode(rep.bytes())
}

// installMap publishes m when newer than the current map. Idempotent
// under races: the newest version wins.
func (r *Router) installMap(m *cluster.Map) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if cur := r.cur.Load(); cur == nil || m.Version > cur.Version {
		r.cur.Store(m.Clone())
	}
}

// Map returns the shard map the router currently routes by.
func (r *Router) Map() *cluster.Map { return r.cur.Load() }

// client returns addr's client, made on first use, for its control
// calls; its frames may not be mounted yet.
func (r *Router) client(addr string) *Client {
	r.mu.RLock()
	c := r.nodes[addr]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.nodes[addr]; c == nil {
		c = NewClient(addr, nil)
		r.nodes[addr] = c
	}
	return c
}

// node returns addr's client with its frames mounted, mounting them on
// first use (a just-fetched map can name nodes bootstrap never saw):
// one probe over the client's REST exchange for the node's frame
// listener. A failed probe is the caller's error and is not remembered
// — the next call probes again; only a mounted endpoint is kept.
func (r *Router) node(ctx context.Context, addr string) (*Client, error) {
	r.mu.RLock()
	c := r.nodes[addr]
	mounted := c != nil && c.wire != nil
	r.mu.RUnlock()
	if mounted {
		return c, nil
	}
	c = r.client(addr)
	ep, err := c.openWire(ctx, 0)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c.wire != nil {
		ep.Close() // lost a mounting race
	} else {
		c.wire = ep
	}
	return c, nil
}

// refetchMap pulls the shard map from the fleet and installs the
// newest copy found. Prefer is polled first (the 410's owner hint
// names a node that, being the new owner, installed the new map
// early).
func (r *Router) refetchMap(ctx context.Context, prefer string) {
	r.metrics.incRefetch()
	cur := r.cur.Load()
	order := make([]string, 0, len(cur.Nodes)+1)
	if prefer != "" {
		order = append(order, prefer)
	}
	for _, n := range cur.Nodes {
		if n != prefer {
			order = append(order, n)
		}
	}
	for _, addr := range order {
		m, err := r.client(addr).fetchShardMap(ctx)
		if err != nil {
			continue
		}
		r.installMap(m)
		if m.Version > cur.Version {
			return // found a successor; good enough to retry with
		}
	}
}

// handleMoved reacts to one moved error: refetch (hinted) when the
// responder knows a newer map, otherwise back off while the fleet
// converges, then refetch. Returns ctx.Err() when the deadline fires
// mid-backoff.
func (r *Router) handleMoved(ctx context.Context, me *cluster.MovedError, attempt int) error {
	r.metrics.incMoved()
	cur := r.cur.Load()
	if me.MapVersion > cur.Version {
		// The responder is ahead of us: fetch its map and go again.
		r.refetchMap(ctx, me.Owner)
		return nil
	}
	// The responder is stale or the slot is mid-migration (frozen, or
	// in the between-installs window where nobody serves it). Back off
	// a beat, then look for a newer map.
	wait := r.backoff << attempt
	if wait > time.Second {
		wait = time.Second
	}
	select {
	case <-time.After(wait):
	case <-ctx.Done():
		return ctx.Err()
	}
	r.refetchMap(ctx, me.Owner)
	return nil
}

// route runs fn against the key's owner, riding out moved errors with
// bounded map-refetch retries.
func (r *Router) route(ctx context.Context, key string, fn func(c *Client) error) error {
	for attempt := 0; ; attempt++ {
		m := r.cur.Load()
		owner, _ := m.Owner(key)
		c, err := r.node(ctx, owner)
		if err != nil {
			return err
		}
		err = fn(c)
		var me *cluster.MovedError
		if err == nil || !errors.As(err, &me) {
			return err
		}
		if attempt >= r.retries {
			return fmt.Errorf("cluster: key %q still moving after %d retries (map v%d): %w",
				key, attempt, r.cur.Load().Version, me)
		}
		if herr := r.handleMoved(ctx, me, attempt); herr != nil {
			return herr
		}
	}
}

// Cleanup implements db.DB.
func (r *Router) Cleanup() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.nodes {
		c.Cleanup()
	}
	return nil
}

// Read implements db.DB.
func (r *Router) Read(ctx context.Context, table, key string, fields []string) (db.Record, error) {
	var rec db.Record
	err := r.route(ctx, key, func(c *Client) error {
		var err error
		rec, err = c.Read(ctx, table, key, fields)
		return err
	})
	return rec, err
}

// Insert implements db.DB.
func (r *Router) Insert(ctx context.Context, table, key string, values db.Record) error {
	return r.route(ctx, key, func(c *Client) error {
		return c.Insert(ctx, table, key, values)
	})
}

// Update implements db.DB.
func (r *Router) Update(ctx context.Context, table, key string, values db.Record) error {
	return r.route(ctx, key, func(c *Client) error {
		return c.Update(ctx, table, key, values)
	})
}

// Delete implements db.DB.
func (r *Router) Delete(ctx context.Context, table, key string) error {
	return r.route(ctx, key, func(c *Client) error {
		return c.Delete(ctx, table, key)
	})
}

// Scan implements db.DB: every node scans its owned slice (the server
// filters), and the router k-way merges the sorted, disjoint results
// back into one global key order.
func (r *Router) Scan(ctx context.Context, table, startKey string, count int, fields []string) ([]db.KV, error) {
	return scanMerged(ctx, r, table, startKey, count, kvConv(fields))
}

// nodeShares is how many records a fleet scan for count from startKey
// asks of each node up front: the node's expected part of the result
// plus a margin, which depends on how the map places keys.
//
// Hash placement scatters any key range evenly over the slots, so the
// expected part is count times the fraction of slots the node owns.
// The margin, a quarter and a constant, is about 1.5 standard
// deviations of the node's real part at YCSB scan lengths: shipping a
// spare record costs microseconds and a top-up costs a round trip, so
// it pays to let a node in ten come up short rather than have every
// node ship half as much again.
//
// Range placement keeps neighbours together: the owner of startKey's
// slot can expect to deliver the whole result and is asked for count;
// the others are asked for the constant alone — a head for the merge —
// and topped up if the scan does run off the end of the owner's range.
func nodeShares(startKey string, count int, m *cluster.Map) []int {
	shares := make([]int, len(m.Nodes))
	if count < 0 || len(shares) == 1 {
		for i := range shares {
			shares[i] = count
		}
		return shares
	}
	if m.Placement == cluster.PlacementRange {
		for i := range shares {
			shares[i] = min(count, 2)
		}
		shares[m.Assign[m.SlotOf(startKey)]] = count
		return shares
	}
	for _, n := range m.Assign {
		shares[n]++ // slots owned, for now
	}
	for i, owned := range shares {
		// ceil(count × owned / slots) without overflowing on a huge count.
		part := count/m.Slots*owned + (count%m.Slots*owned+m.Slots-1)/m.Slots
		shares[i] = min(count, part+part/4+2)
	}
	return shares
}

// scanMerged fans one scan out to the whole fleet and merges the
// per-node sorted, disjoint results into one slice of at most count
// records, built once through conv in the caller's own record type.
// Nodes that answer 404 for the table contribute nothing (a table can
// live on a subset of nodes until writes spread).
//
// Each node is asked for its nodeShares records through a scanCursor (one
// paged scan) and consumed lazily; a node the merge drains is topped up
// with what the merge still lacks, and the moment the merge holds count
// every page still in flight is forgotten.
//
// Each node reports the shard map version it scanned under. If the
// reports disagree, the fan-out straddled a migration cutover: the
// node still at v filters the migrating slot out (it no longer owns
// it... or doesn't own it yet), and so does the node at v+1 — the
// slot's records would silently vanish from the merged result. The
// same applies when one node's scan answers 409 (its map changed
// mid-scan), a top-up is answered under a newer map, or a wire
// connection dies partway. In every case the
// router refetches the map, backs off, and rescans until a round
// completes under one version, bounded by the usual retry budget.
func scanMerged[T any](ctx context.Context, r *Router, table, startKey string, count int, conv func(*kvwire.StreamRecord) T) ([]T, error) {
	for attempt := 0; ; attempt++ {
		out, err := scanRound(ctx, r, table, startKey, count, conv)
		if err == nil {
			return out, nil
		}
		if !errors.Is(err, errScanRescan) {
			return nil, err
		}
		if attempt >= r.retries {
			return nil, fmt.Errorf("cluster: scan still straddling a map change after %d retries: %w", attempt, err)
		}
		wait := r.backoff << attempt
		if wait > time.Second {
			wait = time.Second
		}
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		r.refetchMap(ctx, "")
	}
}

// scanRound runs one fan-out round: open a cursor per node (sending
// every node's first page request, then priming each cursor with its
// first record), verify the fleet answered under one map version, then
// merge. Any errScanRescan — from a page's 409, a dead wire connection,
// or version skew across nodes or between one node's fetches — aborts
// the round for scanMerged to retry.
func scanRound[T any](ctx context.Context, r *Router, table, startKey string, count int, conv func(*kvwire.StreamRecord) T) ([]T, error) {
	if count == 0 {
		return nil, nil
	}
	m := r.cur.Load()
	cursors := make([]*scanCursor, 0, len(m.Nodes))
	defer func() {
		for _, sc := range cursors {
			sc.close()
		}
	}()
	nodeErr := func(i int, err error) error {
		if errors.Is(err, errScanRescan) {
			return err
		}
		return fmt.Errorf("cluster: scan on %s: %w", m.Nodes[i], err)
	}
	// Every node's first page request goes out before any reply is
	// read, so the nodes serve them at once; then each cursor is primed
	// in turn.
	shares := nodeShares(startKey, count, m)
	for i, addr := range m.Nodes {
		c, err := r.node(ctx, addr)
		if err != nil {
			return nil, nodeErr(i, err)
		}
		sc, err := c.openScanCursor(ctx, table, startKey, shares[i])
		if err != nil {
			return nil, nodeErr(i, err)
		}
		cursors = append(cursors, sc)
	}
	for i, sc := range cursors {
		if err := sc.next(shares[i]); err != nil {
			return nil, nodeErr(i, err)
		}
	}
	// After priming, every cursor knows its node's map version (every
	// page reports it, an empty one too) and per-node
	// consistency is the cursor's own check — so one cross-node
	// comparison here covers the whole round.
	skew := int64(0)
	for _, sc := range cursors {
		if sc.ver == 0 {
			continue // a single-node page reports none; nothing to compare
		}
		if skew == 0 {
			skew = sc.ver
		} else if sc.ver != skew {
			return nil, errScanRescan
		}
	}
	out := make([]T, 0, scanPrealloc(count))
	for {
		best := -1
		for i, sc := range cursors {
			if sc.head != nil && (best < 0 || sc.head.Key < cursors[best].head.Key) {
				best = i
			}
		}
		if best < 0 {
			return out, nil
		}
		out = append(out, conv(cursors[best].head))
		if len(out) == count {
			return out, nil
		}
		if err := cursors[best].next(count - len(out)); err != nil {
			return nil, nodeErr(best, err)
		}
	}
}

// ExecBatch implements db.BatchDB: ops group by owner node, one
// request frame goes to each owner concurrently (the last on the
// caller's goroutine), and results merge back
// in request order. Items answered 410 re-route (after a map refetch)
// with bounded retries, so a batch spanning a migrating slot loses no
// operations — it just pays extra rounds for the moved subset.
func (r *Router) ExecBatch(ctx context.Context, ops []db.BatchOp) []db.BatchResult {
	out := make([]db.BatchResult, len(ops))
	pending := make([]int, len(ops))
	for i := range ops {
		pending[i] = i
	}
	for attempt := 0; len(pending) > 0; attempt++ {
		m := r.cur.Load()
		groups := make(map[string][]int)
		for _, i := range pending {
			owner, _ := m.Owner(ops[i].Key)
			groups[owner] = append(groups[owner], i)
		}
		var wg sync.WaitGroup
		var mu sync.Mutex
		var movedNext []int
		var firstMoved *cluster.MovedError
		send := func(owner string, idx []int) {
			sub := make([]db.BatchOp, len(idx))
			for j, i := range idx {
				sub[j] = ops[i]
			}
			r.metrics.observeRoutedBatch(owner, len(sub))
			var results []db.BatchResult
			c, err := r.node(ctx, owner)
			if err == nil {
				results = c.ExecBatch(ctx, sub)
			}
			mu.Lock()
			defer mu.Unlock()
			for j, i := range idx {
				if err != nil {
					out[i] = db.BatchResult{Err: err}
					continue
				}
				res := results[j]
				var me *cluster.MovedError
				if errors.As(res.Err, &me) {
					movedNext = append(movedNext, i)
					if firstMoved == nil {
						firstMoved = me
					}
					continue
				}
				out[i] = res
			}
		}
		// Every owner but one on a goroutine of its own, that one on the
		// caller: a batch with one owner starts none.
		left := len(groups)
		for owner, idx := range groups {
			if left--; left == 0 {
				send(owner, idx)
				break
			}
			wg.Add(1)
			go func(owner string, idx []int) {
				defer wg.Done()
				send(owner, idx)
			}(owner, idx)
		}
		wg.Wait()
		if len(movedNext) == 0 {
			return out
		}
		if attempt >= r.retries {
			for _, i := range movedNext {
				out[i] = db.BatchResult{Err: fmt.Errorf(
					"cluster: key %q still moving after %d retries: %w", ops[i].Key, attempt, firstMoved)}
			}
			return out
		}
		if err := r.handleMoved(ctx, firstMoved, attempt); err != nil {
			for _, i := range movedNext {
				out[i] = db.BatchResult{Err: err}
			}
			return out
		}
		sort.Ints(movedNext)
		pending = movedNext
	}
	return out
}

var (
	_ db.DB      = (*Router)(nil)
	_ db.BatchDB = (*Router)(nil)
)
