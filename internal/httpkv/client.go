package httpkv

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"

	"ycsbt/internal/cluster"
	"ycsbt/internal/db"
	"ycsbt/internal/kvstore"
	"ycsbt/internal/kvwire"
	"ycsbt/internal/properties"
)

// Transport defaults; overridable via the rawhttp.* properties.
const (
	// DefaultPoolSize is the idle-connection pool per host. The
	// benchmark hammers one host from many threads, so the per-host
	// pool — not net/http's global default of 2 — decides whether
	// connections are reused or churned through TIME_WAIT.
	DefaultPoolSize = 64
	// DefaultTimeout bounds one HTTP exchange end to end.
	DefaultTimeout = 30 * time.Second
	// DefaultRetry429 is how many times a throttled (429) exchange is
	// re-sent after honoring the server's Retry-After hint. 0 disables
	// (surface db.ErrThrottled immediately, the pre-retry behavior).
	DefaultRetry429 = 2
	// DefaultRetry429Max caps one backoff sleep regardless of what
	// Retry-After asks for.
	DefaultRetry429Max = 5 * time.Second
)

// newPooledHTTPClient builds the binding's dedicated HTTP client:
// never http.DefaultClient (whose zero timeout hangs forever on a
// dead server and whose shared transport lets one binding's settings
// leak into every other user of the process). The second result counts
// the TCP connections the transport dials: a healthy run dials once per
// pooled connection, and a count that climbs with the request count
// means responses are being closed short of EOF (see response.go). It
// is counted in DialContext, not in a RoundTripper wrapper — behind any
// type but *http.Transport, http.Client.Timeout costs a timer and a
// goroutine per request.
func newPooledHTTPClient(poolSize int, timeout time.Duration) (*http.Client, *atomic.Int64) {
	if poolSize <= 0 {
		poolSize = DefaultPoolSize
	}
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	dials := new(atomic.Int64)
	var dialer net.Dialer
	return &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			Proxy:               http.ProxyFromEnvironment,
			MaxIdleConns:        poolSize * 2,
			MaxIdleConnsPerHost: poolSize,
			IdleConnTimeout:     90 * time.Second,
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				dials.Add(1)
				return dialer.DialContext(ctx, network, addr)
			},
		},
	}, dials
}

// Client is the "rawhttp" DB binding: it speaks the httpkv protocol
// to a remote (or in-process httptest) server. Like the paper's
// RawHttpDB it has no transaction support — Start/Commit/Abort fall
// back to the DB class's no-op defaults. It does implement db.BatchDB
// (batch.go), so stacked under the batching middleware one POST moves
// a whole multi-key batch.
type Client struct {
	db.NoTransactions
	base string
	hc   *http.Client
	// sem bounds in-flight requests client-side (nil = unbounded):
	// bounded pipelining keeps a saturated benchmark from opening
	// unlimited sockets when the server slows down.
	sem chan struct{}
	// caps holds this endpoint's negotiated-capability latches
	// (batch-route fallback, as-of fast-fail). Scoped per endpoint so
	// a cluster router's nodes latch independently; see caps.go.
	caps *endpointCaps
	// asOf, when non-zero, routes every read through the as-of wire
	// protocol at that snapshot timestamp (the "as_of" property).
	asOf int64
	// retry429 / retry429Max configure the throttle retry loop (see
	// sendRetry): up to retry429 re-sends, each sleeping the server's
	// Retry-After (doubled per attempt) capped at retry429Max.
	retry429    int
	retry429Max time.Duration
	// wireMode steers the binary transport: "auto" (or empty) sniffs
	// the X-KV-Wire header, "off" stays on HTTP, anything else is an
	// explicit host:port dial address. wireConns sizes the binary
	// connection pool (0 = kvwire.DefaultMaxConns). See wire.go.
	wireMode  string
	wireConns int
	// dials counts the connections hc's transport has opened; nil when
	// the caller supplied hc.
	dials *atomic.Int64
}

// Dials reports how many TCP connections the client's own pooled
// transport has opened (0 when the http.Client was supplied by the
// caller, whose transport this package cannot see into).
func (c *Client) Dials() int64 {
	if c.dials == nil {
		return 0
	}
	return c.dials.Load()
}

// NewClient returns a binding that talks to the server at baseURL
// (e.g. "http://127.0.0.1:8077"). A nil hc gets a dedicated pooled
// client with default sizing.
func NewClient(baseURL string, hc *http.Client) *Client {
	c := &Client{base: baseURL, hc: hc, caps: &endpointCaps{}, retry429: DefaultRetry429, retry429Max: DefaultRetry429Max}
	if hc == nil {
		c.hc, c.dials = newPooledHTTPClient(DefaultPoolSize, DefaultTimeout)
	}
	return c
}

func init() {
	db.Register("rawhttp", func() (db.DB, error) { return &Client{}, nil })
}

// Init reads the "rawhttp.url", "rawhttp.pool_size",
// "rawhttp.timeout_ms", "rawhttp.max_inflight", "rawhttp.retry429"
// and "rawhttp.retry429_max_ms" properties when the binding was
// opened by name through the registry.
func (c *Client) Init(p *properties.Properties) error {
	if c.base == "" {
		c.base = p.GetString("rawhttp.url", "http://127.0.0.1:8077")
	}
	if c.caps == nil {
		c.caps = &endpointCaps{}
	}
	if c.hc == nil {
		c.hc, c.dials = newPooledHTTPClient(
			p.GetInt("rawhttp.pool_size", DefaultPoolSize),
			time.Duration(p.GetInt64("rawhttp.timeout_ms", int64(DefaultTimeout/time.Millisecond)))*time.Millisecond,
		)
	}
	if c.sem == nil {
		if n := p.GetInt("rawhttp.max_inflight", 0); n > 0 {
			c.sem = make(chan struct{}, n)
		}
	}
	c.retry429 = p.GetInt("rawhttp.retry429", DefaultRetry429)
	c.retry429Max = time.Duration(p.GetInt64("rawhttp.retry429_max_ms", int64(DefaultRetry429Max/time.Millisecond))) * time.Millisecond
	c.wireMode = p.GetString("rawhttp.wire", WireModeAuto)
	c.wireConns = p.GetInt("rawhttp.wire_conns", 0)
	// as_of pins every read this binding issues to one snapshot
	// timestamp: an explicit positive commit ts, or -1 to freeze at
	// whatever the server's clock reads now (fetched once via /v1/ts).
	if ts := p.GetInt64("as_of", 0); ts != 0 {
		if ts < 0 {
			now, err := c.SnapshotTS(context.Background())
			if err != nil {
				return fmt.Errorf("httpkv: resolving as_of=-1: %w", err)
			}
			ts = now
		}
		c.asOf = ts
	}
	return nil
}

// Cleanup implements db.DB.
func (c *Client) Cleanup() error {
	c.hc.CloseIdleConnections()
	c.caps.closeWire()
	return nil
}

func (c *Client) recordURL(table, key string) string {
	return c.base + "/v1/" + url.PathEscape(table) + "/" + url.PathEscape(key)
}

// statusError maps HTTP status codes back to db-layer sentinels. A
// 410 becomes a typed *cluster.MovedError carrying the responding
// node's map version and owner hint, so routers and middleware can
// tell a stale shard map apart from a genuine client error instead of
// pattern-matching on a generic 4xx. It consumes the response (see
// response.go), so a 404/412/429 storm reuses its connections too.
func statusError(resp *http.Response) error {
	body := errorText(resp)
	switch resp.StatusCode {
	case http.StatusNotFound:
		return fmt.Errorf("%w: %s", db.ErrNotFound, body)
	case http.StatusPreconditionFailed:
		return fmt.Errorf("%w: %s", db.ErrConflict, body)
	case http.StatusTooManyRequests:
		return fmt.Errorf("%w: %s", db.ErrThrottled, body)
	case http.StatusGone:
		ver, _ := strconv.ParseInt(resp.Header.Get(cluster.HeaderMapVersion), 10, 64)
		return &cluster.MovedError{
			Owner:      resp.Header.Get(cluster.HeaderOwner),
			MapVersion: ver,
		}
	default:
		return fmt.Errorf("httpkv: server returned %s: %s", resp.Status, body)
	}
}

// send runs one HTTP exchange under the client-side in-flight bound,
// propagating the caller's context deadline to the server as
// X-Deadline-Ms so the server can shed work the client will no longer
// wait for.
func (c *Client) send(req *http.Request) (*http.Response, error) {
	if d, ok := req.Context().Deadline(); ok {
		if ms := time.Until(d).Milliseconds(); ms > 0 {
			req.Header.Set(DeadlineHeader, strconv.FormatInt(ms, 10))
		}
	}
	if c.sem != nil {
		select {
		case c.sem <- struct{}{}:
			defer func() { <-c.sem }()
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	resp, err := c.hc.Do(req)
	if err == nil {
		c.sniffWire(resp)
	}
	return resp, err
}

// sendRetry is send plus the 429 policy: a throttled response is
// retried up to c.retry429 times, sleeping the server's Retry-After
// hint (doubled each attempt as backoff, capped at c.retry429Max)
// between sends. The request body is replayed via GetBody, which
// net/http sets for the bytes.Reader/bytes.Buffer bodies every caller
// here uses; a non-replayable body surfaces the 429 unchanged. The
// retry gives up early when the context would expire before the
// backoff elapses, returning the throttled response so the caller
// still maps it to db.ErrThrottled.
func (c *Client) sendRetry(req *http.Request) (*http.Response, error) {
	resp, err := c.send(req)
	for attempt := 0; attempt < c.retry429; attempt++ {
		if err != nil || resp.StatusCode != http.StatusTooManyRequests {
			return resp, err
		}
		if req.Body != nil && req.GetBody == nil {
			return resp, err // cannot replay the body
		}
		wait := retryAfterDelay(resp, attempt, c.retry429Max)
		if d, ok := req.Context().Deadline(); ok && time.Until(d) <= wait {
			return resp, err // would expire mid-backoff; let the caller see the 429
		}
		drainClose(resp)
		select {
		case <-time.After(wait):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
		if req.GetBody != nil {
			body, berr := req.GetBody()
			if berr != nil {
				return nil, berr
			}
			req.Body = body
		}
		resp, err = c.send(req)
	}
	return resp, err
}

// retryAfterDelay resolves one backoff sleep: the response's
// Retry-After hint (100ms when absent or unparsable), doubled per
// completed attempt, capped at max. RFC 9110 §10.2.3 allows both
// forms of the header — delta-seconds and an HTTP-date — so both
// parse here; a date already in the past means "retry now" (zero
// sleep), not "fall back to the default".
func retryAfterDelay(resp *http.Response, attempt int, ceiling time.Duration) time.Duration {
	base := 100 * time.Millisecond
	if h := resp.Header.Get("Retry-After"); h != "" {
		if secs, err := strconv.Atoi(h); err == nil && secs >= 0 {
			base = time.Duration(secs) * time.Second
		} else if t, terr := http.ParseTime(h); terr == nil {
			base = time.Until(t)
			if base < 0 {
				base = 0
			}
		}
	}
	d := base << attempt
	if ceiling > 0 && d > ceiling {
		d = ceiling
	}
	return d
}

func (c *Client) do(req *http.Request) (*http.Response, error) {
	resp, err := c.sendRetry(req)
	if err != nil {
		return nil, fmt.Errorf("httpkv: %w", err)
	}
	if resp.StatusCode >= 400 {
		return nil, statusError(resp)
	}
	return resp, nil
}

// Read implements db.DB.
func (c *Client) Read(ctx context.Context, table, key string, fields []string) (db.Record, error) {
	if c.asOf == 0 || !c.caps.asOfUnsupported.Load() {
		op := kvwire.Op{Kind: kvwire.KindGet, Table: table, Key: key, AsOf: c.asOf}
		if res, served, err := c.wireSingle(ctx, op); served {
			if err != nil {
				return nil, err
			}
			if err := wireResultErr(res); err != nil {
				return nil, err
			}
			db.ReportReadVersion(ctx, res.Version)
			return db.ProjectFields(res.Fields, fields), nil
		}
	}
	if c.asOf != 0 {
		wr, err := c.readWireAsOf(ctx, table, key, c.asOf)
		if err != nil {
			return nil, err
		}
		db.ReportReadVersion(ctx, wr.Version)
		return db.ProjectFields(wr.Fields, fields), nil
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.recordURL(table, key), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(req)
	if err != nil {
		return nil, err
	}
	var wr wireRecord
	if err := decodeBody(resp, &wr); err != nil {
		return nil, fmt.Errorf("httpkv: decoding record: %w", err)
	}
	db.ReportReadVersion(ctx, wr.Version)
	if fields == nil {
		return wr.Fields, nil // freshly decoded: already the caller's own map
	}
	return db.ProjectFields(wr.Fields, fields), nil
}

// ReadVersioned fetches a record together with its version (ETag);
// used by tests and by callers that need the CAS handle.
func (c *Client) ReadVersioned(ctx context.Context, table, key string) (*kvstore.VersionedRecord, error) {
	if res, served, err := c.wireSingle(ctx, kvwire.Op{Kind: kvwire.KindGet, Table: table, Key: key}); served {
		if err != nil {
			return nil, err
		}
		if err := wireResultErr(res); err != nil {
			return nil, err
		}
		return &kvstore.VersionedRecord{Version: res.Version, Fields: res.Fields}, nil
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.recordURL(table, key), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(req)
	if err != nil {
		return nil, err
	}
	var wr wireRecord
	if err := decodeBody(resp, &wr); err != nil {
		return nil, fmt.Errorf("httpkv: decoding record: %w", err)
	}
	return &kvstore.VersionedRecord{Version: wr.Version, Fields: wr.Fields}, nil
}

// scanWire fetches one scan page, asking for NDJSON and decoding
// whichever representation the server speaks (old servers answer a
// JSON array; the Content-Type decides). mapVer is the shard map
// version the serving node scanned under (echoed on cluster-mode
// responses; 0 from non-cluster or pre-echo servers) — the router's
// fan-out compares it across nodes to detect a scan that straddled a
// migration cutover.
func (c *Client) scanWire(ctx context.Context, table, startKey string, count int) (wrs []wireRecord, mapVer int64, err error) {
	if wrs, mapVer, served, err := c.scanStream(ctx, table, startKey, count, 0, -1, false); served {
		return wrs, mapVer, err
	}
	return c.scanWireHTTP(ctx, table, startKey, count)
}

// scanWireHTTP is the HTTP page fetch under scanWire — also the
// fallback the router's streaming cursor uses directly, so a failed
// stream open does not re-probe the stream path within the same call.
func (c *Client) scanWireHTTP(ctx context.Context, table, startKey string, count int) (wrs []wireRecord, mapVer int64, err error) {
	u := c.base + "/v1/" + url.PathEscape(table) + "?start=" + url.QueryEscape(startKey) + "&count=" + strconv.Itoa(count)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Accept", NDJSONContentType)
	resp, err := c.do(req)
	if err != nil {
		return nil, 0, err
	}
	mapVer, _ = strconv.ParseInt(resp.Header.Get(cluster.HeaderMapVersion), 10, 64)
	wrs, err = decodeScanBody(resp, count)
	if err != nil {
		return nil, 0, err
	}
	return wrs, mapVer, nil
}

// Scan implements db.DB.
func (c *Client) Scan(ctx context.Context, table, startKey string, count int, fields []string) ([]db.KV, error) {
	var wrs []wireRecord
	var err error
	if c.asOf != 0 {
		wrs, err = c.scanWireAsOf(ctx, table, startKey, count, c.asOf)
	} else {
		wrs, _, err = c.scanWire(ctx, table, startKey, count)
	}
	if err != nil {
		return nil, err
	}
	out := make([]db.KV, 0, len(wrs))
	for _, wr := range wrs {
		out = append(out, db.KV{Key: wr.Key, Record: db.ProjectFields(wr.Fields, fields)})
	}
	return out, nil
}

// setCond stamps the conditional-write headers for expect.
func setCond(req *http.Request, expect uint64) {
	switch expect {
	case kvstore.AnyVersion:
	case kvstore.MustNotExist:
		req.Header.Set("If-None-Match", "*")
	default:
		req.Header.Set("If-Match", strconv.FormatUint(expect, 10))
	}
}

// writeReq sends method with a JSON fields body (built in a pooled
// buffer) conditional on expect, and returns the response's ETag —
// the version the server assigned.
func (c *Client) writeReq(ctx context.Context, method, u string, values db.Record, expect uint64) (string, error) {
	body := getBodyBuf()
	defer putBodyBuf(body) // after do: a 429 retry replays the buffer
	if err := json.NewEncoder(body).Encode(wireRecord{Fields: values}); err != nil {
		return "", err
	}
	body.Truncate(body.Len() - 1) // Encode's newline: keep the body what json.Marshal sent
	req, err := http.NewRequestWithContext(ctx, method, u, body)
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	setCond(req, expect)
	resp, err := c.do(req)
	if err != nil {
		return "", err
	}
	drainClose(resp)
	return resp.Header.Get("ETag"), nil
}

// write is writeReq for the db.DB mutations: the server stamps write
// responses with the new version as the ETag, reported when a history
// capture is armed.
func (c *Client) write(ctx context.Context, method, table, key string, values db.Record) error {
	etag, err := c.writeReq(ctx, method, c.recordURL(table, key), values, kvstore.AnyVersion)
	if err != nil {
		return err
	}
	if ver, perr := strconv.ParseUint(etag, 10, 64); perr == nil {
		db.ReportWriteVersion(ctx, ver)
	}
	return nil
}

// wireWrite runs one mutation over the binary protocol when it is
// negotiated, returning served=false to send the caller down the HTTP
// path. A nil fields map would answer 400 from the core's batch
// validation, so it rides as an empty one — matching the single-op
// HTTP route, which accepts a missing fields object.
func (c *Client) wireWrite(ctx context.Context, kind kvwire.Kind, table, key string, values db.Record, expect uint64) (ver uint64, served bool, err error) {
	op := kvwire.Op{Kind: kind, Table: table, Key: key, Fields: values, Expect: expect}
	if op.Fields == nil && kind != kvwire.KindDelete {
		op.Fields = map[string][]byte{}
	}
	res, served, err := c.wireSingle(ctx, op)
	if !served {
		return 0, false, nil
	}
	if err != nil {
		return 0, true, err
	}
	if err := wireResultErr(res); err != nil {
		return 0, true, err
	}
	return res.Version, true, nil
}

// Update implements db.DB (merge semantics, key must exist).
func (c *Client) Update(ctx context.Context, table, key string, values db.Record) error {
	if ver, served, err := c.wireWrite(ctx, kvwire.KindPatch, table, key, values, kvstore.AnyVersion); served {
		if err == nil {
			db.ReportWriteVersion(ctx, ver)
		}
		return err
	}
	return c.write(ctx, http.MethodPatch, table, key, values)
}

// Insert implements db.DB (unconditional put).
func (c *Client) Insert(ctx context.Context, table, key string, values db.Record) error {
	if ver, served, err := c.wireWrite(ctx, kvwire.KindPut, table, key, values, kvstore.AnyVersion); served {
		if err == nil {
			db.ReportWriteVersion(ctx, ver)
		}
		return err
	}
	return c.write(ctx, http.MethodPut, table, key, values)
}

// PutIfVersion performs a conditional put via If-Match /
// If-None-Match, exposing the store's test-and-set over HTTP.
func (c *Client) PutIfVersion(ctx context.Context, table, key string, values db.Record, expect uint64) error {
	_, err := c.putVersioned(ctx, table, key, values, expect)
	return err
}

// putVersioned performs a conditional put and returns the new version
// from the response ETag.
func (c *Client) putVersioned(ctx context.Context, table, key string, values db.Record, expect uint64) (uint64, error) {
	if ver, served, err := c.wireWrite(ctx, kvwire.KindPut, table, key, values, expect); served {
		return ver, err
	}
	etag, err := c.writeReq(ctx, http.MethodPut, c.recordURL(table, key), values, expect)
	if err != nil {
		return 0, err
	}
	ver, err := strconv.ParseUint(etag, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("httpkv: missing ETag on put response: %w", err)
	}
	return ver, nil
}

// deleteVersioned performs a conditional delete.
func (c *Client) deleteVersioned(ctx context.Context, table, key string, expect uint64) error {
	if _, served, err := c.wireWrite(ctx, kvwire.KindDelete, table, key, nil, expect); served {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.recordURL(table, key), nil)
	if err != nil {
		return err
	}
	setCond(req, expect)
	resp, err := c.do(req)
	if err != nil {
		return err
	}
	drainClose(resp)
	return nil
}

// scanVersioned fetches a scan page with record versions.
func (c *Client) scanVersioned(ctx context.Context, table, startKey string, count int) ([]kvstore.VersionedKV, error) {
	wrs, _, err := c.scanWire(ctx, table, startKey, count)
	if err != nil {
		return nil, err
	}
	out := make([]kvstore.VersionedKV, 0, len(wrs))
	for _, wr := range wrs {
		out = append(out, kvstore.VersionedKV{
			Key:    wr.Key,
			Record: &kvstore.VersionedRecord{Version: wr.Version, Fields: wr.Fields},
		})
	}
	return out, nil
}

// Delete implements db.DB.
func (c *Client) Delete(ctx context.Context, table, key string) error {
	return c.deleteVersioned(ctx, table, key, kvstore.AnyVersion)
}
