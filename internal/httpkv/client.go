package httpkv

import (
	"context"
	"errors"
	"fmt"
	"io"
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

// Transport constants.
const (
	// poolSize is the idle-connection pool per host. The benchmark
	// hammers one host from many threads, so the per-host pool — not
	// net/http's global default of 2 — decides whether connections are
	// reused or churned through TIME_WAIT.
	poolSize = 64
	// requestTimeout bounds one HTTP exchange end to end.
	requestTimeout = 30 * time.Second
	// retry429 is how many times a shed (429) request frame is re-sent
	// after honoring the server's retry hint.
	retry429 = 2
	// retry429Max caps one backoff sleep regardless of what the retry
	// hint asks for.
	retry429Max = 5 * time.Second
)

// newPooledHTTPClient builds the binding's dedicated HTTP client, with
// pool idle connections per host: never http.DefaultClient (whose zero
// timeout hangs forever on a dead server and whose shared transport
// lets one binding's settings leak into every other user of the
// process). The second result counts the TCP connections the transport
// dials: a healthy run dials once per pooled connection, and a count
// that climbs with the request count means responses are being closed
// short of EOF (see response.go). It is counted in DialContext, not in a
// RoundTripper wrapper — behind any type but *http.Transport,
// http.Client.Timeout costs a timer and a goroutine per request.
func newPooledHTTPClient(pool int) (*http.Client, *atomic.Int64) {
	dials := new(atomic.Int64)
	var dialer net.Dialer
	return &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			Proxy:               http.ProxyFromEnvironment,
			MaxIdleConns:        pool * 2,
			MaxIdleConnsPerHost: pool,
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
// back to the DB class's no-op defaults. It implements db.BatchDB
// (batch.go): on a frame endpoint one request frame moves a whole
// multi-key batch.
type Client struct {
	db.NoTransactions
	base string
	hc   *http.Client
	// wire is the endpoint's frame transport; nil means the endpoint is
	// HTTP. Set once — by Init from the rawhttp.wire property, or by the
	// Router when it mounts a node — before the first operation, and
	// never changed after (see wire.go). A client that was never
	// initialised is HTTP.
	wire *kvwire.Endpoint
	// asOf, when non-zero, serves every read at that snapshot timestamp
	// (the "as_of" property); frames only.
	asOf int64
	// retries / maxBackoff bound the frame throttle retry loop (see
	// exec): up to retries re-sends, each sleeping the server's retry
	// hint (doubled per attempt) capped at maxBackoff. NewClient sets
	// them to retry429 and retry429Max.
	retries    int
	maxBackoff time.Duration
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
// (e.g. "http://127.0.0.1:8077"; empty: Init reads rawhttp.url). A nil
// hc gets a dedicated pooled client. Until Init resolves rawhttp.wire
// the client is HTTP.
func NewClient(baseURL string, hc *http.Client) *Client {
	c := &Client{base: baseURL, hc: hc, retries: retry429, maxBackoff: retry429Max}
	if hc == nil {
		c.hc, c.dials = newPooledHTTPClient(poolSize)
	}
	return c
}

func init() {
	db.Register("rawhttp", func() (db.DB, error) { return NewClient("", nil), nil })
}

// Init reads the "rawhttp.url", "rawhttp.wire" and "as_of" properties,
// and settles the endpoint's transport.
func (c *Client) Init(p *properties.Properties) error {
	if c.base == "" {
		c.base = p.GetString("rawhttp.url", "http://127.0.0.1:8077")
	}
	ctx := context.Background()
	if c.wire == nil {
		// The frame listener's address: named outright, none, or
		// whatever the server advertises.
		addr := p.GetString("rawhttp.wire", WireModeAuto)
		switch addr {
		case WireModeOff:
			addr = ""
		case WireModeAuto:
			var err error
			if addr, err = probeWire(ctx, c.hc, c.base); err != nil {
				return err
			}
		}
		if addr != "" {
			c.wire = kvwire.NewEndpoint(addr, 0)
		}
	}
	// as_of pins every read this binding issues to one snapshot
	// timestamp: an explicit positive commit ts, or -1 to freeze at
	// whatever the server's clock reads now (fetched once via /v1/ts).
	if ts := p.GetInt64("as_of", 0); ts != 0 {
		if c.wire == nil {
			return fmt.Errorf("httpkv: as_of=%d against %s: %w", ts, c.base, errAsOfNeedsFrames)
		}
		if ts < 0 {
			now, err := c.SnapshotTS(ctx)
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
	if c.wire != nil {
		c.wire.Close()
	}
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

// send runs one HTTP exchange, propagating the caller's context
// deadline to the server as X-Deadline-Ms so the server can shed work
// the client will no longer wait for.
func (c *Client) send(req *http.Request) (*http.Response, error) {
	if d, ok := req.Context().Deadline(); ok {
		if ms := time.Until(d).Milliseconds(); ms > 0 {
			req.Header.Set(DeadlineHeader, strconv.FormatInt(ms, 10))
		}
	}
	return c.hc.Do(req)
}

// do sends req and maps an error status to its db-layer error. No HTTP
// route sheds load, so a 429 is not retried here; it surfaces as
// db.ErrThrottled (frames retry theirs, see exec).
func (c *Client) do(req *http.Request) (*http.Response, error) {
	resp, err := c.send(req)
	if err != nil {
		return nil, fmt.Errorf("httpkv: %w", err)
	}
	if resp.StatusCode >= 400 {
		return nil, statusError(resp)
	}
	return resp, nil
}

// get fetches one record with its version, from the head or (asOf > 0,
// frames only) the version history. The fields map is freshly decoded:
// the caller's own.
func (c *Client) get(ctx context.Context, table, key string, asOf int64) (*kvstore.VersionedRecord, error) {
	if c.wire != nil {
		res, err := c.execOne(ctx, kvwire.Op{Kind: kvwire.KindGet, Table: table, Key: key, AsOf: asOf})
		if err != nil {
			return nil, err
		}
		return &kvstore.VersionedRecord{Version: res.Version, Fields: res.Fields}, nil
	}
	if asOf != 0 {
		return nil, errAsOfNeedsFrames
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

// Read implements db.DB.
func (c *Client) Read(ctx context.Context, table, key string, fields []string) (db.Record, error) {
	rec, err := c.get(ctx, table, key, c.asOf)
	if err != nil {
		return nil, err
	}
	db.ReportReadVersion(ctx, rec.Version)
	if fields == nil {
		return rec.Fields, nil
	}
	return db.ProjectFields(rec.Fields, fields), nil
}

// ReadVersioned fetches a record together with its version (ETag);
// used by tests and by callers that need the CAS handle.
func (c *Client) ReadVersioned(ctx context.Context, table, key string) (*kvstore.VersionedRecord, error) {
	return c.get(ctx, table, key, 0)
}

// kvConv renders scan records as db.KVs projected to fields.
func kvConv(fields []string) func(*kvwire.StreamRecord) db.KV {
	return func(rec *kvwire.StreamRecord) db.KV {
		if fields == nil {
			return db.KV{Key: rec.Key, Record: rec.Fields} // freshly decoded: already the caller's own map
		}
		return db.KV{Key: rec.Key, Record: db.ProjectFields(rec.Fields, fields)}
	}
}

// versionedConv renders scan records with their versions, for the
// transaction stores.
func versionedConv(rec *kvwire.StreamRecord) kvstore.VersionedKV {
	return kvstore.VersionedKV{
		Key:    rec.Key,
		Record: &kvstore.VersionedRecord{Version: rec.Version, Fields: rec.Fields},
	}
}

// scanPrealloc is the result capacity a scan for count reserves before
// a single record has arrived: count is the client's number
// (maxscanlength, ?count=), so it is honoured only up to one engine
// page — past that the slice grows with the records that really
// exist. Unbounded scans (count < 0) start empty.
func scanPrealloc(count int) int {
	return max(0, min(count, kvwire.ScanPageCap))
}

// scanInto fetches up to count records (count < 0: the rest of the
// table) from start in key order, built once through conv: frame pages
// on a frame endpoint, REST pages otherwise. asOf > 0 reads the
// version history and needs frames.
func scanInto[T any](ctx context.Context, c *Client, table, start string, count int, asOf int64, conv func(*kvwire.StreamRecord) T) ([]T, error) {
	if c.wire == nil && asOf != 0 {
		return nil, errAsOfNeedsFrames
	}
	out := make([]T, 0, scanPrealloc(count))
	if c.wire != nil {
		s, err := c.wire.Scan(ctx, &kvwire.ScanRequest{Table: table, Start: start, Count: count, AsOf: asOf, Slot: -1})
		if err != nil {
			return nil, fmt.Errorf("httpkv: %w", err)
		}
		defer s.Close()
		for s.Next() {
			out = append(out, conv(s.Record()))
		}
		var re *kvwire.RequestError
		switch err := s.Err(); {
		case err == nil:
			return out, nil
		case errors.As(err, &re):
			return nil, wireResultErr(kvwire.Result{Status: re.Status, Err: re.Msg})
		case ctx.Err() != nil:
			return nil, ctx.Err()
		default:
			return nil, fmt.Errorf("httpkv: %w", err)
		}
	}
	// The server clamps a page to kvwire.ScanPageCap; ask for no more,
	// so a page shorter than asked means the table ran out.
	for count < 0 || len(out) < count {
		n := kvwire.ScanPageCap
		if count >= 0 {
			n = min(n, count-len(out))
		}
		u := c.base + "/v1/" + url.PathEscape(table) + "?start=" + url.QueryEscape(start) + "&count=" + strconv.Itoa(n)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
		if err != nil {
			return nil, err
		}
		resp, err := c.do(req)
		if err != nil {
			return nil, err
		}
		var page []wireRecord
		if err := decodeBody(resp, &page); err != nil {
			return nil, fmt.Errorf("httpkv: decoding scan: %w", err)
		}
		for i := range page {
			p := &page[i]
			out = append(out, conv(&kvwire.StreamRecord{Key: p.Key, Version: p.Version, CommitTS: p.CommitTS, Fields: p.Fields}))
		}
		if len(page) < n {
			break
		}
		start = page[len(page)-1].Key + "\x00"
	}
	return out, nil
}

// Scan implements db.DB.
func (c *Client) Scan(ctx context.Context, table, startKey string, count int, fields []string) ([]db.KV, error) {
	return scanInto(ctx, c, table, startKey, count, c.asOf, kvConv(fields))
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

// mutate runs one put, patch or delete conditional on expect and
// returns the version the server assigned (0 for an HTTP delete, which
// answers no ETag).
func (c *Client) mutate(ctx context.Context, kind kvwire.Kind, table, key string, values db.Record, expect uint64) (uint64, error) {
	if c.wire != nil {
		op := kvwire.Op{Kind: kind, Table: table, Key: key, Fields: values, Expect: expect}
		// A nil fields map would answer 400 from the core's batch
		// validation, so it rides as an empty one — as it does over
		// REST, where appendRecord writes it as an empty object.
		if op.Fields == nil && kind != kvwire.KindDelete {
			op.Fields = map[string][]byte{}
		}
		res, err := c.execOne(ctx, op)
		return res.Version, err
	}
	method := http.MethodDelete
	var body io.Reader
	if kind != kvwire.KindDelete {
		method = http.MethodPut
		if kind == kvwire.KindPatch {
			method = http.MethodPatch
		}
		// The JSON fields body is built in a pooled buffer, returned
		// after do (see bodyBufPool).
		buf := getBodyBuf()
		defer putBodyBuf(buf)
		buf.Write(appendRecord(buf.AvailableBuffer(), &wireRecord{Fields: values}))
		body = buf
	}
	req, err := http.NewRequestWithContext(ctx, method, c.recordURL(table, key), body)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	setCond(req, expect)
	resp, err := c.do(req)
	if err != nil {
		return 0, err
	}
	drainClose(resp)
	if body == nil {
		return 0, nil
	}
	ver, err := strconv.ParseUint(resp.Header.Get("ETag"), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("httpkv: missing ETag on %s response: %w", method, err)
	}
	return ver, nil
}

// write is mutate for the db.DB mutations: the new version is reported
// when a history capture is armed.
func (c *Client) write(ctx context.Context, kind kvwire.Kind, table, key string, values db.Record) error {
	ver, err := c.mutate(ctx, kind, table, key, values, kvstore.AnyVersion)
	if err == nil {
		db.ReportWriteVersion(ctx, ver)
	}
	return err
}

// Update implements db.DB (merge semantics, key must exist).
func (c *Client) Update(ctx context.Context, table, key string, values db.Record) error {
	return c.write(ctx, kvwire.KindPatch, table, key, values)
}

// Insert implements db.DB (unconditional put).
func (c *Client) Insert(ctx context.Context, table, key string, values db.Record) error {
	return c.write(ctx, kvwire.KindPut, table, key, values)
}

// PutIfVersion performs a conditional put (If-Match / If-None-Match
// over REST), exposing the store's test-and-set.
func (c *Client) PutIfVersion(ctx context.Context, table, key string, values db.Record, expect uint64) error {
	_, err := c.mutate(ctx, kvwire.KindPut, table, key, values, expect)
	return err
}

// Delete implements db.DB.
func (c *Client) Delete(ctx context.Context, table, key string) error {
	_, err := c.mutate(ctx, kvwire.KindDelete, table, key, nil, kvstore.AnyVersion)
	return err
}
