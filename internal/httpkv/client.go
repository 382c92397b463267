package httpkv

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"ycsbt/internal/db"
	"ycsbt/internal/kvstore"
	"ycsbt/internal/kvwire"
	"ycsbt/internal/properties"
)

// Transport constants.
const (
	// poolSize is the idle-connection pool of a client's REST exchange
	// (rest.go). The benchmark hammers one host from many threads, so
	// the pool decides whether connections are reused or churned
	// through TIME_WAIT.
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

// Client is the "rawhttp" DB binding: it speaks the httpkv protocol
// to a remote (or in-process httptest) server. Like the paper's
// RawHttpDB it has no transaction support — Start/Commit/Abort fall
// back to the DB class's no-op defaults.
type Client struct {
	db.NoTransactions
	base string
	// rest is the REST exchange with base (rest.go), which carries the
	// control calls and, on an HTTP endpoint, the data plane; nil with
	// restErr saying why base is not a usable URL.
	rest    *restEndpoint
	restErr error
	// wire is the endpoint's frame transport; nil means the endpoint is
	// HTTP. Set once — by Init from the rawhttp.wire property, or by the
	// Router when it mounts a node — before the first operation, and
	// never changed after (see wire.go). A client that was never
	// initialised is HTTP.
	wire *kvwire.Endpoint
	// retries / maxBackoff bound the frame throttle retry loop (see
	// exec): up to retries re-sends, each sleeping the server's retry
	// hint (doubled per attempt) capped at maxBackoff. NewClient sets
	// them to retry429 and retry429Max.
	retries    int
	maxBackoff time.Duration
}

// Dials reports how many TCP connections the client's REST exchange
// has opened, for its control calls and its HTTP data plane alike.
func (c *Client) Dials() int64 {
	if c.rest == nil {
		return 0
	}
	return c.rest.pool.Dials()
}

// NewClient returns a binding that talks to the server at baseURL
// (http://host:port[/prefix], e.g. "http://127.0.0.1:8077"; empty: Init
// reads rawhttp.url). Until Init resolves rawhttp.wire the client is
// HTTP. hc is ignored: every HTTP call rides the client's own REST
// exchange. It goes once benchmark/stack.go stops passing it.
func NewClient(baseURL string, hc *http.Client) *Client {
	c := &Client{retries: retry429, maxBackoff: retry429Max}
	c.setBase(baseURL)
	return c
}

// setBase points the client's REST exchange at base.
func (c *Client) setBase(base string) {
	c.base = base
	c.rest, c.restErr = newRESTEndpoint(base)
}

// roundTrip runs one REST exchange (restEndpoint.roundTrip).
func (c *Client) roundTrip(ctx context.Context, r *request) (reply, error) {
	if c.rest == nil {
		return reply{}, c.restErr
	}
	return c.rest.roundTrip(ctx, r)
}

// control runs one control request (r.path set). A status other than
// 200 is an error naming it and the head of the body; the reply comes
// back either way, for its status and headers, its body the caller's
// to release on a 200 only.
func (c *Client) control(ctx context.Context, r *request) (reply, error) {
	rep, err := c.roundTrip(ctx, r)
	if err != nil || rep.status == http.StatusOK {
		return rep, err
	}
	b := rep.bytes()
	err = fmt.Errorf("%d %s: %s", rep.status, http.StatusText(rep.status), bytes.TrimSpace(b[:min(len(b), 512)]))
	putBodyBuf(rep.body)
	rep.body = nil
	return rep, err
}

func init() {
	db.Register("rawhttp", func() (db.DB, error) { return NewClient("", nil), nil })
}

// Init reads the "rawhttp.url" and "rawhttp.wire" properties, and
// settles the endpoint's transport. A URL that is not
// http://host:port[/prefix] fails it.
func (c *Client) Init(p *properties.Properties) error {
	if c.base == "" {
		c.setBase(p.GetString("rawhttp.url", "http://127.0.0.1:8077"))
	}
	if c.restErr != nil {
		return c.restErr
	}
	if c.wire == nil {
		// The frame listener's address: named outright, none, or
		// whatever the server advertises.
		addr := p.GetString("rawhttp.wire", WireModeAuto)
		switch addr {
		case WireModeOff:
			addr = ""
		case WireModeAuto:
			var err error
			if addr, err = c.probeWire(context.Background()); err != nil {
				return err
			}
		}
		if addr != "" {
			c.wire = kvwire.NewEndpoint(addr, 0)
		}
	}
	return nil
}

// Cleanup implements db.DB.
func (c *Client) Cleanup() error {
	if c.rest != nil {
		c.rest.pool.Close()
	}
	if c.wire != nil {
		c.wire.Close()
	}
	return nil
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
		return nil, fmt.Errorf("httpkv: %s: %w", c.base, errAsOfNeedsFrames)
	}
	rep, err := c.roundTrip(ctx, &request{method: http.MethodGet, table: table, key: key})
	if err != nil {
		return nil, err
	}
	defer putBodyBuf(rep.body)
	var wr wireRecord
	if err := decodeRecord(rep.bytes(), &wr); err != nil {
		return nil, fmt.Errorf("httpkv: decoding record: %w", err)
	}
	return &kvstore.VersionedRecord{Version: wr.Version, Fields: wr.Fields}, nil
}

// Read implements db.DB.
func (c *Client) Read(ctx context.Context, table, key string, fields []string) (db.Record, error) {
	rec, err := c.get(ctx, table, key, 0)
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

// kvConv renders scan records as db.KVs projected to fields. A record
// is handed on as its view (StreamRecord.View): a page record's section
// as the page carried it, so an unprojected scan builds no map at all.
func kvConv(fields []string) func(*kvwire.StreamRecord) db.KV {
	return func(rec *kvwire.StreamRecord) db.KV {
		return db.KV{Key: rec.Key, Fields: rec.View().Project(fields)}
	}
}

// versionedConv renders scan records with their versions, for the
// transaction stores: a page record's checked canonical section becomes
// the record's image as it stands, with no map built.
func versionedConv(rec *kvwire.StreamRecord) kvstore.VersionedKV {
	if rec.Fields != nil || rec.Section() == nil {
		return kvstore.VersionedKV{Key: rec.Key, Record: &kvstore.VersionedRecord{Version: rec.Version, CommitTS: rec.CommitTS, Fields: rec.Fields}}
	}
	return kvstore.VersionedKV{Key: rec.Key, Record: kvstore.NewImageRecord(rec.Version, rec.CommitTS, rec.Section())}
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
		return nil, fmt.Errorf("httpkv: %s: %w", c.base, errAsOfNeedsFrames)
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
		rep, err := c.roundTrip(ctx, &request{
			method: http.MethodGet,
			table:  table,
			query:  "start=" + url.QueryEscape(start) + "&count=" + strconv.Itoa(n),
		})
		if err != nil {
			return nil, err
		}
		var page []wireRecord
		err = decodeRecordPage(rep.bytes(), &page)
		putBodyBuf(rep.body)
		if err != nil {
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
	return scanInto(ctx, c, table, startKey, count, 0, kvConv(fields))
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
	r := request{method: http.MethodDelete, table: table, key: key, cond: expect != kvstore.AnyVersion, expect: expect}
	if kind != kvwire.KindDelete {
		r.method = http.MethodPut
		if kind == kvwire.KindPatch {
			r.method = http.MethodPatch
		}
		// The JSON fields body is built in a pooled buffer, returned
		// once the exchange is over.
		buf := getBodyBuf()
		defer putBodyBuf(buf)
		buf.Write(appendRecord(buf.AvailableBuffer(), &wireRecord{Fields: values}))
		r.body = buf.Bytes()
	}
	rep, err := c.roundTrip(ctx, &r)
	if err != nil {
		return 0, err
	}
	putBodyBuf(rep.body)
	if r.body == nil {
		return 0, nil
	}
	if !rep.tagged {
		return 0, fmt.Errorf("httpkv: missing ETag on %s response", r.method)
	}
	return rep.version, nil
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
