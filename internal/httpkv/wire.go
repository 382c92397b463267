package httpkv

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"ycsbt/internal/cluster"
	"ycsbt/internal/db"
	"ycsbt/internal/kvstore"
	"ycsbt/internal/kvwire"
)

// One transport per endpoint, decided once. A Client is either HTTP —
// the paper's single-key REST plus a paged scan — or frames, and it
// never changes its mind at run time: there is no per-call fallback,
// so a frame that fails surfaces as the transport error it is instead
// of being re-sent some other way.
//
// The rawhttp.wire property picks: "off" is HTTP, a host:port is that
// frame listener, and "auto" (the default) asks the server once, over
// the client's REST exchange, whether it runs one (probeWire). Batches,
// as-of reads and multi-page scans — the migration copy among them —
// exist on frames only; the Router therefore requires every node to
// advertise a listener, and MigrateSlot the slot's source (NoWireError
// otherwise).

// WireAddrHeader advertises the server's frame listener: the /healthz
// response of a server started with one carries X-KV-Wire: host:port.
const WireAddrHeader = "X-KV-Wire"

// WireModeOff keeps the endpoint on HTTP ("rawhttp.wire=off").
const WireModeOff = "off"

// WireModeAuto (the default) uses the frame listener the server
// advertises, and HTTP when it advertises none.
const WireModeAuto = "auto"

// NoWireError reports a fleet node that advertises no frame listener.
type NoWireError struct{ Node string }

func (e *NoWireError) Error() string {
	return fmt.Sprintf("httpkv: node %s advertises no frame listener (kvserver -wire-addr)", e.Node)
}

// probeWire asks the server where its frame listener is: one GET of
// /healthz, whose response headers carry the advertisement. It returns
// "" when the server advertises none; a probe that cannot reach the
// server is an error, never a downgrade to HTTP.
func (c *Client) probeWire(ctx context.Context) (string, error) {
	rep, err := c.roundTrip(ctx, &request{method: http.MethodGet, path: "/healthz"})
	if err != nil {
		return "", fmt.Errorf("httpkv: probing %s for its frame listener: %w", c.base, err)
	}
	putBodyBuf(rep.body)
	if rep.wire == "" {
		return "", nil
	}
	addr := resolveWireAddr(c.rest.host, rep.wire)
	if addr == "" {
		return "", fmt.Errorf("httpkv: %s advertises an unusable frame listener %q", c.base, rep.wire)
	}
	return addr, nil
}

// requireWire is the probe for callers that cannot work without frames
// (the Router, MigrateSlot, the copy's pull): the node's listener
// address, or a NoWireError naming it.
func (c *Client) requireWire(ctx context.Context) (string, error) {
	addr, err := c.probeWire(ctx)
	if err == nil && addr == "" {
		err = &NoWireError{Node: c.base}
	}
	return addr, err
}

// openWire is requireWire returning the node's frame endpoint, which
// keeps up to conns idle connections (0: kvwire's default).
func (c *Client) openWire(ctx context.Context, conns int) (*kvwire.Endpoint, error) {
	addr, err := c.requireWire(ctx)
	if err != nil {
		return nil, err
	}
	return kvwire.NewEndpoint(addr, conns), nil
}

// resolveWireAddr turns an advertised listener address into a dialable
// one, filling a missing or unspecified host (":9077", "0.0.0.0:9077",
// "[::]:9077") from baseHost, the host:port of the endpoint's base URL
// — the server knows its port but not necessarily the name clients
// reach it by.
func resolveWireAddr(baseHost, adv string) string {
	host, port, err := net.SplitHostPort(adv)
	if err != nil || port == "" {
		return ""
	}
	if host == "" || host == "0.0.0.0" || host == "::" {
		host, _, _ = net.SplitHostPort(baseHost)
	}
	return net.JoinHostPort(host, port)
}

// exec ships ops as one request frame. A frame shed on admission (429)
// is re-sent up to c.retries times, each after the server's retry
// hint (100ms when absent, doubled per attempt, capped at
// c.maxBackoff); the retry gives up early when the context would
// expire mid-backoff. A shed request never ran, so re-sending it is
// safe; any other failure is returned as it is — the frame may have
// been applied.
func (c *Client) exec(ctx context.Context, ops []kvwire.Op) ([]kvwire.Result, error) {
	for attempt := 0; ; attempt++ {
		res, err := c.wire.Exec(ctx, ops)
		if err == nil {
			if len(res) != len(ops) {
				return nil, fmt.Errorf("httpkv: wire answered %d of %d items", len(res), len(ops))
			}
			return res, nil
		}
		var re *kvwire.RequestError
		if !errors.As(err, &re) {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, fmt.Errorf("httpkv: %w", err)
		}
		if re.Status != http.StatusTooManyRequests {
			return nil, fmt.Errorf("httpkv: wire request failed: %d %s", re.Status, re.Msg)
		}
		wait := re.RetryAfter
		if wait <= 0 {
			wait = 100 * time.Millisecond
		}
		wait <<= attempt
		if wait > c.maxBackoff {
			wait = c.maxBackoff
		}
		if d, ok := ctx.Deadline(); attempt >= c.retries || (ok && time.Until(d) <= wait) {
			return nil, fmt.Errorf("%w: %s", db.ErrThrottled, re.Msg)
		}
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// execOne runs one op over frames and maps a non-2xx result to its
// error (wireResultErr).
func (c *Client) execOne(ctx context.Context, op kvwire.Op) (kvwire.Result, error) {
	res, err := c.exec(ctx, []kvwire.Op{op})
	if err != nil {
		return kvwire.Result{}, err
	}
	return res[0], wireResultErr(res[0])
}

// wireResultErr maps a non-2xx result — a frame's, or an HTTP
// response's (see do) — to the most specific sentinel for its status:
// the engine's, for the outcomes the engine reported, so the db layer
// (db.ErrNotFound, db.ErrConflict) and the transaction libraries
// (kvstore.ErrNotFound, kvstore.ErrVersionMismatch) both match the one
// error. A 410 becomes a typed *cluster.MovedError carrying the
// responding node's map version and owner hint, so routers and
// middleware can tell a stale shard map apart from a genuine client
// error.
func wireResultErr(r kvwire.Result) error {
	switch r.Status {
	case http.StatusOK, http.StatusNoContent:
		return nil
	case http.StatusNotFound:
		return fmt.Errorf("%w: %s", kvstore.ErrNotFound, r.Err)
	case http.StatusPreconditionFailed:
		return fmt.Errorf("%w: %s", kvstore.ErrVersionMismatch, r.Err)
	case http.StatusTooManyRequests:
		return fmt.Errorf("%w: %s", db.ErrThrottled, r.Err)
	case http.StatusGone:
		return &cluster.MovedError{Owner: r.Owner, MapVersion: r.MapVersion}
	case http.StatusGatewayTimeout:
		return fmt.Errorf("%w: %s", context.DeadlineExceeded, r.Err)
	default:
		return fmt.Errorf("httpkv: server returned %d: %s", r.Status, r.Err)
	}
}
