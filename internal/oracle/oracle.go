// Package oracle provides the centralized timestamp oracle (TO) that
// Percolator-style transaction protocols depend on — and that the
// paper's own client-coordinated design pointedly avoids ("It does
// not depend on any centralized timestamp oracle or logging
// infrastructure", Section II-B).
//
// Three implementations:
//
//   - Local: an in-process strictly-monotonic counter, the best case.
//   - Delayed: wraps another oracle with a simulated network round
//     trip, modelling a WAN-remote oracle; this is what makes the
//     paper's "bottleneck over a long-haul network" claim measurable.
//   - HTTP server/client: an actual oracle service over HTTP for
//     multi-process setups.
package oracle

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ycsbt/internal/obs"
)

// Oracle hands out strictly increasing timestamps. Implementations
// must be safe for concurrent use.
type Oracle interface {
	// Next returns a timestamp strictly greater than every timestamp
	// previously returned.
	Next(ctx context.Context) (int64, error)
}

// Local is an in-process oracle: wall-clock nanoseconds, bumped to
// stay strictly monotonic.
type Local struct {
	last atomic.Int64
}

// NewLocal returns a fresh in-process oracle.
func NewLocal() *Local { return &Local{} }

// Next implements Oracle.
func (l *Local) Next(context.Context) (int64, error) {
	for {
		phys := time.Now().UnixNano()
		last := l.last.Load()
		next := phys
		if next <= last {
			next = last + 1
		}
		if l.last.CompareAndSwap(last, next) {
			return next, nil
		}
	}
}

// Delayed wraps an oracle with a simulated round-trip time; every
// Next pays the full RTT, as a WAN client of a central oracle would.
type Delayed struct {
	inner Oracle
	rtt   time.Duration
}

// NewDelayed wraps inner with the given round-trip time.
func NewDelayed(inner Oracle, rtt time.Duration) *Delayed {
	return &Delayed{inner: inner, rtt: rtt}
}

// Next implements Oracle, paying the round trip before consulting the
// wrapped oracle.
func (d *Delayed) Next(ctx context.Context) (int64, error) {
	if d.rtt > 0 {
		t := time.NewTimer(d.rtt)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
	return d.inner.Next(ctx)
}

// Server exposes an oracle over HTTP: GET /ts → {"ts": n}. Batched
// allocation (GET /ts?n=100) lets clients amortize round trips the
// way production oracles (e.g. Percolator's) do.
type Server struct {
	inner Oracle
	mux   *http.ServeMux
	// blockMu makes a block's draws one step: two requests at once
	// would otherwise interleave theirs, and each block would hold the
	// other's timestamps.
	blockMu sync.Mutex

	// obs handles; nil (uninstrumented) handles no-op.
	mRequests   *obs.Counter
	mTimestamps *obs.Counter
}

// Instrument registers the oracle_* series on reg: allocation
// requests and timestamps handed out (the gap between the two is what
// block allocation amortizes).
func (s *Server) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Help("oracle_requests_total", "Timestamp allocation requests served.")
	reg.Help("oracle_timestamps_total", "Timestamps handed out (a batched request counts its whole block).")
	s.mRequests = reg.Counter("oracle_requests_total")
	s.mTimestamps = reg.Counter("oracle_timestamps_total")
}

// NewServer serves the given oracle.
func NewServer(inner Oracle) *Server {
	s := &Server{inner: inner, mux: http.NewServeMux()}
	s.mux.HandleFunc("/ts", s.handleTS)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

type tsResponse struct {
	// TS is the first allocated timestamp; the caller owns
	// [TS, TS+N).
	TS int64 `json:"ts"`
	N  int64 `json:"n"`
}

func (s *Server) handleTS(w http.ResponseWriter, r *http.Request) {
	n := int64(1)
	if q := r.URL.Query().Get("n"); q != "" {
		if _, err := fmt.Sscanf(q, "%d", &n); err != nil || n < 1 || n > 1<<20 {
			http.Error(w, "bad n", http.StatusBadRequest)
			return
		}
	}
	first, err := s.drawBlock(r.Context(), n)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.mRequests.Inc()
	s.mTimestamps.Add(n)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(tsResponse{TS: first, N: n})
}

// drawBlock reserves [first, first+n) under blockMu: it draws until the
// inner oracle has passed first+n-1, so every later draw lies beyond
// the block. A clock-driven oracle may jump past it in fewer than n
// draws.
func (s *Server) drawBlock(ctx context.Context, n int64) (first int64, err error) {
	s.blockMu.Lock()
	defer s.blockMu.Unlock()
	if first, err = s.inner.Next(ctx); err != nil {
		return 0, err
	}
	for last := first; last < first+n-1; {
		if last, err = s.inner.Next(ctx); err != nil {
			return 0, err
		}
	}
	return first, nil
}

// Client is an HTTP oracle client with optional block caching.
type Client struct {
	base  string
	hc    *http.Client
	batch int64

	mu     chMutex
	next   int64
	remain int64
}

// chMutex is a channel-based mutex so Lock can respect contexts.
type chMutex chan struct{}

func newChMutex() chMutex {
	m := make(chMutex, 1)
	m <- struct{}{}
	return m
}

func (m chMutex) lock(ctx context.Context) error {
	select {
	case <-m:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (m chMutex) unlock() { m <- struct{}{} }

// NewClient returns an oracle client for the server at baseURL. A
// batch > 1 prefetches blocks of timestamps, trading strictness of
// global ordering across clients for fewer round trips (Percolator
// does the same).
func NewClient(baseURL string, hc *http.Client, batch int64) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	if batch < 1 {
		batch = 1
	}
	return &Client{base: baseURL, hc: hc, batch: batch, mu: newChMutex()}
}

// Next implements Oracle.
func (c *Client) Next(ctx context.Context) (int64, error) {
	if err := c.mu.lock(ctx); err != nil {
		return 0, err
	}
	defer c.mu.unlock()
	if c.remain == 0 {
		first, n, err := c.fetch(ctx)
		if err != nil {
			return 0, err
		}
		c.next, c.remain = first, n
	}
	ts := c.next
	c.next++
	c.remain--
	return ts, nil
}

func (c *Client) fetch(ctx context.Context) (int64, int64, error) {
	u := fmt.Sprintf("%s/ts?n=%d", c.base, c.batch)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return 0, 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, 0, fmt.Errorf("oracle: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return 0, 0, fmt.Errorf("oracle: server returned %s: %s", resp.Status, body)
	}
	var tr tsResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		return 0, 0, fmt.Errorf("oracle: decoding response: %w", err)
	}
	return tr.TS, tr.N, nil
}
