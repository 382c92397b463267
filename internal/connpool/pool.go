// Package connpool keeps the idle persistent connections to one server
// address for a protocol in which a request owns its connection from
// its write to its reply. The goroutine that sends a request is the one
// that reads the reply, so no goroutine hands a reply to another; a
// connection goes back to the pool once its reply has been read whole.
//
// Both data planes hold one: the framed binary protocol (kvwire, with
// its magic handshake) and the REST exchange of the rawhttp binding
// (httpkv, no handshake).
package connpool

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ErrUnavailable reports that no request was sent: the dial was
// refused or the handshake failed.
var ErrUnavailable = errors.New("connpool: endpoint unavailable")

// ErrClosed reports a request on a pool that Close has closed.
var ErrClosed = errors.New("connpool: pool closed")

// dialTimeout bounds a dial and its handshake.
const dialTimeout = 5 * time.Second

// Conn is one connection, owned by at most one request at a time. S is
// the protocol's own state for it (write buffer, request ids, ...),
// zero when the connection is dialed.
type Conn[S any] struct {
	net.Conn
	R *bufio.Reader // every read of the connection goes through R
	S S

	peek *peeker
	// interrupt moves the deadline into the past, failing a blocked
	// read or write; made once per connection so ctx watches allocate
	// nothing more.
	interrupt func()
}

// Pool is the set of connections to one address.
type Pool[S any] struct {
	addr      string
	maxIdle   int
	handshake func(net.Conn, *bufio.Reader) error
	dials     atomic.Int64

	mu     sync.Mutex
	idle   []*Conn[S]            // most recently used last
	open   map[*Conn[S]]struct{} // dialed and not yet closed, idle or not
	closed bool
}

// New returns a pool for addr (host:port) that keeps up to maxIdle idle
// connections. It does not cap concurrent requests: one past maxIdle
// dials a connection of its own. handshake, when non-nil, runs on every
// new connection before its first request, reading through the
// connection's buffered reader. Dialing is lazy.
func New[S any](addr string, maxIdle int, handshake func(net.Conn, *bufio.Reader) error) *Pool[S] {
	return &Pool[S]{addr: addr, maxIdle: maxIdle, handshake: handshake, open: make(map[*Conn[S]]struct{})}
}

// Dials reports how many connections the pool has opened.
func (p *Pool[S]) Dials() int64 { return p.dials.Load() }

// Counts reports the connections open (idle or carrying a request) and
// idle.
func (p *Pool[S]) Counts() (open, idle int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.open), len(p.idle)
}

// Get takes the most recently used idle connection the peer has not
// closed, or dials a new one. A peer that closed an idle connection
// (a restarted server) costs a redial, not a failed request. Errors
// are ctx's, ErrClosed, or ErrUnavailable wrapping the dial's.
func (p *Pool[S]) Get(ctx context.Context) (*Conn[S], error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p.mu.Lock()
	for !p.closed && len(p.idle) > 0 {
		c := p.idle[len(p.idle)-1]
		p.idle = p.idle[:len(p.idle)-1]
		p.mu.Unlock()
		if c.R.Buffered() == 0 && c.peek.quiet() {
			return c, nil
		}
		p.Discard(c)
		p.mu.Lock()
	}
	closed := p.closed
	p.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	return p.dial(ctx)
}

// dial opens one connection, runs the handshake and counts it open.
func (p *Pool[S]) dial(ctx context.Context) (*Conn[S], error) {
	d := net.Dialer{Timeout: dialTimeout}
	conn, err := d.DialContext(ctx, "tcp", p.addr)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	p.dials.Add(1)
	// One buffered reader serves the handshake and every reply after
	// it: a reply's head and body (and whatever the peer coalesced
	// behind them) arrive in one read of the socket.
	br := bufio.NewReader(conn)
	if p.handshake != nil {
		conn.SetDeadline(time.Now().Add(dialTimeout))
		if err := p.handshake(conn, br); err != nil {
			conn.Close()
			return nil, fmt.Errorf("%w: %v", ErrUnavailable, err)
		}
		conn.SetDeadline(time.Time{})
	}
	c := &Conn[S]{
		Conn:      conn,
		R:         br,
		peek:      newPeeker(conn),
		interrupt: func() { conn.SetDeadline(time.Unix(1, 0)) },
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		conn.Close()
		return nil, ErrClosed
	}
	p.open[c] = struct{}{}
	return c, nil
}

// Watch makes ctx's end interrupt c's blocked reads and writes by
// moving its deadline into the past. The returned stop disarms the
// watch and reports whether ctx left c untouched; Release takes it.
func (c *Conn[S]) Watch(ctx context.Context) (stop func() bool) {
	if ctx.Done() == nil {
		return alwaysClean
	}
	return context.AfterFunc(ctx, c.interrupt)
}

func alwaysClean() bool { return true }

// Release ends the request holding c. stop is c's Watch; err is the
// request's own outcome and reuse whether the protocol allows another
// request on c. c goes back to the pool only when the request succeeded,
// reuse holds and ctx did not touch c; otherwise c is closed. The result
// is ctx's error when ctx interrupted a failed request, err otherwise.
func (p *Pool[S]) Release(ctx context.Context, c *Conn[S], stop func() bool, err error, reuse bool) error {
	switch {
	case !stop():
		p.Discard(c)
		if err != nil {
			return ctx.Err()
		}
	case err != nil || !reuse:
		p.Discard(c)
	default:
		p.put(c)
	}
	return err
}

// put returns a connection whose request is done to the idle pool, or
// closes it when the pool is full or closed.
func (p *Pool[S]) put(c *Conn[S]) {
	p.mu.Lock()
	if !p.closed && len(p.idle) < p.maxIdle {
		p.idle = append(p.idle, c)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	p.Discard(c)
}

// Discard closes a connection that is not to be reused: one whose
// request failed, or that a request abandoned with its reply unread.
func (p *Pool[S]) Discard(c *Conn[S]) {
	p.mu.Lock()
	delete(p.open, c)
	p.mu.Unlock()
	c.Close()
}

// Close closes every open connection, idle or carrying a request:
// requests in flight fail, and later ones fail without dialing.
func (p *Pool[S]) Close() error {
	p.mu.Lock()
	p.closed = true
	open := p.open
	p.open, p.idle = nil, nil
	p.mu.Unlock()
	for c := range open {
		c.Close()
	}
	return nil
}
