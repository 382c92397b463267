package kvwire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Endpoint is the client side of the framed binary protocol for one
// server address: a small pool of persistent connections, each
// multiplexing many in-flight requests by id. Exec is safe for
// concurrent use; requests pipeline onto the least-loaded connection
// and responses are matched back by request id, so slow requests never
// head-of-line-block fast ones.
type Endpoint struct {
	addr        string
	maxConns    int
	dialTimeout time.Duration

	mu     sync.Mutex
	conns  []*clientConn
	closed bool
}

// ErrUnavailable reports that no request was sent: the dial was refused
// or the peer does not speak the protocol (magic mismatch). Any other
// error from Exec may have left a request on the wire, so a mutation's
// outcome is unknown and it must not be blindly re-sent.
var ErrUnavailable = errors.New("kvwire: endpoint unavailable")

// RequestError is a whole-request error frame (admission shed, empty
// batch, a scan page the server could not serve); per-item failures
// ride in Results instead.
type RequestError struct {
	Status     int
	RetryAfter time.Duration
	Msg        string
}

func (e *RequestError) Error() string {
	return fmt.Sprintf("kvwire: request failed: %d %s", e.Status, e.Msg)
}

// DefaultMaxConns bounds one endpoint's connection pool. Pipelining
// does the heavy lifting; the pool only needs to cover write-lock
// contention.
const DefaultMaxConns = 4

// pipelineBound is the in-flight depth past which Exec prefers opening
// another connection over piling deeper onto an existing one.
const pipelineBound = 128

// NewEndpoint builds a client endpoint for addr (host:port). Dialing
// is lazy: no connection exists until the first Exec.
func NewEndpoint(addr string, maxConns int) *Endpoint {
	if maxConns <= 0 {
		maxConns = DefaultMaxConns
	}
	return &Endpoint{addr: addr, maxConns: maxConns, dialTimeout: 5 * time.Second}
}

// Addr returns the endpoint's dial address.
func (e *Endpoint) Addr() string { return e.addr }

// Exec ships ops as one request frame and waits for the matching
// response. The ctx deadline rides in the frame (the server abandons
// work it cannot start in time, like the HTTP X-Deadline-Ms header).
func (e *Endpoint) Exec(ctx context.Context, ops []Op) ([]Result, error) {
	c, err := e.pick(ctx)
	if err != nil {
		return nil, err
	}
	var deadlineMs uint64
	if dl, ok := ctx.Deadline(); ok {
		ms := time.Until(dl).Milliseconds()
		if ms <= 0 {
			return nil, context.DeadlineExceeded
		}
		deadlineMs = uint64(ms)
	}
	reply := make(chan wireReply, 1)
	id := c.register(reply)
	if err := c.writeRequest(id, deadlineMs, ops); err != nil {
		c.fail(err)
		e.drop(c)
		return nil, err
	}
	select {
	case r := <-reply:
		if r.err != nil {
			e.drop(c)
			return nil, r.err
		}
		if r.reqErr != nil {
			return nil, r.reqErr
		}
		return r.res, nil
	case <-ctx.Done():
		c.unregister(id)
		return nil, ctx.Err()
	}
}

// pick returns a live connection, preferring the least-loaded one and
// dialing a new one while the pool is shallow or every conn is past
// the pipeline bound.
func (e *Endpoint) pick(ctx context.Context) (*clientConn, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, errors.New("kvwire: endpoint closed")
	}
	var best *clientConn
	for _, c := range e.conns {
		if c.dead.Load() {
			continue
		}
		if best == nil || c.inflight.Load() < best.inflight.Load() {
			best = c
		}
	}
	if best != nil && (len(e.conns) >= e.maxConns || best.inflight.Load() < pipelineBound) {
		e.mu.Unlock()
		return best, nil
	}
	e.mu.Unlock()

	c, err := e.dial(ctx)
	if err != nil {
		if best != nil {
			return best, nil // a live conn beats a failed dial
		}
		return nil, err
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		c.conn.Close()
		return nil, errors.New("kvwire: endpoint closed")
	}
	e.conns = append(e.conns, c)
	e.mu.Unlock()
	return c, nil
}

// dial opens and handshakes one connection. Refused connections and
// bad magic are ErrUnavailable.
func (e *Endpoint) dial(ctx context.Context) (*clientConn, error) {
	d := net.Dialer{Timeout: e.dialTimeout}
	conn, err := d.DialContext(ctx, "tcp", e.addr)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	conn.SetDeadline(time.Now().Add(e.dialTimeout))
	if _, err := conn.Write([]byte(Magic)); err != nil {
		conn.Close()
		return nil, fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	// One buffered reader serves the handshake echo and every frame
	// after it: a frame's header and payload (and whatever the peer
	// coalesced behind them) arrive in one read of the socket.
	br := bufio.NewReader(conn)
	var echo [len(Magic)]byte
	if _, err := io.ReadFull(br, echo[:]); err != nil || string(echo[:]) != Magic {
		conn.Close()
		return nil, fmt.Errorf("%w: bad handshake", ErrUnavailable)
	}
	conn.SetDeadline(time.Time{})
	c := &clientConn{
		conn:    conn,
		br:      br,
		pending: make(map[uint64]chan<- wireReply),
	}
	go c.readLoop()
	return c, nil
}

// drop removes a failed connection from the pool.
func (e *Endpoint) drop(c *clientConn) {
	c.dead.Store(true)
	e.mu.Lock()
	for i, cc := range e.conns {
		if cc == c {
			e.conns = append(e.conns[:i], e.conns[i+1:]...)
			break
		}
	}
	e.mu.Unlock()
	c.conn.Close()
}

// Close tears down every connection; in-flight Execs fail.
func (e *Endpoint) Close() error {
	e.mu.Lock()
	e.closed = true
	conns := e.conns
	e.conns = nil
	e.mu.Unlock()
	for _, c := range conns {
		c.fail(errors.New("kvwire: endpoint closed"))
		c.conn.Close()
	}
	return nil
}

// wireReply is one matched reply: results, a scan page, a
// whole-request error frame, or a connection failure.
type wireReply struct {
	res    []Result
	page   *scanPage
	reqErr *RequestError
	err    error
}

type clientConn struct {
	conn net.Conn
	br   *bufio.Reader // read side of conn; owned by readLoop

	wmu  sync.Mutex
	wbuf []byte

	mu      sync.Mutex
	pending map[uint64]chan<- wireReply
	nextID  uint64

	inflight atomic.Int64
	dead     atomic.Bool
}

func (c *clientConn) register(reply chan<- wireReply) uint64 {
	c.mu.Lock()
	c.nextID++
	id := c.nextID
	c.pending[id] = reply
	c.mu.Unlock()
	c.inflight.Add(1)
	return id
}

func (c *clientConn) unregister(id uint64) {
	c.mu.Lock()
	if _, ok := c.pending[id]; ok {
		delete(c.pending, id)
		c.inflight.Add(-1)
	}
	c.mu.Unlock()
}

func (c *clientConn) writeRequest(id uint64, deadlineMs uint64, ops []Op) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf = AppendRequest(c.wbuf[:0], id, deadlineMs, ops)
	_, err := c.conn.Write(c.wbuf)
	return err
}

func (c *clientConn) writeScanRequest(id uint64, req *ScanRequest) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf = AppendScanRequest(c.wbuf[:0], id, req)
	_, err := c.conn.Write(c.wbuf)
	return err
}

// readLoop owns the read side: match reply frames to waiters until the
// connection dies, then fail whoever is left.
func (c *clientConn) readLoop() {
	var payload []byte
	var dec fieldDecoder // responses: copied out of payload
	for {
		typ, id, p, err := ReadFrame(c.br, payload)
		if err != nil {
			c.fail(err)
			return
		}
		payload = p
		var reply wireReply
		switch typ {
		case frameResponse:
			res, err := dec.response(payload, nil)
			if err != nil {
				c.fail(err)
				return
			}
			reply.res = res
		case frameError:
			status, retry, msg, err := DecodeError(payload)
			if err != nil {
				c.fail(err)
				return
			}
			reply.reqErr = &RequestError{Status: status, RetryAfter: time.Duration(retry) * time.Second, Msg: msg}
		case framePage:
			p, err := decodePage(payload)
			if err != nil {
				c.fail(err)
				return
			}
			// The page's records keep the frame buffer (their sections
			// point into it); the next frame gets a new one.
			reply.page, payload = &p, nil
		default:
			c.fail(fmt.Errorf("kvwire: unexpected frame type %d", typ))
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[id]
		if ok {
			delete(c.pending, id)
		}
		c.mu.Unlock()
		if ok {
			c.inflight.Add(-1)
			ch <- reply
		}
	}
}

// fail marks the conn dead and answers every pending request with err.
func (c *clientConn) fail(err error) {
	c.dead.Store(true)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	c.mu.Lock()
	pending := c.pending
	c.pending = make(map[uint64]chan<- wireReply)
	c.mu.Unlock()
	for _, ch := range pending {
		c.inflight.Add(-1)
		ch <- wireReply{err: fmt.Errorf("kvwire: connection failed: %w", err)}
	}
}
