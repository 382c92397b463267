package kvwire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Endpoint is the client side of the framed binary protocol for one
// server address: a pool of idle persistent connections. A request owns
// one connection from its write to its reply: Exec takes an idle
// connection (or dials one), writes its frame, reads the reply on its
// own goroutine and puts the connection back, so no goroutine hands a
// reply to another. Exec is safe for concurrent use; concurrent
// requests ride connections of their own.
type Endpoint struct {
	addr        string
	maxIdle     int
	dialTimeout time.Duration

	mu     sync.Mutex
	idle   []*clientConn            // most recently used last
	open   map[*clientConn]struct{} // dialed and not yet closed, idle or not
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

// DefaultMaxConns bounds the idle connections one endpoint keeps, the
// same as the HTTP client's idle connections per host. It does not cap
// concurrent requests: one past it dials a connection of its own, and
// the server's admission gate bounds how many run.
const DefaultMaxConns = 64

var errEndpointClosed = errors.New("kvwire: endpoint closed")

// NewEndpoint builds a client endpoint for addr (host:port) that keeps
// up to maxConns idle connections. Dialing is lazy: no connection
// exists until the first Exec.
func NewEndpoint(addr string, maxConns int) *Endpoint {
	if maxConns <= 0 {
		maxConns = DefaultMaxConns
	}
	return &Endpoint{addr: addr, maxIdle: maxConns, dialTimeout: 5 * time.Second, open: make(map[*clientConn]struct{})}
}

// Addr returns the endpoint's dial address.
func (e *Endpoint) Addr() string { return e.addr }

// Exec ships ops as one request frame and waits for its response. The
// ctx deadline rides in the frame (the server abandons work it cannot
// start in time, like the HTTP X-Deadline-Ms header), and ctx's end
// interrupts the wait.
func (e *Endpoint) Exec(ctx context.Context, ops []Op) ([]Result, error) {
	var deadlineMs uint64
	if dl, ok := ctx.Deadline(); ok {
		ms := time.Until(dl).Milliseconds()
		if ms <= 0 {
			return nil, context.DeadlineExceeded
		}
		deadlineMs = uint64(ms)
	}
	c, err := e.get(ctx)
	if err != nil {
		return nil, err
	}
	id := c.next()
	c.wbuf = AppendRequest(c.wbuf[:0], id, deadlineMs, ops)
	if err := e.send(c); err != nil {
		return nil, err
	}
	r, err := e.receive(ctx, c, id, frameResponse)
	if err != nil {
		return nil, err
	}
	if r.reqErr != nil {
		return nil, r.reqErr
	}
	return r.res, nil
}

// get takes the most recently used idle connection the peer has not
// closed, or dials a new one.
func (e *Endpoint) get(ctx context.Context) (*clientConn, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e.mu.Lock()
	for !e.closed && len(e.idle) > 0 {
		c := e.idle[len(e.idle)-1]
		e.idle = e.idle[:len(e.idle)-1]
		e.mu.Unlock()
		if c.br.Buffered() == 0 && c.peek.quiet() {
			return c, nil
		}
		e.discard(c) // a restarted peer costs a redial, not a failed call
		e.mu.Lock()
	}
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return nil, errEndpointClosed
	}
	return e.dial(ctx)
}

// dial opens and handshakes one connection and counts it open. Refused
// connections and bad magic are ErrUnavailable.
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
		conn:      conn,
		br:        br,
		peek:      newPeeker(conn),
		interrupt: func() { conn.SetDeadline(time.Unix(1, 0)) },
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		conn.Close()
		return nil, errEndpointClosed
	}
	e.open[c] = struct{}{}
	return c, nil
}

// send writes the frame in c.wbuf. A connection that failed to take it
// is closed.
func (e *Endpoint) send(c *clientConn) error {
	if _, err := c.conn.Write(c.wbuf); err != nil {
		e.discard(c)
		return fmt.Errorf("kvwire: connection failed: %w", err)
	}
	return nil
}

// receive reads the reply to request id, a frame of type want or an
// error frame, on the caller's goroutine. ctx's end interrupts the read
// by moving the connection's deadline into the past. The connection
// goes back to the pool only when its reply was read whole and ctx did
// not touch its deadline; otherwise it is closed.
func (e *Endpoint) receive(ctx context.Context, c *clientConn, id uint64, want byte) (wireReply, error) {
	stop := alwaysClean
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, c.interrupt)
	}
	r, err := c.read(id, want)
	switch {
	case !stop():
		e.discard(c)
		if err != nil {
			return r, ctx.Err()
		}
	case err != nil:
		e.discard(c)
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return r, fmt.Errorf("kvwire: connection failed: %w", err)
	default:
		e.put(c)
	}
	return r, nil
}

func alwaysClean() bool { return true }

// put returns a connection whose request is done to the idle pool, or
// closes it when the pool is full or the endpoint closed.
func (e *Endpoint) put(c *clientConn) {
	e.mu.Lock()
	if !e.closed && len(e.idle) < e.maxIdle {
		e.idle = append(e.idle, c)
		e.mu.Unlock()
		return
	}
	e.mu.Unlock()
	e.discard(c)
}

// discard closes a connection that is not to be reused.
func (e *Endpoint) discard(c *clientConn) {
	e.mu.Lock()
	delete(e.open, c)
	e.mu.Unlock()
	c.conn.Close()
}

// Close closes every open connection, idle or carrying a request:
// in-flight Execs fail, and later ones fail without dialing.
func (e *Endpoint) Close() error {
	e.mu.Lock()
	e.closed = true
	open := e.open
	e.open, e.idle = nil, nil
	e.mu.Unlock()
	for c := range open {
		c.conn.Close()
	}
	return nil
}

// wireReply is one reply: results, a scan page, or a whole-request
// error frame.
type wireReply struct {
	res    []Result
	page   scanPage
	reqErr *RequestError
}

// clientConn is one connection, owned by at most one request at a time:
// nothing in it is shared.
type clientConn struct {
	conn    net.Conn
	br      *bufio.Reader
	wbuf    []byte
	payload []byte       // the last frame read, reused unless a page kept it
	dec     fieldDecoder // responses: copied out of payload
	lastID  uint64
	peek    *peeker
	// interrupt moves conn's deadline into the past, failing a blocked
	// read; made once per connection so ctx watches allocate nothing
	// more.
	interrupt func()
}

// next returns a fresh request id for this connection.
func (c *clientConn) next() uint64 {
	c.lastID++
	return c.lastID
}

// read takes the next frame, which must answer request id with a frame
// of type want or an error frame.
func (c *clientConn) read(id uint64, want byte) (r wireReply, err error) {
	typ, got, payload, err := ReadFrame(c.br, c.payload)
	c.payload = payload
	switch {
	case err != nil:
		return r, err
	case got != id:
		return r, fmt.Errorf("kvwire: reply to request %d, want %d", got, id)
	case typ == frameError:
		status, retry, msg, err := DecodeError(payload)
		r.reqErr = &RequestError{Status: status, RetryAfter: time.Duration(retry) * time.Second, Msg: msg}
		return r, err
	case typ != want:
		return r, fmt.Errorf("kvwire: unexpected frame type %d", typ)
	case typ == framePage:
		// The page's records keep the frame buffer (their sections
		// point into it); the next frame gets a new one.
		c.payload = nil
		r.page, err = decodePage(payload)
		return r, err
	default:
		r.res, err = c.dec.response(payload, nil)
		return r, err
	}
}
