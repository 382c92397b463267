package kvwire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"ycsbt/internal/connpool"
)

// Endpoint is the client side of the framed binary protocol for one
// server address: a pool of idle persistent connections
// (connpool.Pool). A request owns one connection from its write to its
// reply: Exec takes an idle connection (or dials one), writes its
// frame, reads the reply on its own goroutine and puts the connection
// back, so no goroutine hands a reply to another. Exec is safe for
// concurrent use; concurrent requests ride connections of their own.
type Endpoint struct {
	pool *connpool.Pool[frameConn]
}

// clientConn is one pooled connection with its frame state.
type clientConn = connpool.Conn[frameConn]

// ErrUnavailable reports that no request was sent: the dial was refused
// or the peer does not speak the protocol (magic mismatch). Any other
// error from Exec may have left a request on the wire, so a mutation's
// outcome is unknown and it must not be blindly re-sent.
var ErrUnavailable = connpool.ErrUnavailable

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
// same as the REST client's. It does not cap concurrent requests: one
// past it dials a connection of its own, and the server's admission
// gate bounds how many run.
const DefaultMaxConns = 64

// NewEndpoint builds a client endpoint for addr (host:port) that keeps
// up to maxConns idle connections. Dialing is lazy: no connection
// exists until the first Exec.
func NewEndpoint(addr string, maxConns int) *Endpoint {
	if maxConns <= 0 {
		maxConns = DefaultMaxConns
	}
	return &Endpoint{pool: connpool.New[frameConn](addr, maxConns, handshake)}
}

// handshake writes the magic and expects it echoed back.
func handshake(conn net.Conn, br *bufio.Reader) error {
	if _, err := conn.Write([]byte(Magic)); err != nil {
		return err
	}
	var echo [len(Magic)]byte
	if _, err := io.ReadFull(br, echo[:]); err != nil || string(echo[:]) != Magic {
		return errors.New("bad handshake")
	}
	return nil
}

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
	c, err := e.pool.Get(ctx)
	if err != nil {
		return nil, err
	}
	id := c.S.next()
	c.S.wbuf = AppendRequest(c.S.wbuf[:0], id, deadlineMs, ops)
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

// send writes the frame in c's write buffer. A connection that failed
// to take it is closed.
func (e *Endpoint) send(c *clientConn) error {
	if _, err := c.Write(c.S.wbuf); err != nil {
		e.pool.Discard(c)
		return fmt.Errorf("kvwire: connection failed: %w", err)
	}
	return nil
}

// receive reads the reply to request id, a frame of type want or an
// error frame, on the caller's goroutine. ctx's end interrupts the read;
// the connection goes back to the pool only when its reply was read
// whole and ctx did not touch it (connpool.Pool.Release).
func (e *Endpoint) receive(ctx context.Context, c *clientConn, id uint64, want byte) (wireReply, error) {
	stop := c.Watch(ctx)
	r, err := c.S.read(c.R, id, want)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		err = fmt.Errorf("kvwire: connection failed: %w", err)
	}
	return r, e.pool.Release(ctx, c, stop, err, true)
}

// Close closes every open connection, idle or carrying a request:
// in-flight Execs fail, and later ones fail without dialing.
func (e *Endpoint) Close() error { return e.pool.Close() }

// wireReply is one reply: results, a scan page, or a whole-request
// error frame.
type wireReply struct {
	res    []Result
	page   scanPage
	reqErr *RequestError
}

// frameConn is a connection's frame state, owned with the connection
// by at most one request at a time: nothing in it is shared.
type frameConn struct {
	wbuf    []byte
	payload []byte       // the last frame read, reused unless a page kept it
	dec     fieldDecoder // responses: copied out of payload
	lastID  uint64
}

// next returns a fresh request id for this connection.
func (c *frameConn) next() uint64 {
	c.lastID++
	return c.lastID
}

// read takes the next frame, which must answer request id with a frame
// of type want or an error frame.
func (c *frameConn) read(br *bufio.Reader, id uint64, want byte) (r wireReply, err error) {
	typ, got, payload, err := ReadFrame(br, c.payload)
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
