package connpool

import (
	"bufio"
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

// lineServer is an in-process TCP server speaking one line at a time:
// "ping" answers "pong", anything else answers nothing. Every
// connection it sees end from the client side is signalled on gone.
type lineServer struct {
	ln   net.Listener
	gone chan struct{}

	mu    sync.Mutex
	conns []net.Conn
}

func startLineServer(t *testing.T) *lineServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &lineServer{ln: ln, gone: make(chan struct{}, 64)}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns = append(s.conns, conn)
			s.mu.Unlock()
			go s.serve(conn)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		s.dropAll()
	})
	return s
}

func (s *lineServer) serve(conn net.Conn) {
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	for sc.Scan() {
		if sc.Text() == "ping" {
			conn.Write([]byte("pong\n"))
		}
	}
	if sc.Err() == nil { // EOF: the client closed it
		s.gone <- struct{}{}
	}
}

// dropAll closes every connection from the server side.
func (s *lineServer) dropAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.conns {
		c.Close()
	}
	s.conns = nil
}

// waitGone waits for n connections to be closed by the client.
func (s *lineServer) waitGone(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-s.gone:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d connections still open at the server", n-i, n)
		}
	}
}

type pool = Pool[struct{}]

func newPool(s *lineServer, maxIdle int) *pool {
	return New[struct{}](s.ln.Addr().String(), maxIdle, nil)
}

// ping runs one request on a connection the caller holds.
func ping(c *Conn[struct{}]) error {
	if _, err := c.Write([]byte("ping\n")); err != nil {
		return err
	}
	line, err := c.R.ReadString('\n')
	if err == nil && line != "pong\n" {
		err = errors.New("reply " + line)
	}
	return err
}

// request takes a connection, pings on it and releases it.
func request(t *testing.T, p *pool) {
	t.Helper()
	ctx := context.Background()
	c, err := p.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	stop := c.Watch(ctx)
	if err := p.Release(ctx, c, stop, ping(c), true); err != nil {
		t.Fatal(err)
	}
}

func counts(t *testing.T, p *pool, open, idle int) {
	t.Helper()
	if o, i := p.Counts(); o != open || i != idle {
		t.Errorf("Counts = %d open, %d idle; want %d, %d", o, i, open, idle)
	}
}

func TestSequentialRequestsReuseOneConn(t *testing.T) {
	p := newPool(startLineServer(t), 2)
	defer p.Close()
	for i := 0; i < 5; i++ {
		request(t, p)
	}
	if d := p.Dials(); d != 1 {
		t.Errorf("Dials = %d, want 1", d)
	}
	counts(t, p, 1, 1)
}

func TestReleasePastMaxIdleCloses(t *testing.T) {
	s := startLineServer(t)
	p := newPool(s, 1)
	defer p.Close()
	ctx := context.Background()
	var held []*Conn[struct{}]
	for i := 0; i < 3; i++ {
		c, err := p.Get(ctx)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, c)
	}
	counts(t, p, 3, 0)
	for _, c := range held {
		if err := p.Release(ctx, c, c.Watch(ctx), ping(c), true); err != nil {
			t.Fatal(err)
		}
	}
	counts(t, p, 1, 1)
	s.waitGone(t, 2)
}

func TestGetRedialsIdleConnPeerClosed(t *testing.T) {
	s := startLineServer(t)
	p := newPool(s, 2)
	defer p.Close()
	request(t, p)
	if p.idle[0].peek == nil {
		t.Skip("no non-blocking peek on this platform: a closed idle connection fails its next request")
	}
	s.dropAll()
	// The FIN reaches the idle connection asynchronously: wait until a
	// peek sees it, so the request below meets a closed connection.
	deadline := time.Now().Add(5 * time.Second)
	for p.idle[0].peek.quiet() {
		if time.Now().After(deadline) {
			t.Fatal("the server's close never reached the idle connection")
		}
		time.Sleep(time.Millisecond)
	}
	request(t, p) // must not fail: the closed idle connection is redialed
	if d := p.Dials(); d != 2 {
		t.Errorf("Dials = %d, want 2", d)
	}
	counts(t, p, 1, 1)
}

func TestReleaseDiscards(t *testing.T) {
	for _, tc := range []struct {
		name  string
		err   error
		reuse bool
	}{
		{"error", errors.New("bad reply"), true},
		{"noreuse", nil, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := startLineServer(t)
			p := newPool(s, 2)
			defer p.Close()
			ctx := context.Background()
			c, err := p.Get(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Release(ctx, c, c.Watch(ctx), tc.err, tc.reuse); err != tc.err {
				t.Errorf("Release = %v, want %v", err, tc.err)
			}
			counts(t, p, 0, 0)
			s.waitGone(t, 1)
		})
	}
}

func TestWatchInterruptsBlockedRead(t *testing.T) {
	p := newPool(startLineServer(t), 2)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c, err := p.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	stop := c.Watch(ctx)
	if _, err := c.Write([]byte("hold\n")); err != nil { // answered by nothing
		t.Fatal(err)
	}
	time.AfterFunc(20*time.Millisecond, cancel)
	done := make(chan error, 1)
	go func() {
		_, err := c.R.ReadString('\n')
		done <- err
	}()
	var readErr error
	select {
	case readErr = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the ended ctx did not interrupt the blocked read")
	}
	if readErr == nil {
		t.Fatal("blocked read returned no error")
	}
	if err := p.Release(ctx, c, stop, readErr, true); !errors.Is(err, context.Canceled) {
		t.Errorf("Release = %v, want ctx.Err()", err)
	}
	counts(t, p, 0, 0)
}

func TestHandshakeFailureLeavesNothingOpen(t *testing.T) {
	s := startLineServer(t)
	p := New[struct{}](s.ln.Addr().String(), 2, func(net.Conn, *bufio.Reader) error {
		return errors.New("bad magic")
	})
	defer p.Close()
	if _, err := p.Get(context.Background()); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Get = %v, want ErrUnavailable", err)
	}
	counts(t, p, 0, 0)
	s.waitGone(t, 1)
}

func TestCloseFailsGetAndClosesInFlight(t *testing.T) {
	p := newPool(startLineServer(t), 2)
	ctx := context.Background()
	request(t, p) // one idle
	c, err := p.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	other, err := p.Get(ctx) // one more, dialed: two in flight
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	if _, err := p.Get(ctx); !errors.Is(err, ErrClosed) {
		t.Errorf("Get after Close = %v, want ErrClosed", err)
	}
	for _, conn := range []*Conn[struct{}]{c, other} {
		if err := ping(conn); !errors.Is(err, net.ErrClosed) {
			t.Errorf("request on an in-flight connection after Close = %v, want net.ErrClosed", err)
		}
	}
	counts(t, p, 0, 0)
}
