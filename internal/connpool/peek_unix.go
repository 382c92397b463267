//go:build linux || darwin || freebsd || netbsd || openbsd || dragonfly

package connpool

import (
	"net"
	"syscall"
)

// peeker tells whether an idle connection is still usable without
// blocking: a MSG_PEEK read that would block means the peer has neither
// closed it nor written to it unasked.
type peeker struct {
	rc  syscall.RawConn
	fn  func(fd uintptr) bool // made once, so a peek allocates nothing
	err error
	b   [1]byte
}

func newPeeker(conn net.Conn) *peeker {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return nil
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return nil
	}
	p := &peeker{rc: rc}
	p.fn = func(fd uintptr) bool {
		_, _, p.err = syscall.Recvfrom(int(fd), p.b[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
		return true
	}
	return p
}

// quiet reports whether the connection has nothing to read and no EOF
// pending. A connection that cannot be peeked counts as quiet.
func (p *peeker) quiet() bool {
	if p == nil {
		return true
	}
	if err := p.rc.Read(p.fn); err != nil {
		return false
	}
	return p.err == syscall.EAGAIN || p.err == syscall.EWOULDBLOCK
}
