//go:build !(linux || darwin || freebsd || netbsd || openbsd || dragonfly)

package connpool

import "net"

// peeker is a no-op where a non-blocking MSG_PEEK is not available: an
// idle connection the peer has closed fails its next request instead of
// being redialed.
type peeker struct{}

func newPeeker(net.Conn) *peeker { return nil }

func (*peeker) quiet() bool { return true }
