package httpkv

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http/httputil"
	"net/url"
	"strconv"
	"strings"
	"time"

	"ycsbt/internal/cluster"
	"ycsbt/internal/connpool"
	"ycsbt/internal/kvstore"
	"ycsbt/internal/kvwire"
)

// The REST exchange, the one HTTP client of this package: it carries
// the data plane (record requests, scan pages, /v1/ts) and the control
// plane (the frame-listener probe, the shard map, migration) alike. A
// request owns one pooled connection (connpool.Pool, as a frame does)
// from its write to its reply: the request is written from the
// connection's reused buffer, and the reply is read on the caller's
// goroutine — the status line, the few headers the client uses, and
// the body into a pooled buffer. No goroutine hands a request or a
// reply to another.
//
// The exchange speaks the HTTP/1.1 that httpkv's server answers, and
// refuses anything else loudly instead of guessing: a reply head line
// longer than the connection's read buffer (bufio's default 4096
// bytes), more than maxHeadLines lines, a body past maxReplyBody, a
// Transfer-Encoding other than a lone "chunked" (or one beside a
// Content-Length), a trailer, or an informational (1xx) status is an
// error, and the connection is closed. A reply that is HTTP/1.0, says
// "Connection: close" or ends at EOF is used and its connection closed,
// never pooled.

const (
	// maxHeadLines bounds the lines of one reply head.
	maxHeadLines = 64
	// maxReplyBody bounds one reply body, declared or read.
	maxReplyBody = 64 << 20
)

var errReplyTooLarge = errors.New("reply body past the client's cap")

// restEndpoint is where a Client sends its REST requests: the pool of
// connections to the base URL's host, and the URL's parts a request
// line needs.
type restEndpoint struct {
	pool   *connpool.Pool[restConn]
	host   string // the Host header: the base URL's host:port
	prefix string // the base URL's escaped path, no trailing slash
}

// newRESTEndpoint parses base, which must be http://host:port[/prefix]:
// no TLS, no credentials, no query, and no proxy (the environment's
// HTTP_PROXY is not consulted).
func newRESTEndpoint(base string) (*restEndpoint, error) {
	u, err := url.Parse(base)
	if err == nil && (u.Scheme != "http" || u.Opaque != "" || u.User != nil || u.Port() == "" || u.Hostname() == "" ||
		u.RawQuery != "" || u.ForceQuery || u.Fragment != "") {
		err = errors.New("wrong form")
	}
	if err != nil {
		return nil, fmt.Errorf("httpkv: server URL %q is not http://host:port[/prefix]: %v", base, err)
	}
	return &restEndpoint{
		pool:   connpool.New[restConn](u.Host, poolSize, nil),
		host:   u.Host,
		prefix: strings.TrimRight(u.EscapedPath(), "/"),
	}, nil
}

// restConn is a connection's REST state, owned with the connection by
// at most one request at a time.
type restConn struct {
	wbuf []byte
	head restHead
}

// restHead is what the client reads of a reply's head. The header
// values are the first of each name, in buffers the connection reuses.
type restHead struct {
	status     int
	etag       []byte
	owner      []byte // X-Shard-Owner
	mapVersion []byte // X-Shard-Map-Version
	wire       []byte // X-KV-Wire
	keepAlive  bool   // HTTP/1.1, no "Connection: close", body not ended by EOF
}

// request is one REST request, method path[?query] with a JSON body
// when body is non-nil. A record request's path is /v1/table[/key],
// with the conditional-write headers when cond is set, and its status
// is mapped to the db layer's errors. A control request names its path
// outright, and its reply comes back whatever its status, for the
// caller to read.
type request struct {
	method string
	table  string
	key    string // "" for a scan page or /v1/ts
	path   string // a control request's path, already escaped; "" for a record request
	query  string // already escaped
	cond   bool
	expect uint64 // If-Match version, or kvstore.MustNotExist for If-None-Match: *
	mapCAS int64  // the shard-map install's predecessor version (cluster.HeaderMapCAS), when > 0
	// unbounded lifts requestTimeout, so ctx alone bounds the exchange:
	// a migration's copy and drop take as long as the slot is large.
	unbounded bool
	body      []byte
}

// reply is an answer: its body in a pooled buffer (nil when empty;
// release with putBodyBuf) and its ETag. A record request's reply is a
// 200 or 204; a control request's carries its status and headers.
type reply struct {
	body    *bytes.Buffer
	version uint64
	tagged  bool // the reply carried a numeric ETag

	status     int
	mapVersion int64  // X-Shard-Map-Version
	wire       string // X-KV-Wire
}

// bytes returns the reply body, empty when there is none.
func (r *reply) bytes() []byte {
	if r.body == nil {
		return nil
	}
	return r.body.Bytes()
}

// roundTrip sends r and reads its reply on the caller's goroutine, all
// of it bounded by requestTimeout unless r is unbounded. The ctx
// deadline rides as X-Deadline-Ms, and ctx's end interrupts the
// exchange, which then returns ctx's error and closes the connection.
// A record request's status other than 200 and 204 is mapped through
// wireResultErr, the status table both planes share; a 410 keeps the
// responder's owner hint and map version. No HTTP route sheds load, so
// a 429 is not retried here; it surfaces as db.ErrThrottled (frames
// retry theirs, see Client.exec).
func (e *restEndpoint) roundTrip(ctx context.Context, r *request) (reply, error) {
	var deadlineMs int64
	if dl, ok := ctx.Deadline(); ok {
		if deadlineMs = time.Until(dl).Milliseconds(); deadlineMs <= 0 {
			return reply{}, context.DeadlineExceeded
		}
	}
	c, err := e.pool.Get(ctx)
	if err != nil {
		return reply{}, fmt.Errorf("httpkv: %w", err)
	}
	// The bound covers the write and the whole reply. An idle
	// connection outliving it is dropped by the pool's liveness check
	// and redialed.
	if r.unbounded {
		c.SetDeadline(time.Time{})
	} else {
		c.SetDeadline(time.Now().Add(requestTimeout))
	}
	stop := c.Watch(ctx)
	c.S.wbuf = appendRequest(c.S.wbuf[:0], e.host, e.prefix, r, deadlineMs)
	var rep reply
	if _, err = c.Write(c.S.wbuf); err == nil {
		rep.body, err = readResponse(c.R, &c.S.head)
	}
	h := &c.S.head
	var status error
	if err != nil {
		// One of table and path is empty.
		err = fmt.Errorf("httpkv: %s %s%s: connection failed: %w", r.method, r.table, r.path, err)
	} else if r.path != "" {
		rep.status = h.status
		rep.mapVersion, _ = strconv.ParseInt(string(h.mapVersion), 10, 64)
		rep.wire = string(h.wire)
	} else if h.status != 200 && h.status != 204 {
		status = statusErr(h, rep.bytes())
		putBodyBuf(rep.body)
		rep.body = nil
	} else if v, perr := strconv.ParseUint(string(h.etag), 10, 64); perr == nil {
		rep.version, rep.tagged = v, true
	}
	if err = e.pool.Release(ctx, c, stop, err, h.keepAlive); err != nil {
		putBodyBuf(rep.body)
		return reply{}, err
	}
	return rep, status
}

// statusErr maps an error reply to its error (wireResultErr); the head
// of the body is the message.
func statusErr(h *restHead, body []byte) error {
	ver, _ := strconv.ParseInt(string(h.mapVersion), 10, 64)
	return wireResultErr(kvwire.Result{
		Status:     h.status,
		Err:        string(bytes.TrimSpace(body[:min(len(body), 512)])),
		Owner:      string(h.owner),
		MapVersion: ver,
	})
}

// appendRequest writes r's request line, headers and body. Table and
// key are path-escaped, so no byte of either can end the line or start
// a header.
func appendRequest(b []byte, host, prefix string, r *request, deadlineMs int64) []byte {
	b = append(b, r.method...)
	b = append(b, ' ')
	b = append(b, prefix...)
	if r.path != "" {
		b = append(b, r.path...)
	} else {
		b = append(b, "/v1/"...)
		b = append(b, url.PathEscape(r.table)...)
		if r.key != "" {
			b = append(b, '/')
			b = append(b, url.PathEscape(r.key)...)
		}
	}
	if r.query != "" {
		b = append(b, '?')
		b = append(b, r.query...)
	}
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, host...)
	if deadlineMs > 0 {
		b = append(b, "\r\n"+DeadlineHeader+": "...)
		b = strconv.AppendInt(b, deadlineMs, 10)
	}
	if r.cond {
		if r.expect == kvstore.MustNotExist {
			b = append(b, "\r\nIf-None-Match: *"...)
		} else {
			b = append(b, "\r\nIf-Match: "...)
			b = strconv.AppendUint(b, r.expect, 10)
		}
	}
	if r.mapCAS > 0 {
		b = append(b, "\r\n"+cluster.HeaderMapCAS+": "...)
		b = strconv.AppendInt(b, r.mapCAS, 10)
	}
	if r.body != nil {
		b = append(b, "\r\nContent-Type: application/json\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(r.body)), 10)
	}
	b = append(b, "\r\n\r\n"...)
	return append(b, r.body...)
}

// readResponse reads one reply off br: its head into h, its body into a
// pooled buffer (nil when the body is empty). Any error leaves br
// mid-reply, so the connection must be closed.
func readResponse(br *bufio.Reader, h *restHead) (*bytes.Buffer, error) {
	line, err := readLine(br)
	if err != nil {
		return nil, err
	}
	proto11 := bytes.HasPrefix(line, []byte("HTTP/1.1 "))
	if !proto11 && !bytes.HasPrefix(line, []byte("HTTP/1.0 ")) {
		return nil, malformed("status line", line)
	}
	code := line[len("HTTP/1.x "):]
	if len(code) < 3 || len(code) > 3 && code[3] != ' ' || !isDigit(code[0]) || !isDigit(code[1]) || !isDigit(code[2]) {
		return nil, malformed("status line", line)
	}
	h.status = int(code[0]-'0')*100 + int(code[1]-'0')*10 + int(code[2]-'0')
	if h.status < 200 || h.status > 599 {
		return nil, malformed("status line", line)
	}
	h.etag, h.owner, h.mapVersion, h.wire, h.keepAlive = h.etag[:0], h.owner[:0], h.mapVersion[:0], h.wire[:0], proto11
	var gotETag, gotOwner, gotMapVersion, gotWire, gotLength, chunked bool
	length := int64(-1)
	for n := 0; ; n++ {
		if line, err = readLine(br); err != nil {
			return nil, err
		}
		if len(line) == 0 {
			break
		}
		if n == maxHeadLines {
			return nil, errors.New("reply head has too many lines")
		}
		name, value, ok := bytes.Cut(line, []byte(":"))
		if !ok || !isToken(name) || !isFieldValue(value) {
			return nil, malformed("header line", line)
		}
		value = bytes.Trim(value, " \t")
		switch {
		case asciiFold(name, "Content-Length"):
			if gotLength {
				return nil, malformed("header line", line)
			}
			gotLength = true
			if length, err = parseLength(value); err != nil {
				return nil, err
			}
		case asciiFold(name, "Transfer-Encoding"):
			if chunked || !proto11 || !asciiFold(value, "chunked") {
				return nil, malformed("header line", line)
			}
			chunked = true
		case asciiFold(name, "Trailer"):
			return nil, malformed("header line", line)
		case asciiFold(name, "Connection"):
			h.keepAlive = h.keepAlive && asciiFold(value, "keep-alive")
		case asciiFold(name, "ETag"):
			if !gotETag {
				h.etag, gotETag = append(h.etag, value...), true
			}
		case asciiFold(name, cluster.HeaderOwner):
			if !gotOwner {
				h.owner, gotOwner = append(h.owner, value...), true
			}
		case asciiFold(name, cluster.HeaderMapVersion):
			if !gotMapVersion {
				h.mapVersion, gotMapVersion = append(h.mapVersion, value...), true
			}
		case asciiFold(name, WireAddrHeader):
			if !gotWire {
				h.wire, gotWire = append(h.wire, value...), true
			}
		}
	}
	switch {
	case chunked && gotLength:
		return nil, errors.New("reply has both Content-Length and Transfer-Encoding")
	case h.status == 204 || h.status == 304:
		if chunked || length > 0 {
			return nil, fmt.Errorf("a %d reply declares a body", h.status)
		}
		return nil, nil
	case length == 0:
		return nil, nil
	case length > 0:
		// The buffer grows a bounded step at a time, so a length a peer
		// declares costs memory only as its bytes arrive.
		buf := getBodyBuf()
		for n := int(length); n > 0; {
			step := min(n, 256<<10)
			buf.Grow(step)
			b := buf.AvailableBuffer()[:step]
			if _, err := io.ReadFull(br, b); err != nil {
				putBodyBuf(buf)
				return nil, noEOF(err)
			}
			buf.Write(b)
			n -= step
		}
		return buf, nil
	}
	// A chunked body, or (no length) one that runs to EOF.
	var src io.Reader = br
	if chunked {
		src = httputil.NewChunkedReader(br)
	} else {
		h.keepAlive = false
	}
	buf := getBodyBuf()
	if _, err := buf.ReadFrom(io.LimitReader(src, maxReplyBody+1)); err != nil {
		putBodyBuf(buf)
		return nil, noEOF(err)
	}
	if buf.Len() > maxReplyBody {
		putBodyBuf(buf)
		return nil, errReplyTooLarge
	}
	if chunked {
		// The last chunk is followed by an empty trailer.
		if line, err := readLine(br); err != nil || len(line) != 0 {
			putBodyBuf(buf)
			return nil, errors.New("chunked reply not ended by an empty trailer")
		}
	}
	if buf.Len() == 0 {
		putBodyBuf(buf)
		return nil, nil
	}
	return buf, nil
}

// readLine reads one CRLF-ended head line, which must fit br's buffer,
// and returns it without the CRLF, valid until br's next read.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	switch {
	case err == bufio.ErrBufferFull:
		return nil, fmt.Errorf("reply head line longer than %d bytes", br.Size())
	case err != nil:
		return nil, noEOF(err)
	case len(line) < 2 || line[len(line)-2] != '\r':
		return nil, malformed("line ending", line)
	}
	return line[:len(line)-2], nil
}

// parseLength parses a Content-Length value: decimal digits, at most
// maxReplyBody.
func parseLength(v []byte) (int64, error) {
	if len(v) == 0 {
		return 0, malformed("Content-Length", v)
	}
	var n int64
	for _, c := range v {
		if !isDigit(c) {
			return 0, malformed("Content-Length", v)
		}
		if n = n*10 + int64(c-'0'); n > maxReplyBody {
			return 0, errReplyTooLarge
		}
	}
	return n, nil
}

func malformed(what string, b []byte) error {
	return fmt.Errorf("malformed reply %s %q", what, b[:min(len(b), 80)])
}

// noEOF reports a reply cut short as such: EOF is never a clean end
// inside a reply.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// isToken reports whether b is a non-empty header name (RFC 9110 token).
func isToken(b []byte) bool {
	for _, c := range b {
		if !isDigit(c) && !('a' <= c|0x20 && c|0x20 <= 'z') && !strings.ContainsRune("!#$%&'*+-.^_`|~", rune(c)) {
			return false
		}
	}
	return len(b) > 0
}

// isFieldValue reports whether b holds no control byte but HTAB.
func isFieldValue(b []byte) bool {
	for _, c := range b {
		if c < ' ' && c != '\t' || c == 0x7f {
			return false
		}
	}
	return true
}

// asciiFold reports whether b equals s under ASCII case folding only.
func asciiFold(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := range b {
		x, y := b[i], s[i]
		if 'A' <= x && x <= 'Z' {
			x |= 0x20
		}
		if 'A' <= y && y <= 'Z' {
			y |= 0x20
		}
		if x != y {
			return false
		}
	}
	return true
}
