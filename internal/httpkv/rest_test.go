package httpkv

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ycsbt/internal/db"
)

// An idle REST connection whose node went away and came back on the
// same address costs a redial, not a failed call.
func TestRESTRedialsAfterRestart(t *testing.T) {
	tn := startHTTPNode(t, openTestStore(t), NodeOptions{})
	c := tn.client(t, WireModeOff)
	ctx := context.Background()
	if err := c.Insert(ctx, "t", "k", rec("v")); err != nil {
		t.Fatal(err)
	}
	tn.restart(t, false)
	got, err := c.Read(ctx, "t", "k", nil)
	if err != nil || string(got["f"]) != "v" {
		t.Fatalf("read after the restart = %v, %v", got, err)
	}
	if d := c.Dials(); d != 2 {
		t.Errorf("Dials() = %d, want 2: one before the restart, one after", d)
	}
}

// fakeNode is a REST peer that answers every request it reads with one
// scripted reply, and counts the connections it accepts.
type fakeNode struct {
	URL      string
	accepted atomic.Int64
	closed   chan struct{} // signalled when the client closes a connection
}

// startFakeNode answers every request with reply; a nil reply leaves
// requests unanswered. The fake never closes a connection itself:
// whether one is reused is the client's call alone.
func startFakeNode(t *testing.T, reply []byte) *fakeNode {
	t.Helper()
	ln := listenOn(t, "127.0.0.1:0")
	f := &fakeNode{URL: "http://" + ln.Addr().String(), closed: make(chan struct{}, 1)}
	var wg sync.WaitGroup
	t.Cleanup(func() { ln.Close(); wg.Wait() })
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			f.accepted.Add(1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				br := bufio.NewReader(conn)
				for {
					req, err := http.ReadRequest(br)
					if err != nil {
						select {
						case f.closed <- struct{}{}:
						default:
						}
						return
					}
					io.Copy(io.Discard, req.Body)
					if reply != nil {
						conn.Write(reply)
					}
				}
			}()
		}
	}()
	return f
}

// getReply is a 200 answer to a GET of {"f": "v"} at version 7 under
// the given status line and extra header lines.
func getReply(statusLine, headers string) []byte {
	body := `{"version":7,"fields":{"f":"dg=="}}`
	return []byte(statusLine + "\r\nETag: 7\r\n" + headers + "Content-Length: " + strconv.Itoa(len(body)) + "\r\n\r\n" + body)
}

// A connection goes back to the pool only after a keep-alive HTTP/1.1
// reply read whole. A "Connection: close" or HTTP/1.0 answer is used and
// its connection closed, and so is the connection of an answer the
// client refuses: an over-long head line, or a body declared past the
// cap. Two reads ride one connection or two accordingly.
func TestRESTReplyDecidesReuse(t *testing.T) {
	for _, tc := range []struct {
		name   string
		reply  []byte
		pooled bool
		errSub string // "" for a good answer
	}{
		{"keep-alive", getReply("HTTP/1.1 200 OK", ""), true, ""},
		{"close", getReply("HTTP/1.1 200 OK", "Connection: close\r\n"), false, ""},
		{"http/1.0", getReply("HTTP/1.0 200 OK", ""), false, ""},
		{"http/1.0 keep-alive", getReply("HTTP/1.0 200 OK", "Connection: keep-alive\r\n"), false, ""},
		{"long head line", getReply("HTTP/1.1 200 OK", "X-Pad: "+strings.Repeat("a", 5000)+"\r\n"), false, "line longer than"},
		{"length past the cap", []byte("HTTP/1.1 200 OK\r\nContent-Length: " + strconv.Itoa(maxReplyBody+1) + "\r\n\r\n{}"), false, errReplyTooLarge.Error()},
		{"chunked with a length", []byte("HTTP/1.1 200 OK\r\nContent-Length: 2\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n"), false, "both Content-Length"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := startFakeNode(t, tc.reply)
			c := NewClient(f.URL, nil)
			defer c.Cleanup()
			if err := c.Init(propsOf("rawhttp.wire", WireModeOff)); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				got, err := c.Read(context.Background(), "t", "k", nil)
				if tc.errSub == "" && (err != nil || string(got["f"]) != "v") {
					t.Fatalf("read %d = %v, %v", i, got, err)
				}
				if tc.errSub != "" && (err == nil || !strings.Contains(err.Error(), tc.errSub)) {
					t.Fatalf("read %d: err = %v, want one saying %q", i, err, tc.errSub)
				}
			}
			want := int64(2)
			if tc.pooled {
				want = 1
			}
			if got := f.accepted.Load(); got != want || c.Dials() != want {
				t.Errorf("two reads opened %d connections (Dials() = %d), want %d", got, c.Dials(), want)
			}
			if open, _ := c.rest.pool.Counts(); !tc.pooled && open != 0 {
				t.Errorf("%d connections still open after replies that forbid reuse", open)
			}
		})
	}
}

// A ctx cancelled while the reply is outstanding ends the call
// promptly with ctx's error, and its connection is closed, not pooled.
func TestRESTCancelWhileReplyOutstanding(t *testing.T) {
	f := startFakeNode(t, nil)
	c := NewClient(f.URL, nil)
	defer c.Cleanup()
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	start := time.Now()
	if _, err := c.Read(ctx, "t", "k", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("read cancelled mid-reply: err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("cancelled read took %v", d)
	}
	select {
	case <-f.closed:
	case <-time.After(5 * time.Second):
		t.Fatal("the interrupted connection was never closed")
	}
	if open, idle := c.rest.pool.Counts(); open != 0 || idle != 0 {
		t.Fatalf("%d connections open, %d idle after the cancel; want none", open, idle)
	}
}

// A key holding CR LF, spaces and % rides the path escaped: it injects
// no header, reaches the store as itself and comes back as itself.
func TestRESTKeyIsEscaped(t *testing.T) {
	const key = "a b\r\nX-Injected: 1\r\n%41%\n"
	raw := appendRequest(nil, "h:1", "/p", &request{method: http.MethodPut, table: "t", key: key, body: []byte(`{"fields":{}}`)}, 0)
	req, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(raw)))
	if err != nil {
		t.Fatalf("request %q does not parse: %v", raw, err)
	}
	if req.URL.Path != "/p/v1/t/"+key || req.Header.Get("X-Injected") != "" || len(req.Header) != 2 {
		t.Fatalf("request %q: path %q, headers %v", raw, req.URL.Path, req.Header)
	}

	tn := startHTTPNode(t, openTestStore(t), NodeOptions{})
	c := tn.client(t, WireModeOff)
	ctx := context.Background()
	if err := c.Insert(ctx, "t", key, rec("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := tn.store.Get("t", key); err != nil {
		t.Fatalf("the store holds no record under the key itself: %v", err)
	}
	if got, err := c.Read(ctx, "t", key, nil); err != nil || string(got["f"]) != "v" {
		t.Fatalf("read = %v, %v", got, err)
	}
	if kvs, err := c.Scan(ctx, "t", key, 1, nil); err != nil || len(kvs) != 1 || kvs[0].Key != key {
		t.Fatalf("scan from the key = %v, %v", kvs, err)
	}
	if err := c.Delete(ctx, "t", key); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(ctx, "t", key, nil); !errors.Is(err, db.ErrNotFound) {
		t.Fatalf("read after delete: %v, want ErrNotFound", err)
	}
}

// rawhttp.url is http://host:port[/prefix]; anything else fails Init
// loudly instead of being guessed at.
func TestRESTURLMustBeHTTPHostPort(t *testing.T) {
	for _, u := range []string{
		"https://127.0.0.1:8077",
		"127.0.0.1:8077",
		"http://127.0.0.1",
		"http://:8077",
		"http://user:pw@127.0.0.1:8077",
		"http://127.0.0.1:8077/?a=b",
		"http://127.0.0.1:8077/#frag",
		"http//127.0.0.1:8077",
	} {
		c := NewClient("", nil)
		err := c.Init(propsOf("rawhttp.url", u, "rawhttp.wire", WireModeOff))
		if err == nil || !strings.Contains(err.Error(), "http://host:port[/prefix]") {
			t.Errorf("rawhttp.url=%s: Init err = %v, want it refused", u, err)
		}
	}
	for u, prefix := range map[string]string{
		"http://127.0.0.1:8077":         "",
		"http://127.0.0.1:8077/":        "",
		"http://127.0.0.1:8077/kv/a b/": "/kv/a%20b",
		"http://[::1]:8077":             "",
	} {
		c := NewClient("", nil)
		if err := c.Init(propsOf("rawhttp.url", u, "rawhttp.wire", WireModeOff)); err != nil {
			t.Errorf("rawhttp.url=%s: %v", u, err)
		} else if c.rest.prefix != prefix {
			t.Errorf("rawhttp.url=%s: path prefix %q, want %q", u, c.rest.prefix, prefix)
		}
	}
}

// FuzzRESTResponse holds the reply reader to net/http's: whatever
// readResponse accepts, http.ReadResponse plus a full body read accepts
// with the same status, ETag, shard headers, X-KV-Wire and body bytes,
// and a reply it would pool net/http would not close. A head line
// longer than the read buffer, or a declared length past maxReplyBody,
// is always an error.
func FuzzRESTResponse(f *testing.F) {
	for _, seed := range []string{
		string(getReply("HTTP/1.1 200 OK", "")),
		string(getReply("HTTP/1.0 200 OK", "Connection: keep-alive\r\n")),
		"HTTP/1.1 204 No Content\r\nETag: 3\r\n\r\n",
		"HTTP/1.1 410 Gone\r\nX-Shard-Owner: http://127.0.0.1:2\r\nX-Shard-Map-Version: 4\r\nContent-Length: 5\r\n\r\nmoved",
		"HTTP/1.1 200 OK\r\nX-Kv-Wire: 127.0.0.1:9\r\nx-kv-wire: :8\r\nContent-Length: 2\r\n\r\nok",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\n[1,\r\n2\r\n2]\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\nto the end",
		"HTTP/1.1 404 Not Found\r\netag: 1\r\nEtag: 2\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 99999999999\r\n\r\n",
		"HTTP/1.1 200 OK\r\nX-Pad: " + strings.Repeat("a", 4100) + "\r\n\r\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		var h restHead
		body, err := readResponse(br, &h)
		defer putBodyBuf(body)

		// Head lines run to the first empty one.
		rest := data
		for {
			line, tail, ok := bytes.Cut(rest, []byte("\n"))
			if !ok || string(line) == "\r" {
				break
			}
			if len(line)+1 > br.Size() && err == nil {
				t.Fatalf("a %d-byte head line was accepted", len(line)+1)
			}
			rest = tail
		}
		resp, herr := http.ReadResponse(bufio.NewReader(bytes.NewReader(data)), nil)
		var want []byte
		if herr == nil {
			if resp.ContentLength > maxReplyBody && err == nil {
				t.Fatalf("a declared length of %d was accepted", resp.ContentLength)
			}
			want, herr = io.ReadAll(resp.Body)
		}
		if err != nil {
			return
		}
		var got []byte
		if body != nil {
			got = body.Bytes()
		}
		switch {
		case herr != nil:
			t.Fatalf("accepted %q, net/http refuses it: %v", data, herr)
		case resp.StatusCode != h.status:
			t.Fatalf("status %d, net/http reads %d", h.status, resp.StatusCode)
		case resp.Header.Get("ETag") != string(h.etag),
			resp.Header.Get("X-Shard-Owner") != string(h.owner),
			resp.Header.Get("X-Shard-Map-Version") != string(h.mapVersion),
			resp.Header.Get(WireAddrHeader) != string(h.wire):
			t.Fatalf("headers %q %q %q %q, net/http reads %v", h.etag, h.owner, h.mapVersion, h.wire, resp.Header)
		case !bytes.Equal(got, want):
			t.Fatalf("body %q, net/http reads %q", got, want)
		case h.keepAlive && resp.Close:
			t.Fatal("a reply net/http would close is pooled")
		}
	})
}
