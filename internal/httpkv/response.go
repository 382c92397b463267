package httpkv

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"
)

// The response-body contract of the control plane. The data plane
// reads its replies itself (rest.go); the control-plane calls — the
// frame listener probe, the shard map, migration and admin routes —
// ride net/http, which returns a connection to its idle pool only once
// the response body has reported io.EOF: a body closed any earlier
// costs the connection, and the next request dials. json.Decoder.Decode
// stops reading at the value's closing brace, so whether a
// decoded-then-closed response is at EOF depends on where the decoder's
// read buffer happened to end. Every net/http response this package
// receives therefore ends in exactly one of the three helpers below;
// nothing else closes a response body.

// maxDrainBytes bounds how much unwanted body drainClose reads to win
// the connection back. Error texts and abandoned scan pages fit; past
// it (an unbounded migration scan cut short) closing the connection
// is cheaper than reading the remainder.
const maxDrainBytes = 64 << 10

// maxPooledBuf keeps one large scan page from pinning its buffer in
// the pool forever.
const maxPooledBuf = 1 << 20

// bodyBufPool recycles request and response body buffers: the REST
// exchange's (rest.go) and the server's. A request buffer goes back only
// once its exchange is over.
var bodyBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getBodyBuf() *bytes.Buffer {
	buf := bodyBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	return buf
}

func putBodyBuf(buf *bytes.Buffer) {
	if buf != nil && buf.Cap() <= maxPooledBuf {
		bodyBufPool.Put(buf)
	}
}

// drainClose finishes a response whose remaining body nobody wants:
// it reads to EOF (at most maxDrainBytes) so the connection is reused,
// then closes.
func drainClose(resp *http.Response) {
	io.CopyN(io.Discard, resp.Body, maxDrainBytes)
	resp.Body.Close()
}

// errorText consumes an error response and returns the head of its
// body for the error message.
func errorText(resp *http.Response) []byte {
	var head [512]byte
	n, _ := io.ReadFull(resp.Body, head[:])
	drainClose(resp)
	return bytes.TrimSpace(head[:n])
}

// decodeBody consumes a response carrying one JSON document: the whole
// body is read to EOF, closed, and decoded into v.
func decodeBody(resp *http.Response, v any) error {
	defer resp.Body.Close()
	return unmarshalFrom(resp.Body, v)
}

// unmarshalFrom reads r to EOF into a pooled buffer and decodes the one
// JSON document it holds into v: a record through the record codec
// (codec.go), anything else through json.Unmarshal. Both
// copy every string and []byte out, so nothing in v aliases the buffer.
// Unlike a json.Decoder per body it allocates no read buffer and leaves
// nothing unread.
func unmarshalFrom(r io.Reader, v any) error {
	buf := getBodyBuf()
	defer putBodyBuf(buf)
	if _, err := buf.ReadFrom(r); err != nil {
		return err
	}
	if rec, ok := v.(*wireRecord); ok {
		return decodeRecord(buf.Bytes(), rec)
	}
	return json.Unmarshal(buf.Bytes(), v)
}
