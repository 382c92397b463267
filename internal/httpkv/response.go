package httpkv

import (
	"bytes"
	"encoding/json"
	"io"
	"sync"
)

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
