package httpkv

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"ycsbt/internal/kvwire"
)

// Pooled NDJSON scan decoding. scanWire and scanWireAsOf used to spin
// up a fresh json.Decoder (plus its internal read buffer, grown from
// 512 bytes) and grow the result slice from nil on every page — all
// per-page steady-state garbage on the scan hot path, the decode-side
// sibling of the pooled response encoder in batch.go. json.Decoder has
// no Reset, so the pool wraps each decoder around a swappable reader:
// point it at the next body, decode, and recycle the pair once the
// page is fully consumed.
type scanDecoder struct {
	src swapReader
	dec *json.Decoder
}

// swapReader is the retargetable io.Reader under a pooled decoder.
type swapReader struct{ r io.Reader }

func (s *swapReader) Read(p []byte) (int, error) { return s.r.Read(p) }

var scanDecPool = sync.Pool{New: func() any {
	sd := &scanDecoder{}
	sd.dec = json.NewDecoder(&sd.src)
	return sd
}}

// decodeScanBody consumes one scan page response in whichever
// representation the server speaks: NDJSON when the Content-Type says
// so, else the JSON array old servers answer.
func decodeScanBody(resp *http.Response, count int) ([]wireRecord, error) {
	if strings.Contains(resp.Header.Get("Content-Type"), NDJSONContentType) {
		defer drainClose(resp)
		return decodeScanNDJSON(resp.Body, count)
	}
	var wrs []wireRecord
	if err := decodeBody(resp, &wrs); err != nil {
		return nil, fmt.Errorf("httpkv: decoding scan: %w", err)
	}
	return wrs, nil
}

// scanPrealloc is the result capacity a scan for count reserves before
// a single record has arrived: count is the client's number
// (maxscanlength, ?count=), so it is honoured only up to one engine
// page — past that the slice grows with the records that really
// exist. Unbounded scans (count < 0) start empty.
func scanPrealloc(count int) int {
	return max(0, min(count, kvwire.ScanPageCap))
}

// decodeScanNDJSON reads one NDJSON scan page, sizing the result slice
// up front by scanPrealloc.
func decodeScanNDJSON(body io.Reader, count int) ([]wireRecord, error) {
	sd := scanDecPool.Get().(*scanDecoder)
	sd.src.r = body
	wrs := make([]wireRecord, 0, scanPrealloc(count))
	for sd.dec.More() {
		var wr wireRecord
		if err := sd.dec.Decode(&wr); err != nil {
			// Mid-value state is poisoned; drop the decoder, not repool.
			return nil, fmt.Errorf("httpkv: decoding scan line %d: %w", len(wrs)+1, err)
		}
		wrs = append(wrs, wr)
	}
	// Recycle only a decoder that drained the page completely: More()
	// also returns false on a buffered non-value byte (say a stray ']'),
	// which would leak into the next page's decode.
	var tail [16]byte
	if n, _ := sd.dec.Buffered().Read(tail[:]); len(bytes.TrimSpace(tail[:n])) == 0 {
		sd.src.r = nil // drop the response body before pooling
		scanDecPool.Put(sd)
	}
	return wrs, nil
}
