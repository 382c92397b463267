package httpkv

import (
	"net/http"
	"strconv"

	"ycsbt/internal/obs"
)

// trackedCodes are the response codes that get their own counter
// series; anything else lands in code="other". Pre-registering keeps
// the per-request path to one read-only map lookup plus one atomic.
var trackedCodes = []int{200, 204, 400, 404, 405, 412, 413, 429, 500, 503, 504}

// serverMetrics holds the server's obs handles; nil disables the
// whole layer (every method is nil-safe).
type serverMetrics struct {
	inflight  *obs.Gauge
	responses map[int]*obs.Counter
	otherResp *obs.Counter
}

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	if reg == nil {
		return nil
	}
	reg.Help("httpkv_inflight_requests", "HTTP requests currently being served.")
	reg.Help("httpkv_responses_total", "HTTP responses by status code (413 and 504 are the admission-control sheds).")
	m := &serverMetrics{
		inflight:  reg.Gauge("httpkv_inflight_requests"),
		responses: make(map[int]*obs.Counter, len(trackedCodes)),
		otherResp: reg.Counter("httpkv_responses_total", "code", "other"),
	}
	for _, code := range trackedCodes {
		m.responses[code] = reg.Counter("httpkv_responses_total", "code", strconv.Itoa(code))
	}
	return m
}

func (m *serverMetrics) countResponse(code int) {
	if m == nil {
		return
	}
	if c, ok := m.responses[code]; ok {
		c.Inc()
		return
	}
	m.otherResp.Inc()
}

// statusRecorder captures the response status so ServeHTTP can count
// it after the handler runs; an unset status means an implicit 200.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	return sr.ResponseWriter.Write(b)
}

func (sr *statusRecorder) code() int {
	if sr.status == 0 {
		return http.StatusOK
	}
	return sr.status
}
