// HTTP plumbing shared by relsynd and relsyn-router: the request body
// cap, the JSON envelope writers and the instrumentation middleware, so
// both daemons answer in one format and export the same relsyn_http_*
// series.
package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"relsyn/client"
	"relsyn/internal/obs"
)

// MaxBodyBytes caps a request body on relsynd and on the router, which
// forwards bodies to relsynd verbatim.
const MaxBodyBytes = 8 << 20

// statusWriter captures the response code for the request counter. The
// zero code means WriteHeader was never called (implicit 200 on first
// Write, or a hijacked/abandoned connection); it is reported as 200.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.code == 0 {
		sw.code = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

// Instrument wraps a route handler with the HTTP metrics on reg:
// relsyn_http_requests_total{route,code}, the per-route latency
// histogram relsyn_http_request_duration_seconds{route}, and the
// relsyn_http_in_flight gauge. The route label is the registered
// pattern (bounded cardinality: path parameters stay as placeholders,
// never raw client input).
func Instrument(reg *obs.Registry, route string, h http.HandlerFunc) http.Handler {
	reg.SetHelp("relsyn_http_requests_total", "HTTP requests served, by route and status code.")
	reg.SetHelp("relsyn_http_request_duration_seconds", "HTTP request latency, by route.")
	reg.SetHelp("relsyn_http_in_flight", "HTTP requests currently being served.")
	routeL := obs.L("route", route)
	dur := reg.Histogram("relsyn_http_request_duration_seconds", routeL)
	inFlight := reg.Gauge("relsyn_http_in_flight")
	// requests holds the route's request counter per status code,
	// resolved on the first request with that code, so a code's series
	// appears only once a request has had it.
	var requests sync.Map // int -> *obs.Counter
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		inFlight.Add(1)
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		inFlight.Add(-1)
		dur.Observe(time.Since(start).Seconds())
		code := sw.code
		if code == 0 {
			code = http.StatusOK
		}
		c, ok := requests.Load(code)
		if !ok {
			c, _ = requests.LoadOrStore(code, reg.Counter("relsyn_http_requests_total", routeL,
				obs.L("code", strconv.Itoa(code))))
		}
		c.(*obs.Counter).Inc()
	})
}

// WriteJSON writes v as an indented JSON body with status code.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	WriteEncoded(w, code, Encode(v))
}

// Encode returns v as WriteJSON writes it: indented by two spaces,
// HTML-escaped and newline-terminated. A value JSON cannot encode gives
// an empty body.
func Encode(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
	return buf.Bytes()
}

// WriteEncoded writes body, a JSON value as Encode returns it, with
// status code.
func WriteEncoded(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(body)
}

// WriteError writes a job envelope with status "error" and the
// formatted message.
func WriteError(w http.ResponseWriter, code int, format string, args ...any) {
	WriteJSON(w, code, client.Response{Status: "error", Error: fmt.Sprintf(format, args...)})
}
