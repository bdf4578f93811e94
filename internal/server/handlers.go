// HTTP/JSON front end.
//
// Endpoints:
//
//	POST /v1/synth        submit one job ({"pla": "...", "options": {...},
//	                      "priority": 0, "wait": true}); wait=false returns
//	                      202 + job id for later polling
//	POST /v1/synth/batch  submit many jobs ({"jobs": [...]}), wait for all
//	POST /v1/resyn        reassign the internal don't-cares of a BLIF
//	                      network ({"blif": "...", "options": {...}}) —
//	                      synchronous, returns the NetworkJobResult plus
//	                      the rewritten network as BLIF
//	GET  /v1/jobs/{id}    poll a job
//	GET  /healthz         health JSON: {"status":"ok"|"degraded"|"draining",
//	                      "reasons":[...]}; 503 only while draining
//	GET  /statsz          queue/worker/cache counters as JSON
//	GET  /metrics         Prometheus text exposition (obs registry)
//
// Every route is wrapped in cluster.Instrument, the middleware the
// router shares, recording relsyn_http_requests_total{route,code}, a
// per-route latency histogram relsyn_http_request_duration_seconds{route},
// and the relsyn_http_in_flight gauge.
//
// Status mapping: 400 malformed request or spec, 404 unknown job, 429
// queue full (with Retry-After), 503 draining, 200/202 otherwise. A job
// that *ran* and failed is reported inside a 200 envelope with
// status "failed" — the request was served; the job outcome is data.
package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"relsyn/client"
	"relsyn/internal/blif"
	"relsyn/internal/cluster"
	"relsyn/internal/obs"
	"relsyn/internal/pipeline"
	"relsyn/internal/pla"
)

// SynthRequest is the POST /v1/synth body.
type SynthRequest struct {
	// PLA is the specification in Espresso .pla format.
	PLA string `json:"pla"`
	// Options configures the pipeline job (all fields optional).
	Options pipeline.JobOptions `json:"options"`
	// Priority orders the queue; higher dequeues first (default 0).
	Priority int `json:"priority"`
	// Wait, when false, returns 202 immediately with a job id.
	// Default true.
	Wait *bool `json:"wait,omitempty"`
}

func (r *SynthRequest) wait() bool { return r.Wait == nil || *r.Wait }

// SynthResponse is the envelope for job submissions and polls: the
// client's wire type, so the shard, the router and the client share one
// format.
type SynthResponse = client.Response

// BatchRequest is the POST /v1/synth/batch body.
type BatchRequest struct {
	Jobs []SynthRequest `json:"jobs"`
}

// BatchResponse mirrors the request order one envelope per job.
type BatchResponse = client.BatchResponse

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern, name string, h http.HandlerFunc) {
		mux.Handle(pattern, cluster.Instrument(s.cfg.Metrics, name, h))
	}
	route("POST /v1/synth", "/v1/synth", s.handleSynth)
	route("POST /v1/synth/batch", "/v1/synth/batch", s.handleBatch)
	route("POST /v1/resyn", "/v1/resyn", s.handleResyn)
	route("GET /v1/jobs/{id}", "/v1/jobs/{id}", s.handleJob)
	route("GET /v1/cache/{key}", "/v1/cache/{key}", s.handleCacheGet)
	route("GET /healthz", "/healthz", s.handleHealthz)
	route("GET /statsz", "/statsz", s.handleStatsz)
	route("GET /metrics", "/metrics", s.handleMetrics)
	return mux
}

// submitRequest runs the shared admission path for single and batch
// submissions. The returned response is terminal for rejected/invalid
// submissions; otherwise outcome carries the job handle.
func (s *Server) submitRequest(req *SynthRequest) (*SubmitOutcome, *SynthResponse) {
	fn, hash, err := pla.ParseSpec(req.PLA)
	if err != nil {
		return nil, &SynthResponse{Status: "invalid", Error: fmt.Sprintf("parse pla: %v", err)}
	}
	out, err := s.SubmitSpec(fn, hash, req.PLA, req.Options, req.Priority)
	switch {
	case errors.Is(err, ErrQueueFull):
		return nil, &SynthResponse{Status: "rejected", Error: err.Error()}
	case errors.Is(err, ErrDraining):
		return nil, &SynthResponse{Status: "draining", Error: err.Error()}
	case err != nil:
		return nil, &SynthResponse{Status: "invalid", Error: err.Error()}
	}
	return out, nil
}

// respond renders a finished (or polled) job state.
func respond(js *jobState, cached, coalesced bool) SynthResponse {
	js.mu.Lock()
	defer js.mu.Unlock()
	return js.responseLocked(cached, coalesced)
}

// handleSynth reads the body once and looks its SHA-256 up in the
// digest index: a body admitted before whose result is still cached is
// answered from the cache without decoding, parsing or hashing it again.
// Every other body takes the full path, and an admitted one is indexed.
func (s *Server) handleSynth(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		cluster.WriteError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	d := sha256.Sum256(body)
	if out, wait, ok := s.submitDigest(d); ok {
		s.reply(w, r, out, wait)
		return
	}
	var req SynthRequest
	if err := decodeJSON(bytes.NewReader(body), &req); err != nil {
		cluster.WriteError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	out, rejected := s.submitRequest(&req)
	if rejected != nil {
		s.writeRejection(w, rejected)
		return
	}
	s.indexDigest(d, out.Job.key, req.wait())
	s.reply(w, r, out, req.wait())
}

// maxPresize caps the buffer readBody sizes from Content-Length before
// reading, so a false large length costs no more than this up front.
const maxPresize = 64 << 10

// readBody reads the request body, at most cluster.MaxBodyBytes of it,
// into a buffer sized once from the declared Content-Length.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	n := min(max(r.ContentLength, 0), maxPresize)
	// ReadFrom keeps bytes.MinRead free before each read, the one that
	// meets EOF included.
	buf := bytes.NewBuffer(make([]byte, 0, n+bytes.MinRead))
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, cluster.MaxBodyBytes))
	return buf.Bytes(), err
}

// reply writes an admitted submission's envelope: 202 at once when the
// client does not wait, otherwise 200 once the job is done.
func (s *Server) reply(w http.ResponseWriter, r *http.Request, out *SubmitOutcome, wait bool) {
	js := out.Job
	if !wait {
		cluster.WriteEncoded(w, http.StatusAccepted, js.envelope(out.Cached, out.Coalesced))
		return
	}
	select {
	case <-js.done:
		cluster.WriteEncoded(w, http.StatusOK, js.envelope(out.Cached, out.Coalesced))
	case <-r.Context().Done():
		// Client gone; the job keeps running and lands in the cache.
	}
}

func (s *Server) writeRejection(w http.ResponseWriter, resp *SynthResponse) {
	switch resp.Status {
	case "rejected":
		w.Header().Set("Retry-After",
			strconv.Itoa(int(max(1, s.cfg.RetryAfter.Seconds()))))
		cluster.WriteJSON(w, http.StatusTooManyRequests, resp)
	case "draining":
		cluster.WriteJSON(w, http.StatusServiceUnavailable, resp)
	default:
		cluster.WriteJSON(w, http.StatusBadRequest, resp)
	}
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := decodeBody(w, r, &req); err != nil {
		cluster.WriteError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	if len(req.Jobs) == 0 {
		cluster.WriteError(w, http.StatusBadRequest, "empty batch")
		return
	}
	// Admit everything first so duplicates coalesce within the batch,
	// then wait; per-item rejections ride along inline.
	type slot struct {
		out  *SubmitOutcome
		resp *SynthResponse
	}
	slots := make([]slot, len(req.Jobs))
	for i := range req.Jobs {
		out, rejected := s.submitRequest(&req.Jobs[i])
		slots[i] = slot{out: out, resp: rejected}
	}
	results := make([]SynthResponse, len(slots))
	for i, sl := range slots {
		if sl.resp != nil {
			results[i] = *sl.resp
			continue
		}
		select {
		case <-sl.out.Job.done:
		case <-r.Context().Done():
			cluster.WriteError(w, http.StatusRequestTimeout, "client cancelled batch")
			return
		}
		results[i] = respond(sl.out.Job, sl.out.Cached, sl.out.Coalesced)
	}
	cluster.WriteJSON(w, http.StatusOK, BatchResponse{Results: results})
}

// ResynRequest is the POST /v1/resyn body: a combinational BLIF network
// plus network-job options (method defaults to "lcf", threshold to
// 0.55). The DC-extraction engine is picked from the network's size.
type ResynRequest struct {
	// BLIF is the network in Berkeley Logic Interchange Format
	// (combinational subset: .model/.inputs/.outputs/.names).
	BLIF string `json:"blif"`
	// Options configures the network job (all fields optional).
	Options pipeline.JobOptions `json:"options"`
}

// ResynResponse is the envelope for network-reassignment jobs. On
// success BLIF carries the rewritten, PO-equivalent network.
type ResynResponse struct {
	Status string                     `json:"status"`
	Result *pipeline.NetworkJobResult `json:"result,omitempty"`
	BLIF   string                     `json:"blif,omitempty"`
	Error  string                     `json:"error,omitempty"`
}

// handleResyn runs one network-reassignment job synchronously on the
// request goroutine. Network jobs bypass the queue/cache tier — their
// identity would need a network content hash, and the windowed engine is
// built to stay cheap at sizes the exhaustive one cannot touch — so the
// handler is bounded only by the server's timeout policy and the job's
// own budgets. A job that ran and failed reports inside a 200 envelope
// with status "failed", like /v1/synth.
func (s *Server) handleResyn(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		cluster.WriteJSON(w, http.StatusServiceUnavailable, ResynResponse{Status: "draining", Error: ErrDraining.Error()})
		return
	}
	var req ResynRequest
	if err := decodeBody(w, r, &req); err != nil {
		cluster.WriteJSON(w, http.StatusBadRequest, ResynResponse{Status: "invalid", Error: fmt.Sprintf("decode request: %v", err)})
		return
	}
	if strings.TrimSpace(req.BLIF) == "" {
		cluster.WriteJSON(w, http.StatusBadRequest, ResynResponse{Status: "invalid", Error: "empty blif"})
		return
	}
	nw, err := blif.Parse(strings.NewReader(req.BLIF))
	if err != nil {
		cluster.WriteJSON(w, http.StatusBadRequest, ResynResponse{Status: "invalid", Error: fmt.Sprintf("parse blif: %v", err)})
		return
	}
	jo := req.Options
	if jo.Method == "" {
		jo.Method = pipeline.JobMethodLCF
	}
	if jo.Method == pipeline.JobMethodLCF && jo.Threshold == 0 {
		jo.Threshold = 0.55
	}
	jo.TimeoutMs = s.timeoutMs(jo.TimeoutMs)
	jo = jo.Normalize()
	if err := jo.Validate(); err != nil {
		cluster.WriteJSON(w, http.StatusBadRequest, ResynResponse{Status: "invalid", Error: err.Error()})
		return
	}
	res, err := s.cfg.ResynBackend(r.Context(), nw, jo)
	if err != nil {
		cluster.WriteJSON(w, http.StatusOK, ResynResponse{Status: StatusFailed, Result: res, Error: err.Error()})
		return
	}
	var sb strings.Builder
	if err := blif.WriteNetwork(&sb, res.Network, "relsyn"); err != nil {
		cluster.WriteJSON(w, http.StatusInternalServerError, ResynResponse{Status: StatusFailed, Result: res, Error: fmt.Sprintf("emit blif: %v", err)})
		return
	}
	cluster.WriteJSON(w, http.StatusOK, ResynResponse{Status: StatusDone, Result: res, BLIF: sb.String()})
}

// handleCacheGet is the intra-cluster cache-fill protocol: a peer shard
// probing for a finished result by full cache key ("<spec hash>|<options
// key>"). Read-only — a probe never enqueues work and never initiates
// fetches of its own, so shard-to-shard fills cannot cascade or loop.
// Registered unconditionally: on a non-clustered node it is just a
// cache inspection endpoint.
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock() // every cache read holds s.mu; see Server.finish
	js, ok := s.cache.Get(r.PathValue("key"))
	s.mu.Unlock()
	if !ok {
		cluster.WriteJSON(w, http.StatusNotFound, SynthResponse{Status: "miss"})
		return
	}
	cluster.WriteJSON(w, http.StatusOK, SynthResponse{Status: StatusDone, Cached: true, Result: js.result})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	js, ok := s.Lookup(id)
	if !ok {
		cluster.WriteError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	cluster.WriteEncoded(w, http.StatusOK, js.envelope(false, false))
}

// handleHealthz reports ok / degraded / draining with a JSON body.
// Draining maps to 503 (stop routing here); degraded stays 200 — the
// service still serves, but the body tells operators it is shedding
// durability (store circuit open) or saturated (queue full).
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	h := s.Health()
	code := http.StatusOK
	if h.Status == "draining" {
		code = http.StatusServiceUnavailable
	}
	cluster.WriteJSON(w, code, h)
}

func (s *Server) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	cluster.WriteJSON(w, http.StatusOK, StatszPayload{
		Stats:   s.Stats(),
		Metrics: s.cfg.Metrics.Snapshot(),
	})
}

// StatszPayload is the enriched /statsz body: the classic service
// counters plus a full snapshot of the observability registry (every
// counter/gauge series and histogram quantiles), so operators get one
// JSON view of everything /metrics exports.
type StatszPayload struct {
	Stats
	Metrics obs.Snapshot `json:"metrics"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.cfg.Metrics.WritePrometheus(w)
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	return decodeJSON(http.MaxBytesReader(w, r.Body, cluster.MaxBodyBytes), v)
}

// decodeJSON decodes the first JSON value of rd into v, refusing
// unknown fields.
func decodeJSON(rd io.Reader, v any) error {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}
