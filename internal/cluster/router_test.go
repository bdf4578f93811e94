package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"relsyn/client"
	"relsyn/internal/obs"
	"relsyn/internal/pla"
)

// specPLA builds a tiny but distinct 4-input spec per seed. An odd
// multiplier is a bijection mod 2^16, so the low 16 bits of seed*40503
// pick a distinct on-set for every seed below 65536 — ownership
// searches must never run out of candidates, however the stub shards'
// random names happen to split the ring.
func specPLA(seed int) string {
	bits := seed * 40503 & 0xffff
	dc := (seed*7 + 5) % 16
	bits &^= 1 << dc
	if bits == 0 {
		bits = 1 << ((dc + 1) % 16)
	}
	var b strings.Builder
	b.WriteString(".i 4\n.o 1\n")
	for m := 0; m < 16; m++ {
		if bits>>m&1 == 1 {
			fmt.Fprintf(&b, "%04b 1\n", m)
		}
	}
	fmt.Fprintf(&b, "%04b -\n", dc)
	b.WriteString(".e\n")
	return b.String()
}

// stubShard is a scripted relsynd stand-in recording everything it was
// asked.
type stubShard struct {
	t  *testing.T
	ts *httptest.Server

	mu   sync.Mutex
	reqs []stubReq

	// handle produces the response; default: 200 {"status":"done",
	// "job_id": <name>}.
	handle func(w http.ResponseWriter, r *http.Request, body []byte)
	name   string
}

type stubReq struct {
	method string
	path   string
	header http.Header
	body   []byte
}

func newStubShard(t *testing.T, name string) *stubShard {
	t.Helper()
	s := &stubShard{t: t, name: name}
	s.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := readBody(w, r)
		s.mu.Lock()
		s.reqs = append(s.reqs, stubReq{method: r.Method, path: r.URL.Path, header: r.Header.Clone(), body: body})
		h := s.handle
		s.mu.Unlock()
		if h != nil {
			h(w, r, body)
			return
		}
		WriteJSON(w, http.StatusOK, client.Response{Status: "done", JobID: s.name})
	}))
	t.Cleanup(s.ts.Close)
	return s
}

// addr returns the host:port the ring knows this stub by.
func (s *stubShard) addr() string { return strings.TrimPrefix(s.ts.URL, "http://") }

func (s *stubShard) calls(path string) []stubReq {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []stubReq
	for _, r := range s.reqs {
		if r.path == path {
			out = append(out, r)
		}
	}
	return out
}

func newTestRouter(t *testing.T, cfg RouterConfig) *Router {
	t.Helper()
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	return rt
}

// seedOwnedBy finds a spec whose ring owner is addr.
func seedOwnedBy(t *testing.T, ring *Ring, addr string) (plaText, hash string) {
	t.Helper()
	for seed := 0; seed < 2000; seed++ {
		text := specPLA(seed)
		_, h, err := pla.ParseSpec(text)
		if err != nil {
			t.Fatalf("ParseSpec(seed %d): %v", seed, err)
		}
		if ring.Owner(h) == addr {
			return text, h
		}
	}
	t.Fatalf("no seed < 2000 owned by %s", addr)
	return "", ""
}

func postRouter(t *testing.T, rt *Router, path string, body any, header http.Header) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw))
	for k, vs := range header {
		req.Header[k] = vs
	}
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	resp := rec.Result()
	out, _ := readAll(resp)
	return resp, out
}

func readAll(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}

func TestForwardHeaders(t *testing.T) {
	src := http.Header{}
	src.Set("Content-Type", "application/json")
	src.Set("Content-Length", "42")
	src.Set("Host", "original")
	src.Set("Connection", "close, X-Per-Hop")
	src.Set("X-Per-Hop", "drop-me")
	src.Set("Keep-Alive", "timeout=5")
	src.Set("Transfer-Encoding", "chunked")
	src.Set("Authorization", "Bearer tok")
	src.Set("X-Request-Id", "r-1")
	src.Set(HeaderForwarded, "someone-else")

	dst := ForwardHeaders(src, "router-a")
	for _, gone := range []string{"Connection", "X-Per-Hop", "Keep-Alive", "Transfer-Encoding", "Host", "Content-Length", "Content-Type"} {
		if v := dst.Get(gone); v != "" {
			t.Errorf("header %s survived forwarding: %q", gone, v)
		}
	}
	if got := dst.Get("Authorization"); got != "Bearer tok" {
		t.Errorf("Authorization = %q, want passthrough", got)
	}
	if got := dst.Get("X-Request-Id"); got != "r-1" {
		t.Errorf("X-Request-Id = %q, want passthrough", got)
	}
	if got := dst.Get(HeaderForwarded); got != "router-a" {
		t.Errorf("%s = %q, want this hop's own marker", HeaderForwarded, got)
	}
	if vs := dst.Values(HeaderForwarded); len(vs) != 1 {
		t.Errorf("%s values = %v, inbound marker must not stack", HeaderForwarded, vs)
	}
}

func TestRouterForwardsToOwner(t *testing.T) {
	shards := []*stubShard{newStubShard(t, "s0"), newStubShard(t, "s1"), newStubShard(t, "s2")}
	peers := []string{shards[0].addr(), shards[1].addr(), shards[2].addr()}
	rt := newTestRouter(t, RouterConfig{Peers: peers, HedgeAfter: -1})

	byAddr := map[string]*stubShard{}
	for _, s := range shards {
		byAddr[s.addr()] = s
	}
	for seed := 0; seed < 6; seed++ {
		text := specPLA(seed)
		_, hash, err := pla.ParseSpec(text)
		if err != nil {
			t.Fatal(err)
		}
		owner := rt.Ring().Owner(hash)
		resp, body := postRouter(t, rt, "/v1/synth", map[string]any{"pla": text}, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: status %d: %s", seed, resp.StatusCode, body)
		}
		var env client.Response
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatal(err)
		}
		if env.JobID != byAddr[owner].name {
			t.Fatalf("seed %d: answered by %q, ring owner is %q (%s)", seed, env.JobID, byAddr[owner].name, owner)
		}
	}
	// Every forwarded request must carry the loop marker and only it.
	total := 0
	for _, s := range shards {
		for _, r := range s.calls("/v1/synth") {
			total++
			if got := r.header.Get(HeaderForwarded); got != "relsyn-router" {
				t.Fatalf("forwarded request %s = %q, want router marker", HeaderForwarded, got)
			}
		}
	}
	if total != 6 {
		t.Fatalf("stub shards saw %d forwards, want exactly 6 (no hedges, no failovers)", total)
	}
}

func TestRouterFailover(t *testing.T) {
	shards := []*stubShard{newStubShard(t, "s0"), newStubShard(t, "s1")}
	for _, s := range shards {
		s.handle = func(w http.ResponseWriter, r *http.Request, _ []byte) {
			WriteJSON(w, http.StatusInternalServerError, client.Response{Status: "error", Error: "injected"})
		}
	}
	peers := []string{shards[0].addr(), shards[1].addr()}
	rt := newTestRouter(t, RouterConfig{Peers: peers, HedgeAfter: -1, MaxAttempts: 1})

	// The key's owner always fails; its successor answers.
	text, hash := seedOwnedBy(t, rt.Ring(), shards[0].addr())
	shards[1].handle = nil // healthy

	resp, body := postRouter(t, rt, "/v1/synth", map[string]any{"pla": text}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var env client.Response
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.JobID != "s1" {
		t.Fatalf("answered by %q, want failover target s1", env.JobID)
	}
	if got := rt.byAddr[rt.Ring().Owner(hash)].failovers.Value(); got != 1 {
		t.Fatalf("failovers counter = %d, want 1", got)
	}

	// All peers dead: 502 with an "unreachable" envelope.
	shards[1].handle = shards[0].handle
	resp, body = postRouter(t, rt, "/v1/synth", map[string]any{"pla": text}, nil)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("all-dead status = %d, want 502: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &env); err != nil || env.Status != "unreachable" {
		t.Fatalf("all-dead envelope = %s (err %v), want status unreachable", body, err)
	}
}

func TestRouterHedgeWin(t *testing.T) {
	slow := newStubShard(t, "slow")
	fast := newStubShard(t, "fast")
	slow.handle = func(w http.ResponseWriter, r *http.Request, _ []byte) {
		select {
		case <-time.After(2 * time.Second):
		case <-r.Context().Done():
			return
		}
		WriteJSON(w, http.StatusOK, client.Response{Status: "done", JobID: "slow"})
	}
	peers := []string{slow.addr(), fast.addr()}
	rt := newTestRouter(t, RouterConfig{Peers: peers, HedgeAfter: 10 * time.Millisecond})

	text, _ := seedOwnedBy(t, rt.Ring(), slow.addr())
	resp, body := postRouter(t, rt, "/v1/synth", map[string]any{"pla": text}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var env client.Response
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.JobID != "fast" {
		t.Fatalf("answered by %q, want the hedge target", env.JobID)
	}
	if rt.hedges.Value() != 1 || rt.hedgeWins.Value() != 1 {
		t.Fatalf("hedges=%d hedgeWins=%d, want 1/1", rt.hedges.Value(), rt.hedgeWins.Value())
	}
}

// A -peers list that includes the router's own address must degrade into
// one refused candidate (508 + loops counter), not an infinite loop: the
// race then fails over to the real shard and the request still succeeds.
func TestRouterLoopBreakRegression(t *testing.T) {
	shard := newStubShard(t, "real")

	// Listener-first so the router's own address can appear in its peers.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	selfAddr := ln.Addr().String()
	rt := newTestRouter(t, RouterConfig{
		Peers:       []string{selfAddr, shard.addr()},
		HedgeAfter:  -1,
		MaxAttempts: 1,
	})
	ts := &httptest.Server{Listener: ln, Config: &http.Server{Handler: rt.Handler()}}
	ts.Start()
	t.Cleanup(ts.Close)

	// Pick a spec the misconfigured self-peer owns, so the router
	// forwards to itself first.
	text, _ := seedOwnedBy(t, rt.Ring(), selfAddr)
	raw, _ := json.Marshal(map[string]any{"pla": text})
	resp, err := http.Post(ts.URL+"/v1/synth", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := readAll(resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 after loop break + failover: %s", resp.StatusCode, body)
	}
	var env client.Response
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.JobID != "real" {
		t.Fatalf("answered by %q, want the real shard", env.JobID)
	}
	if rt.loops.Value() < 1 {
		t.Fatalf("loops counter = %d, want >= 1 (self-forward must be refused)", rt.loops.Value())
	}

	// Direct re-entry with a foreign marker is refused outright.
	hdr := http.Header{}
	hdr.Set(HeaderForwarded, "other-router")
	dresp, dbody := postRouter(t, rt, "/v1/synth", map[string]any{"pla": text}, hdr)
	if dresp.StatusCode != http.StatusLoopDetected {
		t.Fatalf("marked re-entry status = %d, want 508: %s", dresp.StatusCode, dbody)
	}
}

func TestRouterBatchSplitsByOwner(t *testing.T) {
	shards := []*stubShard{newStubShard(t, "s0"), newStubShard(t, "s1"), newStubShard(t, "s2")}
	byAddr := map[string]*stubShard{}
	peers := make([]string, len(shards))
	for i, s := range shards {
		peers[i] = s.addr()
		byAddr[s.addr()] = s
		name := s.name
		s.handle = func(w http.ResponseWriter, r *http.Request, body []byte) {
			var breq struct {
				Jobs []json.RawMessage `json:"jobs"`
			}
			if err := json.Unmarshal(body, &breq); err != nil {
				WriteError(w, http.StatusBadRequest, "decode: %v", err)
				return
			}
			out := client.BatchResponse{Results: make([]client.Response, len(breq.Jobs))}
			for i := range out.Results {
				out.Results[i] = client.Response{Status: "done", JobID: name}
			}
			WriteJSON(w, http.StatusOK, out)
		}
	}
	rt := newTestRouter(t, RouterConfig{Peers: peers, HedgeAfter: -1})

	jobs := make([]map[string]any, 0, 7)
	owners := make([]string, 0, 7)
	for seed := 0; seed < 6; seed++ {
		text := specPLA(seed)
		_, hash, err := pla.ParseSpec(text)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, map[string]any{"pla": text})
		owners = append(owners, byAddr[rt.Ring().Owner(hash)].name)
	}
	// One malformed job mid-batch: answered inline, never forwarded.
	jobs = append(jobs[:3], append([]map[string]any{{"pla": "not a pla"}}, jobs[3:]...)...)
	owners = append(owners[:3], append([]string{""}, owners[3:]...)...)

	resp, body := postRouter(t, rt, "/v1/synth/batch", map[string]any{"jobs": jobs}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out client.BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(out.Results), len(jobs))
	}
	for i, r := range out.Results {
		if owners[i] == "" {
			if r.Status != "invalid" {
				t.Fatalf("job %d: status %q, want inline invalid", i, r.Status)
			}
			continue
		}
		if r.JobID != owners[i] {
			t.Fatalf("job %d answered by %q, ring owner is %q", i, r.JobID, owners[i])
		}
	}
	// The invalid job must not have reached any shard.
	totalForwarded := 0
	for _, s := range shards {
		for _, c := range s.calls("/v1/synth/batch") {
			var breq struct {
				Jobs []json.RawMessage `json:"jobs"`
			}
			if err := json.Unmarshal(c.body, &breq); err != nil {
				t.Fatal(err)
			}
			totalForwarded += len(breq.Jobs)
		}
	}
	if totalForwarded != 6 {
		t.Fatalf("shards received %d jobs, want 6 (invalid answered inline)", totalForwarded)
	}
}

func TestRouterJobFanout(t *testing.T) {
	has := newStubShard(t, "has")
	lacks := newStubShard(t, "lacks")
	has.handle = func(w http.ResponseWriter, r *http.Request, _ []byte) {
		WriteJSON(w, http.StatusOK, client.Response{Status: "done", JobID: "job_abc"})
	}
	lacks.handle = func(w http.ResponseWriter, r *http.Request, _ []byte) {
		WriteJSON(w, http.StatusNotFound, client.Response{Status: "error", Error: "unknown job"})
	}
	rt := newTestRouter(t, RouterConfig{Peers: []string{has.addr(), lacks.addr()}, HedgeAfter: -1, MaxAttempts: 1})

	req := httptest.NewRequest(http.MethodGet, "/v1/jobs/job_abc", nil)
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 from the shard that knows the job: %s", rec.Code, rec.Body)
	}
	var env client.Response
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.JobID != "job_abc" {
		t.Fatalf("JobID = %q", env.JobID)
	}

	has.handle = lacks.handle // nobody knows it now
	rec = httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/job_missing", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("all-miss status = %d, want 404: %s", rec.Code, rec.Body)
	}
}

func TestRouterHealthzAndStatsz(t *testing.T) {
	a := newStubShard(t, "a")
	b := newStubShard(t, "b")
	rt := newTestRouter(t, RouterConfig{Peers: []string{a.addr(), b.addr()}, HedgeAfter: -1, BreakerThreshold: 1})

	get := func(path string) (*http.Response, []byte) {
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		resp := rec.Result()
		body, _ := readAll(resp)
		return resp, body
	}

	resp, body := get("/healthz")
	var h RouterHealth
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Fatalf("fresh healthz = %d %q, want 200 ok: %s", resp.StatusCode, h.Status, body)
	}
	if len(h.Peers) != 2 {
		t.Fatalf("healthz peers = %v, want both shards", h.Peers)
	}

	// One breaker open: still 200, status degraded, peer marked.
	rt.byAddr[a.addr()].breaker.Record(fmt.Errorf("injected"))
	resp, body = get("/healthz")
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || h.Status != "degraded" {
		t.Fatalf("one-dead healthz = %d %q, want 200 degraded: %s", resp.StatusCode, h.Status, body)
	}
	if h.Peers[a.addr()] != "degraded" || h.Peers[b.addr()] != "ok" {
		t.Fatalf("peer states = %v", h.Peers)
	}

	// All breakers open: 503 down.
	// Default threshold is 3 consecutive failures: trip b's breaker so
	// the peer map carries mixed raw states ("open" vs "closed").
	for i := 0; i < 3; i++ {
		rt.byAddr[b.addr()].breaker.Record(fmt.Errorf("injected"))
	}
	resp, body = get("/healthz")
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || h.Status != "down" {
		t.Fatalf("all-dead healthz = %d %q, want 503 down: %s", resp.StatusCode, h.Status, body)
	}

	resp, body = get("/statsz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("statsz status %d", resp.StatusCode)
	}
	var stats RouterStats
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if len(stats.Ring.Peers) != 2 || len(stats.Peers) != 2 {
		t.Fatalf("statsz ring/peers = %+v", stats)
	}
	sum := 0.0
	for _, s := range stats.Ring.Shares {
		sum += s
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("statsz shares sum to %f", sum)
	}

	// The metrics endpoint must expose every relsyn_cluster_* series
	// eagerly (CI smoke greps them at zero).
	resp, body = get("/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	for _, series := range []string{
		"relsyn_cluster_forwards_total",
		"relsyn_cluster_failovers_total",
		"relsyn_cluster_hedges_total",
		"relsyn_cluster_hedge_wins_total",
		"relsyn_cluster_loops_broken_total",
		"relsyn_cluster_peer_degraded",
	} {
		if !bytes.Contains(body, []byte(series)) {
			t.Errorf("metrics exposition missing %s", series)
		}
	}
}

func TestRouterInvalidSpec(t *testing.T) {
	shard := newStubShard(t, "s0")
	rt := newTestRouter(t, RouterConfig{Peers: []string{shard.addr()}, HedgeAfter: -1})
	// A malformed header, one wider than the dense ceiling, one past
	// tt.MaxCells, and a header that resizes rows already read.
	for _, spec := range []string{".i nope", ".i 17\n.o 1\n1---------------- 1\n.e\n",
		".i 16\n.o 200\n.e", ".i 2\n.o 1\n01 1\n.o 2\n.e"} {
		resp, body := postRouter(t, rt, "/v1/synth", map[string]any{"pla": spec}, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%q: status %d, want 400: %s", spec, resp.StatusCode, body)
		}
	}
	if len(shard.calls("/v1/synth")) != 0 {
		t.Fatal("invalid spec must not be forwarded")
	}
}

// TestRouterStatszStableParseableJSON is the router half of the statsz
// schema regression (the shard half lives in internal/server): the
// fleet differ flattens this document, so it must stay one valid JSON
// object with the documented keys and no non-finite floats — even with
// traffic (and a dead peer) behind it.
func TestRouterStatszStableParseableJSON(t *testing.T) {
	a := newStubShard(t, "shard-a")
	b := newStubShard(t, "shard-b")
	rt := newTestRouter(t, RouterConfig{Peers: []string{a.addr(), b.addr()}})

	// Some real traffic plus one open breaker, so peers carry mixed
	// states and the histogram series hold samples.
	text, _ := seedOwnedBy(t, rt.ring, a.addr())
	raw, _ := json.Marshal(map[string]any{"pla": text})
	req := httptest.NewRequest(http.MethodPost, "/v1/synth", bytes.NewReader(raw))
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("synth through router: %d: %s", rec.Code, rec.Body.String())
	}
	// Default threshold is 3 consecutive failures: trip b's breaker so
	// the peer map carries mixed raw states ("open" vs "closed").
	for i := 0; i < 3; i++ {
		rt.byAddr[b.addr()].breaker.Record(fmt.Errorf("injected"))
	}

	req = httptest.NewRequest(http.MethodGet, "/statsz", nil)
	rec = httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("statsz status %d", rec.Code)
	}
	body := rec.Body.Bytes()
	if !json.Valid(body) {
		t.Fatalf("router statsz is not valid JSON (truncated encode?):\n%s", body)
	}
	if bad := regexp.MustCompile(`\b(NaN|Inf|Infinity)\b`); bad.Match(body) {
		t.Fatalf("router statsz leaks a non-finite float:\n%s", body)
	}
	var stats RouterStats
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatalf("statsz does not decode into RouterStats: %v", err)
	}
	if stats.UptimeSeconds < 0 || len(stats.Ring.Peers) != 2 || len(stats.Peers) != 2 {
		t.Fatalf("statsz content off: %+v", stats)
	}
	if stats.Peers[b.addr()] != "open" || stats.Peers[a.addr()] != "closed" {
		t.Fatalf("peer breaker states = %v", stats.Peers)
	}
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"uptime_seconds", "ring", "peers", "metrics"} {
		if _, ok := doc[key]; !ok {
			t.Fatalf("router statsz missing required key %q:\n%s", key, body)
		}
	}
	metrics, ok := doc["metrics"].(map[string]any)
	if !ok {
		t.Fatalf("router statsz metrics is %T, want object", doc["metrics"])
	}
	for _, key := range []string{"counters", "gauges", "histograms"} {
		if _, ok := metrics[key]; !ok {
			t.Fatalf("router statsz metrics missing %q", key)
		}
	}
}
