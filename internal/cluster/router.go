// The relsyn-router serving core: a stateless HTTP daemon that owns no
// compute and no cache. It parses each submission just far enough to
// content-address it (internal/pla.ParseSpec), maps the hash onto
// the consistent-hash ring, and forwards the request — byte-for-byte —
// to the owning relsynd shard with the reliability behaviors a fleet
// front door needs:
//
//   - Forwarding reuses relsyn/client, so every hop inherits its capped
//     exponential backoff and Retry-After handling.
//   - Hedged fan-out: if the owner has not answered within HedgeAfter,
//     the same request races against the next ring replica and the
//     first definitive answer wins. Safe by construction: requests are
//     content-addressed, so the loser's work lands in a shard cache (or
//     coalesces with the winner's via peer fill) instead of corrupting
//     anything.
//   - Failover: a transport error or retry-exhausted 5xx/429 moves to
//     the next replica in ring order. A per-peer circuit breaker
//     (internal/store.Breaker) front-runs known-dead shards so requests
//     skip straight to their successors, with half-open probes to
//     notice recovery.
//   - Loop breaking: every forwarded request carries HeaderForwarded;
//     inbound requests that already carry it are refused with 508, so a
//     -peers list that includes the router itself degrades into one
//     failed candidate instead of an infinite loop.
//
// Batches are split by owner into per-shard sub-batches, forwarded
// concurrently (each with the same hedge/failover policy), and
// reassembled in request order.
package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"relsyn/client"
	"relsyn/internal/obs"
	"relsyn/internal/pla"
	"relsyn/internal/store"
)

// RouterConfig sizes the router. Peers is required; every other field
// has a sensible default.
type RouterConfig struct {
	// Peers is the relsynd shard fleet (host:port or URL); the same
	// list, in any order, that each shard was given via -peers.
	Peers []string
	// VNodes is the ring's virtual-node count per peer (default
	// DefaultVNodes). Must match the shards' setting for peer cache
	// fill to agree on owners.
	VNodes int
	// HedgeAfter races the next ring replica against a slow owner after
	// this delay. Zero or negative disables hedging (cmd/relsyn-router's
	// flag defaults to 100ms).
	HedgeAfter time.Duration
	// ForwardTimeout bounds one forwarded HTTP exchange (default 2m).
	ForwardTimeout time.Duration
	// MaxAttempts is the per-peer retry budget handed to relsyn/client
	// (default 2: one try, one retry — cross-peer failover is the
	// router's own second line of defense).
	MaxAttempts int
	// BreakerThreshold / BreakerCooldown configure the per-peer circuit
	// breaker (defaults: 3 consecutive failures, 5s cooldown, as
	// internal/store's).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Name identifies this router in the HeaderForwarded marker
	// (default "relsyn-router").
	Name string
	// HTTPClient overrides the forwarding transport (tests).
	HTTPClient *http.Client
	// Metrics receives the relsyn_cluster_* series (default
	// obs.Default).
	Metrics *obs.Registry
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.VNodes <= 0 {
		c.VNodes = DefaultVNodes
	}
	if c.ForwardTimeout <= 0 {
		c.ForwardTimeout = 2 * time.Minute
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 2
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.Name == "" {
		c.Name = "relsyn-router"
	}
	if c.Metrics == nil {
		c.Metrics = obs.Default
	}
	return c
}

// peer is one shard as the router sees it: a retrying client plus a
// health breaker and its per-peer counters.
type peer struct {
	addr      string
	client    *client.Client
	breaker   *store.Breaker
	forwards  obs.Counter
	failovers obs.Counter
}

// Router is the stateless shard router. Safe for concurrent use.
type Router struct {
	cfg     RouterConfig
	ring    *Ring
	byAddr  map[string]*peer
	started time.Time

	hedges    obs.Counter
	hedgeWins obs.Counter
	loops     obs.Counter
}

// NewRouter validates cfg, builds the ring, and connects a client per
// peer.
func NewRouter(cfg RouterConfig) (*Router, error) {
	cfg = cfg.withDefaults()
	ring, err := NewRing(cfg.Peers, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	rt := &Router{
		cfg:     cfg,
		ring:    ring,
		byAddr:  make(map[string]*peer, len(ring.Peers())),
		started: time.Now(),
	}
	reg := cfg.Metrics
	reg.SetHelp("relsyn_cluster_forwards_total", "Requests forwarded to a shard, by peer (hedges and failovers included).")
	reg.SetHelp("relsyn_cluster_failovers_total", "Forwards abandoned for the next ring replica after a transport error or retry-exhausted 5xx, by failed peer.")
	reg.SetHelp("relsyn_cluster_hedges_total", "Hedge forwards launched against slow owners.")
	reg.SetHelp("relsyn_cluster_hedge_wins_total", "Hedge forwards that answered before the primary.")
	reg.SetHelp("relsyn_cluster_loops_broken_total", "Inbound requests refused with 508 because they already carried the forwarding marker.")
	reg.SetHelp("relsyn_cluster_peer_degraded", "1 while the peer's circuit breaker is open (requests route around it), by peer.")
	reg.RegisterCounter("relsyn_cluster_hedges_total", &rt.hedges)
	reg.RegisterCounter("relsyn_cluster_hedge_wins_total", &rt.hedgeWins)
	reg.RegisterCounter("relsyn_cluster_loops_broken_total", &rt.loops)
	httpClient := cfg.HTTPClient
	if httpClient == nil {
		httpClient = &http.Client{Timeout: cfg.ForwardTimeout}
	}
	for _, addr := range ring.Peers() {
		cl, err := client.New(client.Config{
			BaseURL:     BaseURL(addr),
			HTTPClient:  httpClient,
			MaxAttempts: cfg.MaxAttempts,
			Metrics:     reg,
			Header:      http.Header{HeaderForwarded: []string{cfg.Name}},
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: peer %s: %w", addr, err)
		}
		p := &peer{
			addr:    addr,
			client:  cl,
			breaker: store.NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
		}
		reg.RegisterCounter("relsyn_cluster_forwards_total", &p.forwards, obs.L("peer", addr))
		reg.RegisterCounter("relsyn_cluster_failovers_total", &p.failovers, obs.L("peer", addr))
		reg.GaugeFunc("relsyn_cluster_peer_degraded", func() float64 {
			if p.breaker.Degraded() {
				return 1
			}
			return 0
		}, obs.L("peer", addr))
		rt.byAddr[addr] = p
	}
	return rt, nil
}

// Ring exposes the router's placement ring (tests, /statsz).
func (rt *Router) Ring() *Ring { return rt.ring }

// candidates returns the full failover chain for a spec hash in ring
// order: the owner first, then its successors.
func (rt *Router) candidates(specHash string) []*peer {
	addrs := rt.ring.Replicas(specHash, 0)
	out := make([]*peer, len(addrs))
	for i, a := range addrs {
		out[i] = rt.byAddr[a]
	}
	return out
}

// fwdResult is one forwarded call's outcome.
type fwdResult[T any] struct {
	env   T
	code  int
	err   error
	p     *peer
	hedge bool
}

// forwardRace fans one forwarding call out over cands: launch the first
// candidate whose breaker admits it, hedge to the next after HedgeAfter,
// fail over on error. The first definitive answer (err == nil from
// call, 4xx included) wins and cancels the rest. If every candidate's
// breaker is open the first is tried anyway — when the whole fleet
// looks dead, availability beats politeness.
func forwardRace[T any](rt *Router, ctx context.Context, cands []*peer,
	call func(ctx context.Context, p *peer) (T, int, error)) (T, int, error) {
	var zero T
	cctx, cancel := context.WithCancel(ctx)
	defer cancel() // reap the losers
	results := make(chan fwdResult[T], len(cands))
	next, pending := 0, 0
	var tripped []*peer // candidates whose breaker refused them, in order
	fire := func(p *peer, hedge bool) {
		pending++
		p.forwards.Inc()
		if hedge {
			rt.hedges.Inc()
		}
		go func() {
			env, code, err := call(cctx, p)
			results <- fwdResult[T]{env: env, code: code, err: err, p: p, hedge: hedge}
		}()
	}
	// launchNext starts the next breaker-admitted candidate; candidates
	// the breaker refuses queue up as a last resort.
	launchNext := func(hedge bool) bool {
		for next < len(cands) {
			p := cands[next]
			next++
			if !p.breaker.Allow() {
				tripped = append(tripped, p)
				continue
			}
			fire(p, hedge)
			return true
		}
		if len(tripped) > 0 {
			p := tripped[0]
			tripped = tripped[1:]
			fire(p, hedge)
			return true
		}
		return false
	}
	if !launchNext(false) {
		return zero, 0, errors.New("cluster: no forwarding candidates")
	}
	var hedgeC <-chan time.Time
	if rt.cfg.HedgeAfter > 0 && len(cands) > 1 {
		t := time.NewTimer(rt.cfg.HedgeAfter)
		defer t.Stop()
		hedgeC = t.C
	}
	var lastErr error
	for {
		select {
		case r := <-results:
			pending--
			if r.err == nil {
				r.p.breaker.Record(nil)
				if r.hedge {
					rt.hedgeWins.Inc()
				}
				return r.env, r.code, nil
			}
			r.p.breaker.Record(r.err)
			r.p.failovers.Inc()
			lastErr = r.err
			if !launchNext(false) && pending == 0 {
				return zero, 0, lastErr
			}
		case <-hedgeC:
			hedgeC = nil
			launchNext(true)
		case <-ctx.Done():
			return zero, 0, ctx.Err()
		}
	}
}

// Handler returns the router's HTTP handler: the same public surface as
// a shard (/v1/synth, /v1/synth/batch, /v1/jobs/{id}) plus router-side
// /healthz, /statsz, and /metrics.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern, name string, h http.HandlerFunc) {
		mux.Handle(pattern, Instrument(rt.cfg.Metrics, name, h))
	}
	route("POST /v1/synth", "/v1/synth", rt.handleSynth)
	route("POST /v1/synth/batch", "/v1/synth/batch", rt.handleBatch)
	route("GET /v1/jobs/{id}", "/v1/jobs/{id}", rt.handleJob)
	route("GET /healthz", "/healthz", rt.handleHealthz)
	route("GET /statsz", "/statsz", rt.handleStatsz)
	route("GET /metrics", "/metrics", rt.handleMetrics)
	return mux
}

// breakLoop refuses requests that already crossed a routing hop.
// Reports true when the request was handled (refused).
func (rt *Router) breakLoop(w http.ResponseWriter, r *http.Request) bool {
	if via := r.Header.Get(HeaderForwarded); via != "" {
		rt.loops.Inc()
		WriteJSON(w, http.StatusLoopDetected, client.Response{
			Status: "loop",
			Error:  fmt.Sprintf("cluster: forwarding loop: request already forwarded via %q — check -peers for the router's own address", via),
		})
		return true
	}
	return false
}

func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	return io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
}

func (rt *Router) handleSynth(w http.ResponseWriter, r *http.Request) {
	if rt.breakLoop(w, r) {
		return
	}
	body, err := readBody(w, r)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "read request: %v", err)
		return
	}
	var req struct {
		PLA string `json:"pla"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		WriteError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	_, hash, err := pla.ParseSpec(req.PLA)
	if err != nil {
		WriteJSON(w, http.StatusBadRequest, client.Response{Status: "invalid", Error: fmt.Sprintf("parse pla: %v", err)})
		return
	}
	hdr := ForwardHeaders(r.Header, rt.cfg.Name)
	env, code, err := forwardRace(rt, r.Context(), rt.candidates(hash),
		func(ctx context.Context, p *peer) (*client.Response, int, error) {
			return p.client.Do(ctx, http.MethodPost, "/v1/synth", body, hdr)
		})
	if err != nil {
		WriteJSON(w, http.StatusBadGateway, client.Response{Status: "unreachable", Error: err.Error()})
		return
	}
	WriteJSON(w, code, env)
}

func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	if rt.breakLoop(w, r) {
		return
	}
	body, err := readBody(w, r)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "read request: %v", err)
		return
	}
	var breq struct {
		Jobs []json.RawMessage `json:"jobs"`
	}
	if err := json.Unmarshal(body, &breq); err != nil {
		WriteError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	if len(breq.Jobs) == 0 {
		WriteError(w, http.StatusBadRequest, "empty batch")
		return
	}
	// Place every job; invalid specs are answered inline (the router is
	// the parse authority — there is no shard to own an unhashable
	// spec). Valid jobs group into per-owner sub-batches.
	results := make([]client.Response, len(breq.Jobs))
	groups := make(map[string][]int) // owner addr -> original indices
	groupHash := make(map[string]string)
	for i, raw := range breq.Jobs {
		var job struct {
			PLA string `json:"pla"`
		}
		if err := json.Unmarshal(raw, &job); err != nil {
			results[i] = client.Response{Status: "invalid", Error: fmt.Sprintf("decode job: %v", err)}
			continue
		}
		_, hash, err := pla.ParseSpec(job.PLA)
		if err != nil {
			results[i] = client.Response{Status: "invalid", Error: fmt.Sprintf("parse pla: %v", err)}
			continue
		}
		owner := rt.ring.Owner(hash)
		groups[owner] = append(groups[owner], i)
		if _, ok := groupHash[owner]; !ok {
			// The failover chain for the whole sub-batch follows its
			// first key's ring order; co-owned keys share successors
			// often enough that this stays one hop in the common case.
			groupHash[owner] = hash
		}
	}
	hdr := ForwardHeaders(r.Header, rt.cfg.Name)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for owner, idxs := range groups {
		wg.Add(1)
		go func(owner string, idxs []int) {
			defer wg.Done()
			sub := struct {
				Jobs []json.RawMessage `json:"jobs"`
			}{Jobs: make([]json.RawMessage, len(idxs))}
			for k, i := range idxs {
				sub.Jobs[k] = breq.Jobs[i]
			}
			subBody, err := json.Marshal(sub)
			if err != nil {
				mu.Lock()
				for _, i := range idxs {
					results[i] = client.Response{Status: "error", Error: err.Error()}
				}
				mu.Unlock()
				return
			}
			br, _, err := forwardRaceBatch(rt, r.Context(), rt.candidates(groupHash[owner]), subBody, hdr)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err != nil:
				for _, i := range idxs {
					results[i] = client.Response{Status: "unreachable", Error: err.Error()}
				}
			case br.batch == nil || len(br.batch.Results) != len(idxs):
				// Definitive non-batch answer: a whole-batch 4xx envelope
				// or a malformed body — fail every slot in this group.
				msg := "cluster: malformed sub-batch response"
				if br.errEnv != nil && br.errEnv.Error != "" {
					msg = br.errEnv.Error
				}
				for _, i := range idxs {
					results[i] = client.Response{Status: "error", Error: msg}
				}
			default:
				for k, i := range idxs {
					results[i] = br.batch.Results[k]
				}
			}
		}(owner, idxs)
	}
	wg.Wait()
	WriteJSON(w, http.StatusOK, client.BatchResponse{Results: results})
}

// batchOutcome wraps DoBatch's two-envelope result for forwardRace.
type batchOutcome struct {
	batch  *client.BatchResponse
	errEnv *client.Response
}

func forwardRaceBatch(rt *Router, ctx context.Context, cands []*peer, body []byte, hdr http.Header) (*batchOutcome, int, error) {
	return forwardRace(rt, ctx, cands,
		func(ctx context.Context, p *peer) (*batchOutcome, int, error) {
			batch, errEnv, code, err := p.client.DoBatch(ctx, body, hdr)
			if err != nil {
				return nil, code, err
			}
			return &batchOutcome{batch: batch, errEnv: errEnv}, code, nil
		})
}

// handleJob fans a job poll out to every shard: job IDs are minted by
// shards, so the router cannot place them on the ring. First 200 wins.
func (rt *Router) handleJob(w http.ResponseWriter, r *http.Request) {
	if rt.breakLoop(w, r) {
		return
	}
	id := r.PathValue("id")
	hdr := ForwardHeaders(r.Header, rt.cfg.Name)
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	type pollResult struct {
		env  *client.Response
		code int
		err  error
	}
	results := make(chan pollResult, len(rt.byAddr))
	for _, p := range rt.byAddr {
		go func(p *peer) {
			env, code, err := p.client.Do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, hdr)
			results <- pollResult{env, code, err}
		}(p)
	}
	sawMiss := false
	var lastErr error
	for range rt.byAddr {
		pr := <-results
		switch {
		case pr.err == nil && pr.code == http.StatusOK:
			WriteJSON(w, http.StatusOK, pr.env)
			return
		case pr.err == nil && pr.code == http.StatusNotFound:
			sawMiss = true
		case pr.err != nil:
			lastErr = pr.err
		default:
			sawMiss = true
		}
	}
	if sawMiss || lastErr == nil {
		WriteError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	WriteJSON(w, http.StatusBadGateway, client.Response{Status: "unreachable", Error: lastErr.Error()})
}

// RouterHealth is the /healthz body: overall status plus per-peer
// breaker state.
type RouterHealth struct {
	// Status is "ok" (every shard live), "degraded" (some breakers
	// open, still routing), or "down" (every breaker open).
	Status string `json:"status"`
	// Peers maps each shard to "ok" or "degraded".
	Peers map[string]string `json:"peers"`
}

// Health classifies the fleet from the router's breakers.
func (rt *Router) Health() RouterHealth {
	h := RouterHealth{Peers: make(map[string]string, len(rt.byAddr))}
	live := 0
	for addr, p := range rt.byAddr {
		if p.breaker.Degraded() {
			h.Peers[addr] = "degraded"
		} else {
			h.Peers[addr] = "ok"
			live++
		}
	}
	switch {
	case live == len(rt.byAddr):
		h.Status = "ok"
	case live > 0:
		h.Status = "degraded"
	default:
		h.Status = "down"
	}
	return h
}

// handleHealthz returns 200 while at least one shard is live (load
// balancers keep routing here as long as the router can make progress);
// 503 only when every peer's breaker is open.
func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	h := rt.Health()
	code := http.StatusOK
	if h.Status == "down" {
		code = http.StatusServiceUnavailable
	}
	WriteJSON(w, code, h)
}

// RouterStats is the /statsz body.
type RouterStats struct {
	UptimeSeconds float64           `json:"uptime_seconds"`
	Ring          RingSnapshot      `json:"ring"`
	Peers         map[string]string `json:"peers"` // breaker states
	Metrics       obs.Snapshot      `json:"metrics"`
}

func (rt *Router) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	peers := make(map[string]string, len(rt.byAddr))
	for addr, p := range rt.byAddr {
		peers[addr] = p.breaker.State()
	}
	WriteJSON(w, http.StatusOK, RouterStats{
		UptimeSeconds: time.Since(rt.started).Seconds(),
		Ring:          rt.ring.Snapshot(),
		Peers:         peers,
		Metrics:       rt.cfg.Metrics.Snapshot(),
	})
}

func (rt *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = rt.cfg.Metrics.WritePrometheus(w)
}
