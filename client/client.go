// Package client is the Go client for the relsynd synthesis service,
// with the retry behavior a fleet caller needs built in: capped
// exponential backoff and jitter on transport errors, 429 (queue
// backpressure), 503 (draining), and other 5xx responses. A 429's
// Retry-After header overrides the computed backoff (capped at
// MaxBackoff) — the server's hint is authoritative.
//
// Retries assume idempotent submissions, which relsynd guarantees:
// identical (spec, options) pairs share one cache entry and one
// in-flight execution. Racing a slow shard against another replica is
// relsyn-router's job (its -hedge-after), not the client's.
//
// The client exports relsyn_client_* metrics (requests by code,
// retries) on the configured obs registry.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"relsyn/internal/obs"
	"relsyn/internal/pipeline"
)

// Response is the relsynd job envelope: relsynd and relsyn-router
// write this type (internal/server.SynthResponse is an alias of it).
type Response struct {
	JobID     string              `json:"job_id,omitempty"`
	Status    string              `json:"status"`
	Cached    bool                `json:"cached,omitempty"`
	Coalesced bool                `json:"coalesced,omitempty"`
	Result    *pipeline.JobResult `json:"result,omitempty"`
	Error     string              `json:"error,omitempty"`
}

// Terminal reports whether the envelope describes a finished job.
func (r *Response) Terminal() bool {
	switch r.Status {
	case "done", "failed", "expired":
		return true
	}
	return false
}

// Config configures New. The zero value of every field has a sensible
// default; only BaseURL is required.
type Config struct {
	// BaseURL locates the service, e.g. "http://127.0.0.1:8337".
	BaseURL string
	// HTTPClient overrides the transport (default: http.Client with a
	// 2-minute overall timeout; per-call deadlines come from ctx).
	HTTPClient *http.Client

	// MaxAttempts bounds tries per logical request, first attempt
	// included (default 4).
	MaxAttempts int
	// BaseBackoff is the first retry delay (default 100ms); attempt k
	// waits BaseBackoff·2^(k-1), capped at MaxBackoff (default 5s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// JitterFrac spreads each delay uniformly over ±frac·delay
	// (default 0.2; 0 < frac <= 1). Jitter prevents synchronized retry
	// storms from a fleet of clients hitting one recovering server.
	JitterFrac float64

	// Header holds extra headers applied to every request — e.g. the
	// cluster forwarding marker (internal/cluster.HeaderForwarded) that
	// relsyn-router and relsynd's peer-fill path stamp on forwarded
	// traffic. Per-call headers passed to Do override same-named keys.
	Header http.Header

	// Metrics receives relsyn_client_* series (default obs.Default).
	Metrics *obs.Registry

	// Sleep and Rand are injectable for deterministic tests.
	Sleep func(ctx context.Context, d time.Duration) error
	Rand  func() float64
}

func (c Config) withDefaults() Config {
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{Timeout: 2 * time.Minute}
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 100 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 5 * time.Second
	}
	if c.JitterFrac <= 0 || c.JitterFrac > 1 {
		c.JitterFrac = 0.2
	}
	if c.Metrics == nil {
		c.Metrics = obs.Default
	}
	if c.Sleep == nil {
		c.Sleep = func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-t.C:
				return nil
			}
		}
	}
	if c.Rand == nil {
		var mu sync.Mutex
		rng := rand.New(rand.NewSource(time.Now().UnixNano()))
		c.Rand = func() float64 {
			mu.Lock()
			defer mu.Unlock()
			return rng.Float64()
		}
	}
	return c
}

// Client is a relsynd API client. Safe for concurrent use.
type Client struct {
	cfg     Config
	retries obs.Counter
}

// New validates cfg and returns a client.
func New(cfg Config) (*Client, error) {
	cfg = cfg.withDefaults()
	if cfg.BaseURL == "" {
		return nil, errors.New("client: Config.BaseURL is required")
	}
	cfg.BaseURL = strings.TrimRight(cfg.BaseURL, "/")
	c := &Client{cfg: cfg}
	reg := cfg.Metrics
	reg.SetHelp("relsyn_client_retries_total", "Requests retried after a retryable failure (429/503/5xx/transport).")
	reg.RegisterCounter("relsyn_client_retries_total", &c.retries)
	return c, nil
}

// SynthRequest mirrors the POST /v1/synth body.
type synthRequest struct {
	PLA      string              `json:"pla"`
	Options  pipeline.JobOptions `json:"options"`
	Priority int                 `json:"priority,omitempty"`
	Wait     *bool               `json:"wait,omitempty"`
}

// BatchResponse is the relsynd batch envelope (internal/server's
// BatchResponse is an alias of it): one Response per submitted job, in
// request order.
type BatchResponse struct {
	Results []Response `json:"results"`
}

// BaseURL returns the configured service base URL (scheme included,
// trailing slash trimmed).
func (c *Client) BaseURL() string { return c.cfg.BaseURL }

// Synth submits one job and waits for its result (server-side wait).
func (c *Client) Synth(ctx context.Context, plaText string, opts pipeline.JobOptions) (*Response, error) {
	return c.postJob(ctx, synthRequest{PLA: plaText, Options: opts})
}

// SynthAsync submits one job without waiting; poll the returned JobID
// with Job (or use Wait).
func (c *Client) SynthAsync(ctx context.Context, plaText string, opts pipeline.JobOptions) (*Response, error) {
	f := false
	return c.postJob(ctx, synthRequest{PLA: plaText, Options: opts, Wait: &f})
}

// Job polls one job by id.
func (c *Client) Job(ctx context.Context, id string) (*Response, error) {
	return c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil)
}

// Wait polls id until the job reaches a terminal state, backing off
// between polls with the client's backoff schedule (restarting the
// schedule on every successful poll).
func (c *Client) Wait(ctx context.Context, id string) (*Response, error) {
	for poll := 1; ; poll++ {
		resp, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		if resp.Terminal() {
			return resp, nil
		}
		if err := c.cfg.Sleep(ctx, c.backoff(min(poll, 6))); err != nil {
			return nil, err
		}
	}
}

func (c *Client) postJob(ctx context.Context, req synthRequest) (*Response, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("client: marshal request: %w", err)
	}
	return c.do(ctx, http.MethodPost, "/v1/synth", body)
}

// retryableStatus classifies responses worth retrying: backpressure,
// draining, and transient server errors.
func retryableStatus(code int) bool {
	return code == http.StatusTooManyRequests || code >= 500
}

// do runs one logical request and decodes the single-job envelope,
// turning 4xx responses into errors (legacy convenience shape used by
// Synth/Job/Wait).
func (c *Client) do(ctx context.Context, method, path string, body []byte) (*Response, error) {
	env, code, err := c.Do(ctx, method, path, body, nil)
	if err != nil {
		return env, err
	}
	if code >= 400 {
		return env, fmt.Errorf("client: %s %s: HTTP %d: %s", method, path, code, env.Error)
	}
	return env, nil
}

// Do runs one logical request through the retry policy
// and decodes the single-job envelope. Unlike Synth/Job it reports
// definitive 4xx responses with a nil error — the envelope and status
// code are the answer — which is what a forwarding router needs to pass
// a shard's verdict through verbatim. A non-nil error means there was
// no definitive response: transport failure or retryable statuses
// (429/5xx) through every attempt. hdr sets per-call headers on top of
// Config.Header.
func (c *Client) Do(ctx context.Context, method, path string, body []byte, hdr http.Header) (*Response, int, error) {
	r, err := c.doRaw(ctx, method, path, body, hdr)
	if err != nil {
		return nil, 0, err
	}
	var env Response
	if derr := json.Unmarshal(r.body, &env); derr != nil {
		return nil, r.code, fmt.Errorf("client: %s %s: decode response (HTTP %d): %w", method, path, r.code, derr)
	}
	if r.code >= 400 && env.Status == "" {
		env.Status = "error"
	}
	return &env, r.code, nil
}

// DoBatch posts a pre-marshaled /v1/synth/batch body through the retry
// policy. Like Do, a definitive response — including a 4xx rejection —
// returns a nil error; the caller inspects the code. On 4xx the batch
// envelope is nil and the error body is returned as errEnv.
func (c *Client) DoBatch(ctx context.Context, body []byte, hdr http.Header) (batch *BatchResponse, errEnv *Response, code int, err error) {
	r, err := c.doRaw(ctx, http.MethodPost, "/v1/synth/batch", body, hdr)
	if err != nil {
		return nil, nil, 0, err
	}
	if r.code >= 400 {
		var env Response
		if derr := json.Unmarshal(r.body, &env); derr != nil {
			return nil, nil, r.code, fmt.Errorf("client: POST /v1/synth/batch: decode response (HTTP %d): %w", r.code, derr)
		}
		return nil, &env, r.code, nil
	}
	var br BatchResponse
	if derr := json.Unmarshal(r.body, &br); derr != nil {
		return nil, nil, r.code, fmt.Errorf("client: POST /v1/synth/batch: decode response (HTTP %d): %w", r.code, derr)
	}
	return &br, nil, r.code, nil
}

// FetchCache asks the shard's internal cache endpoint for a finished
// result by its full cache key (spec hash + "|" + options key). It is a
// single round trip with no retries: a fill is an optimization, and a
// miss must stay cheaper than the recompute it avoids. ok reports a
// hit; a 404 is (nil, false, nil).
func (c *Client) FetchCache(ctx context.Context, key string) (*pipeline.JobResult, bool, error) {
	r := c.exchange(ctx, http.MethodGet, "/v1/cache/"+url.PathEscape(key), nil, nil)
	if r.err != nil {
		return nil, false, fmt.Errorf("client: GET /v1/cache: %w", r.err)
	}
	if r.code == http.StatusNotFound {
		return nil, false, nil
	}
	if r.code != http.StatusOK {
		return nil, false, fmt.Errorf("client: GET /v1/cache: HTTP %d", r.code)
	}
	var env Response
	if err := json.Unmarshal(r.body, &env); err != nil {
		return nil, false, fmt.Errorf("client: GET /v1/cache: decode response: %w", err)
	}
	if env.Result == nil {
		return nil, false, nil
	}
	return env.Result, true, nil
}

// doRaw runs one logical request through the retry policy, returning
// the first definitive exchange (any status outside the retryable set).
// The response body is fully read but not decoded.
func (c *Client) doRaw(ctx context.Context, method, path string, body []byte, hdr http.Header) (attemptResult, error) {
	var lastErr error
	for attempt := 1; ; attempt++ {
		r := c.exchange(ctx, method, path, body, hdr)
		switch {
		case r.err == nil && !retryableStatus(r.code):
			return r, nil
		case r.err == nil:
			lastErr = fmt.Errorf("client: %s %s: HTTP %d", method, path, r.code)
		default:
			lastErr = fmt.Errorf("client: %s %s: %w", method, path, r.err)
		}
		if attempt >= c.cfg.MaxAttempts || ctx.Err() != nil {
			return attemptResult{}, fmt.Errorf("%w (after %d attempts)", lastErr, attempt)
		}
		delay := c.backoff(attempt)
		// Retry-After (seconds form) from a 429/503 overrides the
		// computed backoff, capped at MaxBackoff — the server knows its
		// own recovery horizon better than our schedule does.
		if r.retryAfter > 0 {
			delay = min(r.retryAfter, c.cfg.MaxBackoff)
		}
		c.retries.Inc()
		if err := c.cfg.Sleep(ctx, delay); err != nil {
			return attemptResult{}, err
		}
	}
}

// backoff computes the k-th retry delay with jitter.
func (c *Client) backoff(attempt int) time.Duration {
	d := c.cfg.BaseBackoff << (attempt - 1)
	if d > c.cfg.MaxBackoff || d <= 0 {
		d = c.cfg.MaxBackoff
	}
	jitter := 1 + c.cfg.JitterFrac*(2*c.cfg.Rand()-1)
	return time.Duration(float64(d) * jitter)
}

// attemptResult carries one physical exchange's outcome — the status
// code and raw body of a completed round trip — including any
// Retry-After hint parsed from a 429/503 response.
type attemptResult struct {
	body       []byte
	code       int
	retryAfter time.Duration
	err        error
}

// exchange performs one HTTP round trip and reads the full body. A
// body-read failure (e.g. the peer died mid-response) is a transport
// error and therefore retryable; decoding is the caller's concern.
func (c *Client) exchange(ctx context.Context, method, path string, body []byte, hdr http.Header) attemptResult {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.cfg.BaseURL+path, rd)
	if err != nil {
		return attemptResult{err: err}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, vs := range c.cfg.Header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	for k, vs := range hdr {
		req.Header[k] = vs // per-call headers override Config.Header
	}
	httpResp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return attemptResult{err: err}
	}
	defer httpResp.Body.Close()
	c.cfg.Metrics.Counter("relsyn_client_requests_total",
		obs.L("code", strconv.Itoa(httpResp.StatusCode))).Inc()
	raw, err := io.ReadAll(io.LimitReader(httpResp.Body, 64<<20))
	if err != nil {
		return attemptResult{err: fmt.Errorf("read response (HTTP %d): %w", httpResp.StatusCode, err)}
	}
	out := attemptResult{body: raw, code: httpResp.StatusCode}
	if out.code == http.StatusTooManyRequests || out.code == http.StatusServiceUnavailable {
		if ra, err := strconv.Atoi(httpResp.Header.Get("Retry-After")); err == nil && ra > 0 {
			out.retryAfter = time.Duration(ra) * time.Second
		}
	}
	return out
}
