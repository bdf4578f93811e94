package client

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"relsyn/internal/obs"
	"relsyn/internal/pipeline"
)

// scriptedServer returns an httptest server that replies with the given
// (status, body) script, repeating the last step once exhausted.
func scriptedServer(t *testing.T, steps []struct {
	code    int
	body    string
	headers map[string]string
}) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i := int(calls.Add(1)) - 1
		if i >= len(steps) {
			i = len(steps) - 1
		}
		for k, v := range steps[i].headers {
			w.Header().Set(k, v)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(steps[i].code)
		fmt.Fprint(w, steps[i].body)
	}))
	t.Cleanup(ts.Close)
	return ts, &calls
}

// testClient builds a client with deterministic jitter (factor 1.0) and
// a recording, non-blocking sleeper.
func testClient(t *testing.T, base string, mutate func(*Config)) (*Client, *[]time.Duration, *obs.Registry) {
	t.Helper()
	var delays []time.Duration
	reg := obs.NewRegistry()
	cfg := Config{
		BaseURL: base,
		Metrics: reg,
		Sleep: func(ctx context.Context, d time.Duration) error {
			delays = append(delays, d)
			return ctx.Err()
		},
		Rand: func() float64 { return 0.5 }, // jitter factor exactly 1.0
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c, &delays, reg
}

func TestRetryBackoffSchedule(t *testing.T) {
	ts, calls := scriptedServer(t, []struct {
		code    int
		body    string
		headers map[string]string
	}{
		{code: 503, body: `{"status":"draining"}`},
		{code: 500, body: `{"status":"error"}`},
		{code: 200, body: `{"status":"done","job_id":"j1"}`},
	})
	c, delays, reg := testClient(t, ts.URL, nil)
	resp, err := c.Job(context.Background(), "j1")
	if err != nil {
		t.Fatalf("Job: %v", err)
	}
	if resp.Status != "done" {
		t.Fatalf("status = %s, want done", resp.Status)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d calls, want 3", calls.Load())
	}
	// Exponential schedule with deterministic jitter: 100ms, 200ms.
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond}
	if len(*delays) != len(want) {
		t.Fatalf("delays = %v, want %v", *delays, want)
	}
	for i, d := range *delays {
		if d != want[i] {
			t.Fatalf("delay[%d] = %v, want %v", i, d, want[i])
		}
	}
	if got := reg.Counter("relsyn_client_retries_total").Value(); got != 2 {
		t.Fatalf("retries counter = %d, want 2", got)
	}
}

func TestRetryAfterOverridesBackoff(t *testing.T) {
	ts, _ := scriptedServer(t, []struct {
		code    int
		body    string
		headers map[string]string
	}{
		{code: 429, body: `{"status":"rejected"}`, headers: map[string]string{"Retry-After": "2"}},
		{code: 429, body: `{"status":"rejected"}`, headers: map[string]string{"Retry-After": "3600"}},
		{code: 200, body: `{"status":"done"}`},
	})
	c, delays, _ := testClient(t, ts.URL, nil)
	if _, err := c.Job(context.Background(), "x"); err != nil {
		t.Fatalf("Job: %v", err)
	}
	// First delay follows the server's hint; the second is the hint
	// capped at MaxBackoff (5s default) — never an hour-long stall.
	want := []time.Duration{2 * time.Second, 5 * time.Second}
	if len(*delays) != 2 || (*delays)[0] != want[0] || (*delays)[1] != want[1] {
		t.Fatalf("delays = %v, want %v", *delays, want)
	}
}

func TestMaxAttemptsExhausted(t *testing.T) {
	ts, calls := scriptedServer(t, []struct {
		code    int
		body    string
		headers map[string]string
	}{
		{code: 503, body: `{"status":"draining"}`},
	})
	c, _, reg := testClient(t, ts.URL, func(cfg *Config) { cfg.MaxAttempts = 3 })
	_, err := c.Job(context.Background(), "x")
	if err == nil || !strings.Contains(err.Error(), "after 3 attempts") {
		t.Fatalf("err = %v, want exhaustion after 3 attempts", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d calls, want 3", calls.Load())
	}
	if got := reg.Counter("relsyn_client_retries_total").Value(); got != 2 {
		t.Fatalf("retries counter = %d, want 2", got)
	}
}

func TestNonRetryableFailsFast(t *testing.T) {
	ts, calls := scriptedServer(t, []struct {
		code    int
		body    string
		headers map[string]string
	}{
		{code: 400, body: `{"status":"invalid","error":"parse pla: empty pla"}`},
	})
	c, delays, _ := testClient(t, ts.URL, nil)
	resp, err := c.Synth(context.Background(), "", pipeline.JobOptions{})
	if err == nil || !strings.Contains(err.Error(), "HTTP 400") {
		t.Fatalf("err = %v, want HTTP 400", err)
	}
	if resp == nil || resp.Error == "" {
		t.Fatalf("resp = %+v, want decoded error envelope", resp)
	}
	if calls.Load() != 1 || len(*delays) != 0 {
		t.Fatalf("client retried a 400 (%d calls, %v delays)", calls.Load(), *delays)
	}
}

func TestTransportErrorRetried(t *testing.T) {
	// A server that immediately closes is a pure transport failure.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	ts.Close()
	c, _, _ := testClient(t, ts.URL, func(cfg *Config) { cfg.MaxAttempts = 2 })
	_, err := c.Job(context.Background(), "x")
	if err == nil || !strings.Contains(err.Error(), "after 2 attempts") {
		t.Fatalf("err = %v, want transport retries exhausted", err)
	}
}

func TestWaitPollsToTerminal(t *testing.T) {
	ts, calls := scriptedServer(t, []struct {
		code    int
		body    string
		headers map[string]string
	}{
		{code: 200, body: `{"status":"queued","job_id":"j"}`},
		{code: 200, body: `{"status":"running","job_id":"j"}`},
		{code: 200, body: `{"status":"done","job_id":"j"}`},
	})
	c, _, _ := testClient(t, ts.URL, nil)
	resp, err := c.Wait(context.Background(), "j")
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if resp.Status != "done" || calls.Load() != 3 {
		t.Fatalf("status %s after %d polls, want done after 3", resp.Status, calls.Load())
	}
}

func TestTerminal(t *testing.T) {
	for status, want := range map[string]bool{
		"done": true, "failed": true, "expired": true,
		"queued": false, "running": false, "": false,
	} {
		if got := (&Response{Status: status}).Terminal(); got != want {
			t.Errorf("Terminal(%q) = %v, want %v", status, got, want)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted an empty BaseURL")
	}
}

// TestClientMetricsExposition pins the wire names of the client series:
// CI greps the Prometheus exposition for relsyn_client_retries_total.
func TestClientMetricsExposition(t *testing.T) {
	ts, _ := scriptedServer(t, []struct {
		code    int
		body    string
		headers map[string]string
	}{
		{code: 503, body: `{"status":"draining"}`},
		{code: 200, body: `{"status":"done"}`},
	})
	c, _, reg := testClient(t, ts.URL, nil)
	if _, err := c.Job(context.Background(), "x"); err != nil {
		t.Fatalf("Job: %v", err)
	}
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	text := sb.String()
	for _, want := range []string{
		"relsyn_client_retries_total 1",
		`relsyn_client_requests_total{code="200"} 1`,
		`relsyn_client_requests_total{code="503"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestWaitHonorsRetryAfterUnder429 pins the poll loop's interaction
// with backpressure: a 429 inside a poll is retried by the transport
// layer honoring the server's Retry-After hint, and the poll schedule
// resumes where it left off once the server answers again.
func TestWaitHonorsRetryAfterUnder429(t *testing.T) {
	ts, calls := scriptedServer(t, []struct {
		code    int
		body    string
		headers map[string]string
	}{
		{code: 200, body: `{"status":"queued","job_id":"j"}`},
		{code: 429, body: `{"status":"rejected"}`, headers: map[string]string{"Retry-After": "3"}},
		{code: 429, body: `{"status":"rejected"}`, headers: map[string]string{"Retry-After": "2"}},
		{code: 200, body: `{"status":"running","job_id":"j"}`},
		{code: 200, body: `{"status":"done","job_id":"j"}`},
	})
	c, delays, reg := testClient(t, ts.URL, nil)
	resp, err := c.Wait(context.Background(), "j")
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if resp.Status != "done" {
		t.Fatalf("status = %s, want done", resp.Status)
	}
	if calls.Load() != 5 {
		t.Fatalf("server saw %d calls, want 5", calls.Load())
	}
	// poll 1 sleeps backoff(1); the 429s sleep their Retry-After hints;
	// poll 2 (which absorbed both 429s) sleeps backoff(2).
	want := []time.Duration{
		100 * time.Millisecond, // after the first pending poll
		3 * time.Second,        // Retry-After: 3
		2 * time.Second,        // Retry-After: 2
		200 * time.Millisecond, // after the second pending poll
	}
	if len(*delays) != len(want) {
		t.Fatalf("delays = %v, want %v", *delays, want)
	}
	for i, d := range *delays {
		if d != want[i] {
			t.Fatalf("delay[%d] = %v, want %v", i, d, want[i])
		}
	}
	if got := reg.Counter("relsyn_client_retries_total").Value(); got != 2 {
		t.Fatalf("retries counter = %d, want 2 (the 429s; poll sleeps are not retries)", got)
	}
}

// TestWaitBoundedPollsAndCtxCancel pins two Wait safety properties: the
// per-poll delay is capped (the schedule stops growing at backoff(6)),
// and a context cancellation mid-wait surfaces promptly instead of
// looping forever against a never-terminal job.
func TestWaitBoundedPollsAndCtxCancel(t *testing.T) {
	ts, calls := scriptedServer(t, []struct {
		code    int
		body    string
		headers map[string]string
	}{
		{code: 200, body: `{"status":"running","job_id":"j"}`},
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const sleepsBeforeCancel = 8
	var delays []time.Duration
	c, _, _ := testClient(t, ts.URL, func(cfg *Config) {
		cfg.Sleep = func(ctx context.Context, d time.Duration) error {
			delays = append(delays, d)
			if len(delays) >= sleepsBeforeCancel {
				cancel()
			}
			return ctx.Err()
		}
	})
	if _, err := c.Wait(ctx, "j"); err == nil || ctx.Err() == nil {
		t.Fatalf("Wait = %v, want context cancellation error", err)
	}
	// One poll per sleep: the cancelled sleep ends the loop.
	if calls.Load() != sleepsBeforeCancel {
		t.Fatalf("server saw %d polls, want %d", calls.Load(), sleepsBeforeCancel)
	}
	// 100ms << 5 = 3.2s: the schedule doubles for five polls and then
	// holds — an unbounded doubling would blow through MaxBackoff and
	// make long waits unresponsive to cancellation.
	cap6 := 3200 * time.Millisecond
	want := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, 1600 * time.Millisecond, cap6, cap6, cap6,
	}
	for i, d := range delays {
		if d != want[i] {
			t.Fatalf("delay[%d] = %v, want %v (full: %v)", i, d, want[i], delays)
		}
	}
}
