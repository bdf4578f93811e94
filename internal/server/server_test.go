package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"relsyn/internal/jobqueue"
	"relsyn/internal/obs"
	"relsyn/internal/pipeline"
	"relsyn/internal/pla"
	"relsyn/internal/tt"
)

// specPLA builds a tiny but distinct 4-input spec per seed.
func specPLA(seed int) string {
	var b strings.Builder
	b.WriteString(".i 4\n.o 1\n")
	on := []int{seed % 16, (seed*3 + 1) % 16, (seed*5 + 2) % 16}
	dc := (seed*7 + 5) % 16
	seen := map[int]bool{}
	for _, m := range on {
		if m == dc || seen[m] {
			continue
		}
		seen[m] = true
		fmt.Fprintf(&b, "%04b 1\n", m)
	}
	fmt.Fprintf(&b, "%04b -\n", dc)
	b.WriteString(".e\n")
	return b.String()
}

// snapshot reads the job's state.
func (js *jobState) snapshot() (status string, res *pipeline.JobResult, errMsg string) {
	js.mu.Lock()
	defer js.mu.Unlock()
	return js.status, js.result, js.err
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

func serverStats(t *testing.T, base string) Stats {
	t.Helper()
	var st Stats
	getJSON(t, base+"/statsz", &st)
	return st
}

// The acceptance scenario: a 64-job concurrent mix of duplicate and
// distinct specs completes race-clean, with every duplicate served by
// the cache or in-flight coalescing (exactly one pipeline execution per
// distinct spec), verified via /statsz counters.
func TestServer64ConcurrentMixedRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 128, CacheSize: 64})
	const total, distinct = 64, 8

	var wg sync.WaitGroup
	errs := make(chan error, total)
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := SynthRequest{
				PLA:      specPLA(i % distinct),
				Options:  pipeline.JobOptions{Method: "lcf", Threshold: 0.55},
				Priority: i % 3,
			}
			resp, data := postJSON(t, ts.URL+"/v1/synth", req)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("request %d: HTTP %d: %s", i, resp.StatusCode, data)
				return
			}
			var sr SynthResponse
			if err := json.Unmarshal(data, &sr); err != nil {
				errs <- fmt.Errorf("request %d: %v", i, err)
				return
			}
			if sr.Status != StatusDone || sr.Result == nil {
				errs <- fmt.Errorf("request %d: status %q error %q", i, sr.Status, sr.Error)
				return
			}
			if !sr.Result.Verified {
				errs <- fmt.Errorf("request %d: result not verified", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := serverStats(t, ts.URL)
	if st.Submitted != total {
		t.Fatalf("submitted %d, want %d", st.Submitted, total)
	}
	// The key table guarantees exactly one execution per distinct spec:
	// every other request must have been coalesced or cache-hit.
	if st.Completed != distinct {
		t.Fatalf("completed %d pipeline executions, want %d (stats %+v)", st.Completed, distinct, st)
	}
	if st.Cache.Hits+st.Coalesced != total-distinct {
		t.Fatalf("cache_hits %d + coalesced %d != %d", st.Cache.Hits, st.Coalesced, total-distinct)
	}
	if st.Failed != 0 || st.Rejected != 0 || st.Expired != 0 {
		t.Fatalf("unexpected failures: %+v", st)
	}
	if st.Cache.Len != distinct {
		t.Fatalf("cache holds %d entries, want %d", st.Cache.Len, distinct)
	}
	_ = s
}

// Identical specs written differently (permuted rows, redundant cubes)
// and equivalent option spellings land on the same cache entry.
func TestServerCanonicalCacheKey(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 16, CacheSize: 16})
	variants := []SynthRequest{
		{PLA: ".i 3\n.o 1\n01- 1\n111 1\n000 -\n.e\n",
			Options: pipeline.JobOptions{Method: "lcf", Threshold: 0.55}},
		{PLA: ".i 3\n.o 1\n111 1\n000 -\n01- 1\n.e\n", // permuted rows
			Options: pipeline.JobOptions{Method: "LCF", Threshold: 0.55}},
		{PLA: ".i 3\n.o 1\n01- 1\n010 1\n111 1\n000 -\n.e\n", // redundant cube
			Options: pipeline.JobOptions{Method: "lcf", Threshold: 0.55, Fraction: 0.9}},
	}
	for i, req := range variants {
		resp, data := postJSON(t, ts.URL+"/v1/synth", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("variant %d: HTTP %d: %s", i, resp.StatusCode, data)
		}
	}
	st := serverStats(t, ts.URL)
	if st.Completed != 1 {
		t.Fatalf("equivalent requests ran %d pipelines, want 1 (%+v)", st.Completed, st)
	}
	if st.Cache.Hits != 2 {
		t.Fatalf("cache hits %d, want 2", st.Cache.Hits)
	}
}

// blockingBackend lets a test hold workers busy deterministically.
type blockingBackend struct {
	release chan struct{}
	started chan string
}

func (b *blockingBackend) run(ctx context.Context, _ *tt.Function, _ pipeline.JobOptions) (*pipeline.JobResult, error) {
	select {
	case b.started <- "":
	default:
	}
	select {
	case <-b.release:
		return &pipeline.JobResult{Verified: true}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// A full queue rejects with 429 and a Retry-After header; after the
// backlog clears, the same request is admitted.
func TestServerQueueFullRejectsWith429(t *testing.T) {
	bb := &blockingBackend{release: make(chan struct{}), started: make(chan string, 8)}
	_, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 1, CacheSize: 8,
		RetryAfter: 2 * time.Second, Backend: bb.run,
	})

	async := false
	submit := func(seed int) (*http.Response, []byte) {
		return postJSON(t, ts.URL+"/v1/synth", SynthRequest{PLA: specPLA(seed), Wait: &async})
	}
	// First job occupies the worker...
	if resp, data := submit(0); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 0: HTTP %d: %s", resp.StatusCode, data)
	}
	<-bb.started
	// ...second fills the queue...
	if resp, data := submit(1); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 1: HTTP %d: %s", resp.StatusCode, data)
	}
	// ...third distinct spec must be shed.
	resp, data := submit(2)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload: HTTP %d, want 429: %s", resp.StatusCode, data)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After %q, want 2", ra)
	}
	var sr SynthResponse
	if err := json.Unmarshal(data, &sr); err != nil || sr.Status != "rejected" {
		t.Fatalf("rejection body %s (%v)", data, err)
	}
	st := serverStats(t, ts.URL)
	if st.Rejected != 1 {
		t.Fatalf("rejected counter %d, want 1", st.Rejected)
	}
	// Release the workers and let the backlog drain.
	close(bb.release)
	for deadline := time.Now().Add(5 * time.Second); serverStats(t, ts.URL).Completed < 2; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("backlog did not drain")
		}
	}
	// The rejected spec left nothing behind: resubmitted, it starts a
	// fresh job, neither joined nor served from the cache.
	resp, data = submit(2)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmission: HTTP %d, want 202: %s", resp.StatusCode, data)
	}
	var fresh SynthResponse
	if err := json.Unmarshal(data, &fresh); err != nil {
		t.Fatal(err)
	}
	if fresh.JobID == "" || fresh.Coalesced || fresh.Cached {
		t.Fatalf("resubmission = %+v, want a fresh job", fresh)
	}
}

// Drain finishes queued and in-flight jobs before returning, while new
// submissions are refused with 503 and healthz flips to draining.
func TestServerDrainFinishesBacklog(t *testing.T) {
	bb := &blockingBackend{release: make(chan struct{}), started: make(chan string, 8)}
	s := New(Config{Workers: 1, QueueDepth: 8, CacheSize: 8, Backend: bb.run})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	async := false
	ids := make([]string, 3)
	for i := range ids {
		resp, data := postJSON(t, ts.URL+"/v1/synth", SynthRequest{PLA: specPLA(i), Wait: &async})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("job %d: HTTP %d: %s", i, resp.StatusCode, data)
		}
		var sr SynthResponse
		if err := json.Unmarshal(data, &sr); err != nil {
			t.Fatal(err)
		}
		ids[i] = sr.JobID
	}
	<-bb.started // worker holds job 0; jobs 1,2 queued

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	// Draining must become observable, then refuse new work.
	deadline := time.Now().Add(2 * time.Second)
	for !s.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	if resp := getJSON(t, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: HTTP %d", resp.StatusCode)
	}
	if resp, data := postJSON(t, ts.URL+"/v1/synth", SynthRequest{PLA: specPLA(9)}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: HTTP %d: %s", resp.StatusCode, data)
	}

	close(bb.release) // let the backlog finish
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Every job — including the two that were still queued at drain time —
	// must have completed.
	for i, id := range ids {
		var sr SynthResponse
		getJSON(t, ts.URL+"/v1/jobs/"+id, &sr)
		if sr.Status != StatusDone {
			t.Fatalf("job %d (%s) status %q after drain", i, id, sr.Status)
		}
	}
	st := s.Stats()
	if st.Completed != 3 || st.Queue.Len != 0 {
		t.Fatalf("post-drain stats %+v", st)
	}
}

// Async submission + polling via GET /v1/jobs/{id}.
func TestServerAsyncJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 16, CacheSize: 16})
	async := false
	resp, data := postJSON(t, ts.URL+"/v1/synth", SynthRequest{
		PLA:  specPLA(3),
		Wait: &async,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, data)
	}
	var sr SynthResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.JobID == "" {
		t.Fatalf("no job id in %s", data)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var poll SynthResponse
		r := getJSON(t, ts.URL+"/v1/jobs/"+sr.JobID, &poll)
		if r.StatusCode != http.StatusOK {
			t.Fatalf("poll HTTP %d", r.StatusCode)
		}
		if poll.Status == StatusDone {
			if poll.Result == nil || !poll.Result.Verified {
				t.Fatalf("done without verified result: %+v", poll)
			}
			break
		}
		if poll.Status == StatusFailed || poll.Status == StatusExpired {
			t.Fatalf("job ended %q: %s", poll.Status, poll.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", poll.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// The batch endpoint coalesces duplicates inside one request.
func TestServerBatch(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 32, CacheSize: 16})
	var jobs []SynthRequest
	for i := 0; i < 8; i++ {
		jobs = append(jobs, SynthRequest{PLA: specPLA(i % 4)})
	}
	resp, data := postJSON(t, ts.URL+"/v1/synth/batch", BatchRequest{Jobs: jobs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, data)
	}
	var br BatchResponse
	if err := json.Unmarshal(data, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 8 {
		t.Fatalf("%d results", len(br.Results))
	}
	for i, r := range br.Results {
		if r.Status != StatusDone || r.Result == nil {
			t.Fatalf("batch item %d: %+v", i, r)
		}
	}
	st := serverStats(t, ts.URL)
	if st.Completed != 4 {
		t.Fatalf("batch ran %d pipelines, want 4 (%+v)", st.Completed, st)
	}
}

// A job whose pipeline fails (strict + impossible budget) surfaces as
// status "failed" with the error preserved, and is not cached.
func TestServerFailedJobNotCached(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, CacheSize: 8})
	req := SynthRequest{
		PLA: specPLA(1),
		Options: pipeline.JobOptions{Method: "lcf", Threshold: 0.55,
			MaxAIGNodes: 1, Strict: true},
	}
	for i := 0; i < 2; i++ {
		resp, data := postJSON(t, ts.URL+"/v1/synth", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("HTTP %d: %s", resp.StatusCode, data)
		}
		var sr SynthResponse
		if err := json.Unmarshal(data, &sr); err != nil {
			t.Fatal(err)
		}
		if sr.Status != StatusFailed || !strings.Contains(sr.Error, "budget") {
			t.Fatalf("attempt %d: %+v", i, sr)
		}
	}
	st := serverStats(t, ts.URL)
	if st.Failed != 2 || st.Cache.Len != 0 {
		t.Fatalf("failures must not be cached: %+v", st)
	}
}

// The retired option names "kernels", "use_bdd", "max_bdd_nodes",
// "dc_mode", "window_tfi" and "window_tfo" are unknown fields now: the
// strict decoder answers 400 with an error naming the field, and nothing
// is enqueued, computed or cached.
func TestServerRejectsRetiredOptions(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, CacheSize: 8})
	pla, _ := json.Marshal(specPLA(3))
	for _, c := range []struct{ field, options string }{
		{"kernels", `"method": "rank", "fraction": 0.5, "kernels": "off"`},
		{"use_bdd", `"method": "lcf", "threshold": 0.55, "use_bdd": true`},
		{"max_bdd_nodes", `"method": "lcf", "threshold": 0.55, "max_bdd_nodes": 4`},
		{"dc_mode", `"method": "lcf", "threshold": 0.55, "dc_mode": "exhaustive"`},
		{"window_tfi", `"method": "lcf", "threshold": 0.55, "window_tfi": 2`},
		{"window_tfo", `"method": "lcf", "threshold": 0.55, "window_tfo": 1`},
	} {
		body := `{"pla": ` + string(pla) + `, "options": {` + c.options + `}}`
		resp, err := http.Post(ts.URL+"/v1/synth", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var sr SynthResponse
		err = json.NewDecoder(resp.Body).Decode(&sr)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || sr.Status != "error" ||
			!strings.Contains(sr.Error, `unknown field "`+c.field+`"`) {
			t.Fatalf("%s: HTTP %d status %q error %q, want 400 naming the field",
				c.field, resp.StatusCode, sr.Status, sr.Error)
		}
	}
	if st := serverStats(t, ts.URL); st.Submitted != 0 || st.Cache.Len != 0 {
		t.Fatalf("rejected requests reached the job path: %+v", st)
	}
}

func TestServerBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	cases := []struct {
		name string
		url  string
		body string
		want int
	}{
		{"bad json", "/v1/synth", `{"pla": `, http.StatusBadRequest},
		{"unknown field", "/v1/synth", `{"plaa": "x"}`, http.StatusBadRequest},
		{"empty pla", "/v1/synth", `{"pla": ""}`, http.StatusBadRequest},
		{"malformed pla", "/v1/synth", `{"pla": ".i 2\n.o 1\n11 2x\n.e\n"}`, http.StatusBadRequest},
		{"bad options", "/v1/synth", `{"pla": ".i 2\n.o 1\n11 1\n.e\n", "options": {"method": "bogus"}}`, http.StatusBadRequest},
		{"area objective", "/v1/synth", `{"pla": ".i 2\n.o 1\n11 1\n.e\n", "options": {"objective": "area"}}`, http.StatusBadRequest},
		{"empty batch", "/v1/synth/batch", `{"jobs": []}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+tc.url, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("HTTP %d, want %d", resp.StatusCode, tc.want)
			}
		})
	}
	if resp := getJSON(t, ts.URL+"/v1/jobs/job_nonesuch", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: HTTP %d", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", resp.StatusCode)
	}
}

// wideSpecPLA is a one-row spec over n inputs whose minimum is the
// literal x0.
func wideSpecPLA(n int) string {
	return fmt.Sprintf(".i %d\n.o 1\n1%s 1\n.e\n", n, strings.Repeat("-", n-1))
}

// Specs wider than tt.MaxInputs are refused where they enter: pla.Parse
// at the header, pla.File.ToFunction for a hand-built file, and
// /v1/synth with a 400 before anything is queued — never by a worker
// spending its deadline on them.
func TestServerRefusesWideSpec(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	for _, n := range []int{tt.MaxInputs + 1, 21} {
		if _, err := pla.Parse(strings.NewReader(wideSpecPLA(n))); !errors.Is(err, tt.ErrTooWide) {
			t.Fatalf(".i %d: pla.Parse = %v, want tt.ErrTooWide", n, err)
		}
		file := &pla.File{NumIn: n, NumOut: 1, LogicTyp: pla.TypeFD}
		if _, err := file.ToFunction(); !errors.Is(err, tt.ErrTooWide) {
			t.Fatalf(".i %d: ToFunction = %v, want tt.ErrTooWide", n, err)
		}
		start := time.Now()
		resp, data := postJSON(t, ts.URL+"/v1/synth", SynthRequest{PLA: wideSpecPLA(n)})
		if took := time.Since(start); took > time.Second {
			t.Fatalf(".i %d: refusal took %v", n, took)
		}
		var sr SynthResponse
		if err := json.Unmarshal(data, &sr); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || sr.Status != "invalid" ||
			!strings.Contains(sr.Error, tt.ErrTooWide.Error()) {
			t.Fatalf(".i %d: HTTP %d %+v, want 400 invalid naming the ceiling", n, resp.StatusCode, sr)
		}
	}
	if st := s.Stats(); st.Submitted != 0 {
		t.Fatalf("wide specs submitted %d jobs, want 0", st.Submitted)
	}
}

// A header that resizes rows already read, and a spec past tt.MaxCells,
// are refused at parse with a 400 naming the line: the first used to
// panic the handler (net/http dropped the connection), the second used
// to allocate NumOut·2^NumIn cells before any row was read.
func TestServerRefusesResizedAndOversizedSpecs(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	for _, tc := range []struct{ pla, want string }{
		{".i 2\n.o 1\n01 1\n.o 2\n.e", "line 4: header resizes earlier cube rows"},
		{".i 3\n.o 1\n011 1\n.i 2\n.e", "line 4: header resizes earlier cube rows"},
		{".i 16\n.o 200\n.e", "line 2: .i 16 .o 200: " + tt.ErrTooLarge.Error()},
		{".i 16\n.o 100000\n.e", "line 2: .i 16 .o 100000: " + tt.ErrTooLarge.Error()},
	} {
		resp, data := postJSON(t, ts.URL+"/v1/synth", SynthRequest{PLA: tc.pla})
		var sr SynthResponse
		if err := json.Unmarshal(data, &sr); err != nil {
			t.Fatalf("%q: %v (%s)", tc.pla, err, data)
		}
		if resp.StatusCode != http.StatusBadRequest || sr.Status != "invalid" || !strings.Contains(sr.Error, tc.want) {
			t.Fatalf("%q: HTTP %d %+v, want 400 invalid containing %q", tc.pla, resp.StatusCode, sr, tc.want)
		}
	}
	if st := s.Stats(); st.Submitted != 0 {
		t.Fatalf("refused specs submitted %d jobs, want 0", st.Submitted)
	}
}

// Jobs that exhaust their deadline while queued are dropped by the
// queue, reported as expired, and never reach a worker.
func TestServerQueuedJobExpires(t *testing.T) {
	bb := &blockingBackend{release: make(chan struct{}), started: make(chan string, 8)}
	s, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 4, CacheSize: 8, Backend: bb.run,
	})
	async := false
	// Occupy the worker with a long-lived job.
	if resp, _ := postJSON(t, ts.URL+"/v1/synth", SynthRequest{PLA: specPLA(0), Wait: &async}); resp.StatusCode != http.StatusAccepted {
		t.Fatal("setup job rejected")
	}
	<-bb.started
	// Queue a job with a tiny deadline; it expires while waiting.
	resp, data := postJSON(t, ts.URL+"/v1/synth", SynthRequest{
		PLA: specPLA(1), Wait: &async,
		Options: pipeline.JobOptions{TimeoutMs: 30},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, data)
	}
	var sr SynthResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	time.Sleep(80 * time.Millisecond)
	close(bb.release) // worker picks the queue up; expired job is dropped
	deadline := time.Now().Add(5 * time.Second)
	for {
		var poll SynthResponse
		getJSON(t, ts.URL+"/v1/jobs/"+sr.JobID, &poll)
		if poll.Status == StatusExpired {
			break
		}
		if poll.Status == StatusDone {
			t.Fatal("expired job ran anyway")
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", poll.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := s.Stats(); st.Expired != 1 {
		t.Fatalf("expired counter %d, want 1", st.Expired)
	}
}

// Priorities reorder the backlog: with one busy worker, a later
// high-priority job overtakes earlier low-priority ones.
func TestServerPriorityOvertakes(t *testing.T) {
	bb := &blockingBackend{release: make(chan struct{}), started: make(chan string, 8)}
	s := New(Config{Workers: 1, QueueDepth: 8, CacheSize: 8, Backend: bb.run})
	defer s.Close()

	fn := tt.New(2, 1)
	fn.SetPhase(0, 3, tt.On)
	submit := func(seed, prio int) *jobState {
		t.Helper()
		o, err := s.SubmitSpec(fn, fmt.Sprintf("spec-%d", seed), "", pipeline.JobOptions{}, prio)
		if err != nil {
			t.Fatal(err)
		}
		return o.Job
	}
	submit(0, 0)
	<-bb.started // worker busy with job 0
	low := submit(1, 0)
	high := submit(2, 9)
	// Drain deterministically: release all and close admissions.
	close(bb.release)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	<-low.done
	<-high.done
	if !high.finished.Before(low.finished) {
		t.Fatalf("high-priority job finished at %v, after low-priority at %v",
			high.finished, low.finished)
	}
}

// Regression: a job whose deadline passes between queue dequeue and
// execution (the queue only checks at dequeue time) must never be
// handed to the backend. It is published as expired with the same typed
// jobqueue.ErrExpired cause as a queue-side drop — not run, and not
// surfaced as a generic "failed".
func TestServerExpiredJobNeverRunsBackend(t *testing.T) {
	backendRan := make(chan struct{}, 1)
	s := New(Config{
		Workers: 1, QueueDepth: 4, CacheSize: 4,
		Metrics: obs.NewRegistry(),
		Backend: func(context.Context, *tt.Function, pipeline.JobOptions) (*pipeline.JobResult, error) {
			backendRan <- struct{}{}
			return &pipeline.JobResult{}, nil
		},
	})
	defer s.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // deadline already gone when the "worker" picks it up
	js := &jobState{
		id: "job_test_expired", key: "k", status: StatusQueued,
		created: time.Now(), done: make(chan struct{}),
		logged: make(chan struct{}),
	}
	close(js.logged) // as Submit does once the queued record is appended
	s.runJob(&work{state: js, ctx: ctx, fn: tt.New(2, 1), opts: pipeline.JobOptions{}})

	select {
	case <-backendRan:
		t.Fatal("backend ran for an expired job")
	default:
	}
	status, _, errMsg := js.snapshot()
	if status != StatusExpired {
		t.Fatalf("status %q, want %q", status, StatusExpired)
	}
	if !strings.Contains(errMsg, jobqueue.ErrExpired.Error()) {
		t.Fatalf("error %q does not carry the typed expiry cause", errMsg)
	}
	if st := s.Stats(); st.Expired != 1 || st.Failed != 0 || st.Completed != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// The /metrics endpoint serves Prometheus text exposition with the
// queue, cache, job, worker, and HTTP series present.
func TestServerMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers: 2, QueueDepth: 8, CacheSize: 8, Metrics: obs.NewRegistry(),
	})
	// Serve one real job (twice: second hit comes from the cache) so the
	// counters move before scraping.
	for i := 0; i < 2; i++ {
		if resp, data := postJSON(t, ts.URL+"/v1/synth", SynthRequest{PLA: specPLA(3)}); resp.StatusCode != http.StatusOK {
			t.Fatalf("synth: HTTP %d: %s", resp.StatusCode, data)
		}
	}
	// A worker marks itself idle only after finish's WAL append,
	// which may land after the reply: wait for the gauge to settle.
	var text string
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		text = scrapeMetrics(t, ts.URL)
		if strings.Contains(text, "relsyn_workers_busy 0\n") || time.Now().After(deadline) {
			break
		}
	}
	for _, want := range []string{
		"# TYPE relsyn_queue_depth gauge",
		"relsyn_queue_capacity 8",
		"relsyn_queue_enqueued_total 1",
		"relsyn_queue_wait_seconds_count 1",
		`relsyn_cache_hits_total{cache="results"} 1`,
		`relsyn_cache_misses_total{cache="results"} 1`,
		"relsyn_jobs_submitted_total 2",
		"relsyn_jobs_completed_total 1",
		"relsyn_workers 2",
		"relsyn_workers_busy 0",
		`relsyn_flight_started_total{group="synth"} 1`,
		`relsyn_http_requests_total{code="200",route="/v1/synth"} 2`,
		`relsyn_http_request_duration_seconds_count{route="/v1/synth"} 2`,
		"# TYPE relsyn_http_in_flight gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full /metrics body:\n%s", text)
	}
}

// scrapeMetrics fetches /metrics and checks its status and content type.
func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// /statsz carries both the classic counters and the full metrics
// snapshot, so the JSON view and the Prometheus view cannot diverge.
func TestServerStatszIncludesMetricsSnapshot(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 8, CacheSize: 8, Metrics: obs.NewRegistry(),
	})
	if resp, data := postJSON(t, ts.URL+"/v1/synth", SynthRequest{PLA: specPLA(4)}); resp.StatusCode != http.StatusOK {
		t.Fatalf("synth: HTTP %d: %s", resp.StatusCode, data)
	}
	var payload StatszPayload
	getJSON(t, ts.URL+"/statsz", &payload)
	if payload.Submitted != 1 || payload.Completed != 1 {
		t.Fatalf("embedded stats: %+v", payload.Stats)
	}
	if payload.Metrics.Counters["relsyn_jobs_submitted_total"] != 1 {
		t.Fatalf("metrics snapshot counters: %+v", payload.Metrics.Counters)
	}
	if payload.Metrics.Gauges["relsyn_queue_capacity"] != 8 {
		t.Fatalf("metrics snapshot gauges: %+v", payload.Metrics.Gauges)
	}
}
