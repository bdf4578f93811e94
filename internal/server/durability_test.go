// Durability, crash-recovery, degradation, and chaos tests for the
// store-backed server. The SIGKILL process-level crash test lives in
// cmd/relsynd; these tests exercise the same machinery in-process where
// every intermediate state can be asserted.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"relsyn/internal/chaos"
	"relsyn/internal/obs"
	"relsyn/internal/pipeline"
	"relsyn/internal/pla"
	"relsyn/internal/store"
	"relsyn/internal/tt"
)

// openStore opens a store on dir with a fresh registry.
func openStore(t *testing.T, dir string, fs store.FS) (*store.Store, []store.Record) {
	t.Helper()
	st, recs, err := store.Open(store.Options{Dir: dir, FS: fs})
	if err != nil {
		t.Fatalf("store.Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { st.Close() })
	return st, recs
}

func submitPLA(t *testing.T, s *Server, seed, priority int) *SubmitOutcome {
	t.Helper()
	text := specPLA(seed)
	fn, hash, err := pla.ParseSpec(text)
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	out, err := s.SubmitSpec(fn, hash, text, pipeline.JobOptions{}, priority)
	if err != nil {
		t.Fatalf("SubmitSpec(seed=%d): %v", seed, err)
	}
	return out
}

func waitDone(t *testing.T, js *jobState) {
	t.Helper()
	select {
	case <-js.done:
	case <-time.After(10 * time.Second):
		t.Fatalf("job %s never finished", js.id)
	}
}

// TestServerPersistsLifecycle checks the WAL trail a finished job leaves
// behind: queued → running → done records merged into one durable record
// carrying the replayable spec and the result.
func TestServerPersistsLifecycle(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStore(t, dir, nil)
	s := New(Config{Workers: 2, QueueDepth: 16, Store: st, Metrics: obs.NewRegistry()})
	defer s.Close()

	out := submitPLA(t, s, 1, 3)
	waitDone(t, out.Job)
	// finish releases waiters before it appends the done record,
	// so the trail can lag the in-memory state by one append.
	waitTerminalRecord(t, st, out.Job.id)

	rec, ok := st.Get(out.Job.id)
	if !ok {
		t.Fatalf("no durable record for job %s", out.Job.id)
	}
	if rec.Status != store.StatusDone || rec.Result == nil {
		t.Fatalf("record = %+v, want done with result", rec)
	}
	if rec.SpecPLA == "" || rec.Options == nil || rec.Key == "" || rec.Priority != 3 {
		t.Fatalf("record lost submission fields: %+v", rec)
	}
	// A duplicate submission is a cache hit: it answers with the job
	// that computed the result, whose durable record already carries
	// it, and appends nothing.
	appends := st.Stats().Appends
	out2 := submitPLA(t, s, 1, 0)
	if !out2.Cached {
		t.Fatal("duplicate submission missed the cache")
	}
	if out2.Job.id != out.Job.id {
		t.Fatalf("cache hit answered job %s, want the computing job %s", out2.Job.id, out.Job.id)
	}
	rec2, ok := st.Get(out2.Job.id)
	if !ok || rec2.Status != store.StatusDone {
		t.Fatalf("hit's record = %+v (ok=%v), want done", rec2, ok)
	}
	if rec2.Result == nil {
		t.Fatal("hit's record carries no result")
	}
	if got := st.Stats().Appends; got != appends {
		t.Fatalf("cache hit appended %d records, want 0", got-appends)
	}
}

// TestServerCacheHitIDSurvivesRestart: the id a cache hit hands out is
// the computing job's, so it still answers GET /v1/jobs/{id} after a
// restart.
func TestServerCacheHitIDSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStore(t, dir, nil)
	s := New(Config{Workers: 2, QueueDepth: 16, Store: st, Metrics: obs.NewRegistry()})
	out := submitPLA(t, s, 1, 0)
	waitDone(t, out.Job)
	hit := submitPLA(t, s, 1, 0)
	if !hit.Cached {
		t.Fatal("duplicate submission missed the cache")
	}
	s.Close()
	st.Close()

	st2, recs := openStore(t, dir, nil)
	s2, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 16, Store: st2, Metrics: obs.NewRegistry()})
	s2.Recover(recs)
	var env SynthResponse
	resp := getJSON(t, ts.URL+"/v1/jobs/"+hit.Job.id, &env)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/jobs/%s after restart = %d, want 200", hit.Job.id, resp.StatusCode)
	}
	if env.JobID != hit.Job.id || env.Status != StatusDone || env.Result == nil {
		t.Fatalf("hit's job after restart = %+v, want done with result", env)
	}
}

// TestServerRecoverTrailBeforeResult replays a WAL that older binaries
// could write: each cache hit appended a done record without a result
// (a trail record), and could append it before the done record of the
// result it points at. The trail's id must recover with that result,
// and a restart that serves no request must count no cache hit or miss.
func TestServerRecoverTrailBeforeResult(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStore(t, dir, nil)
	text := specPLA(1)
	_, hash, err := pla.ParseSpec(text)
	if err != nil {
		t.Fatal(err)
	}
	jo := pipeline.JobOptions{TimeoutMs: 30_000}.Normalize()
	key := hash + "|" + jo.Key()
	for _, rec := range []store.Record{
		{ID: "job_a", Key: key, Status: store.StatusQueued, SpecPLA: text, Options: &jo, CreatedUnixMs: 1},
		{ID: "job_b", Key: key, Status: store.StatusDone, CreatedUnixMs: 2, FinishedUnixMs: 2},
		{ID: "job_a", Key: key, Status: store.StatusDone, Result: &pipeline.JobResult{Verified: true}, FinishedUnixMs: 3},
	} {
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	st2, recs := openStore(t, dir, nil)
	s := New(Config{Workers: 1, QueueDepth: 8, Store: st2, Metrics: obs.NewRegistry()})
	defer s.Close()
	if rs := s.Recover(recs); rs.Restored != 2 || rs.Requeued != 0 || rs.Failed != 0 {
		t.Fatalf("recovery stats = %+v, want 2 restored", rs)
	}
	for _, id := range []string{"job_a", "job_b"} {
		js, ok := s.Lookup(id)
		if !ok {
			t.Fatalf("job %s not restored", id)
		}
		status, res, _ := js.snapshot()
		if status != StatusDone || res == nil || !res.Verified {
			t.Fatalf("job %s = %s with result %v, want done with job_a's result", id, status, res)
		}
	}
	if c := s.Stats().Cache; c.Hits != 0 || c.Misses != 0 {
		t.Fatalf("restart counted %d cache hits and %d misses, want 0 and 0", c.Hits, c.Misses)
	}
}

// TestServerQueuedRecordPrecedesWorkerRecords: the submitter appends a
// job's queued record after the job is already in the queue. A worker
// that appended its running and done records first would let replay
// merge the late queued frame over them and requeue a finished job, so
// a worker touches neither the store nor the backend until the job's
// queued record is logged.
func TestServerQueuedRecordPrecedesWorkerRecords(t *testing.T) {
	st, _ := openStore(t, t.TempDir(), nil)
	backend := &blockingBackend{release: make(chan struct{}), started: make(chan string, 1)}
	close(backend.release)
	s := New(Config{Workers: 1, QueueDepth: 8, Store: st, Backend: backend.run, Metrics: obs.NewRegistry()})
	defer s.Close()

	// A dequeued job whose submitter has not yet appended its queued
	// record.
	js := &jobState{
		id: "job_unlogged", key: "k", status: StatusQueued,
		created: time.Now(), done: make(chan struct{}),
		logged: make(chan struct{}),
	}
	go s.runJob(&work{state: js, ctx: context.Background(), fn: tt.New(2, 1)})
	select {
	case <-backend.started:
		t.Fatal("the worker ran the job before its queued record was appended")
	case <-time.After(100 * time.Millisecond):
	}
	if rec, ok := st.Get(js.id); ok {
		t.Fatalf("the worker appended %+v before the queued record", rec)
	}
	s.persist(store.Record{ID: js.id, Key: js.key, Status: store.StatusQueued, CreatedUnixMs: 1})
	close(js.logged)
	waitDone(t, js)
	waitTerminalRecord(t, st, js.id)
	if rec, _ := st.Get(js.id); rec.Status != store.StatusDone || rec.CreatedUnixMs != 1 {
		t.Fatalf("record = %+v, want done over the queued record", rec)
	}
}

// gatedFS holds the fsync of the first WAL frame containing match until
// open is called; held closes once that fsync is waiting.
type gatedFS struct {
	store.OSFS
	match   string
	held    chan struct{}
	release chan struct{}
	hold    sync.Once
	opened  sync.Once
}

func newGatedFS(match string) *gatedFS {
	return &gatedFS{match: match, held: make(chan struct{}), release: make(chan struct{})}
}

func (g *gatedFS) open() { g.opened.Do(func() { close(g.release) }) }

func (g *gatedFS) OpenAppend(name string) (store.File, error) {
	f, err := g.OSFS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &gatedFile{File: f, fs: g}, nil
}

// gatedFile remembers the last frame written: the store writes each
// frame with one Write and then syncs it.
type gatedFile struct {
	store.File
	fs   *gatedFS
	last []byte
}

func (f *gatedFile) Write(p []byte) (int, error) {
	f.last = append(f.last[:0], p...)
	return f.File.Write(p)
}

func (f *gatedFile) Sync() error {
	if strings.Contains(string(f.last), f.fs.match) {
		f.fs.hold.Do(func() {
			close(f.fs.held)
			<-f.fs.release
		})
	}
	return f.File.Sync()
}

// TestServerRetryWhileTerminalRecordSyncs: a failed or expired job
// leaves the in-flight table in the same critical section that wakes
// its waiters, before its terminal record is appended. A retry that
// arrives while that append is still syncing must start a new job, not
// join the dead one and answer with its outcome.
func TestServerRetryWhileTerminalRecordSyncs(t *testing.T) {
	for _, status := range []string{StatusFailed, StatusExpired} {
		t.Run(status, func(t *testing.T) {
			fs := newGatedFS(`"status":"` + status + `"`)
			st, _ := openStore(t, t.TempDir(), fs)
			cfg := Config{Workers: 1, QueueDepth: 8, Store: st, Metrics: obs.NewRegistry()}
			if status == StatusFailed {
				// The first execution panics; later ones run normally.
				cfg.Backend = Backend(chaos.Backend(pipeline.RunJob, &chaos.WorkerFaults{Panic: &chaos.Trigger{On: 1}}))
			}
			s := New(cfg)
			defer s.Close()
			defer fs.open()
			if status == StatusExpired {
				// The first delivery is dropped, which expires the job.
				s.queue.SetFaultHook(&chaos.QueueFaults{Drop: &chaos.Trigger{On: 1}})
			}
			first := submitPLA(t, s, 1, 0)
			waitDone(t, first.Job)
			if got, _, _ := first.Job.snapshot(); got != status {
				t.Fatalf("first job = %s, want %s", got, status)
			}
			select {
			case <-fs.held:
			case <-time.After(10 * time.Second):
				t.Fatalf("the %s record was never synced", status)
			}

			// The worker is held in the terminal record's fsync. The
			// retry's own queued append waits behind it on the store, so
			// the retry runs on its own goroutine.
			type result struct {
				out *SubmitOutcome
				err error
			}
			text := specPLA(1)
			fn, hash, err := pla.ParseSpec(text)
			if err != nil {
				t.Fatal(err)
			}
			retry := make(chan result, 1)
			go func() {
				out, err := s.SubmitSpec(fn, hash, text, pipeline.JobOptions{}, 0)
				retry <- result{out, err}
			}()
			// The retry is admitted once it has returned (a join appends
			// nothing) or queued a new job (the held worker dequeues
			// nothing); only then is the fsync released.
			var r result
			for deadline := time.Now().Add(10 * time.Second); r.out == nil && r.err == nil; {
				select {
				case r = <-retry:
				case <-time.After(time.Millisecond):
					if s.queue.Len() > 0 {
						fs.open()
					} else if time.Now().After(deadline) {
						t.Fatal("the retry was never admitted")
					}
				}
			}
			if r.err != nil {
				t.Fatal(r.err)
			}
			if r.out.Coalesced || r.out.Cached || r.out.Job.id == first.Job.id {
				t.Fatalf("retry = job %s (coalesced %v, cached %v), want a new job, not %s",
					r.out.Job.id, r.out.Coalesced, r.out.Cached, first.Job.id)
			}
			waitDone(t, r.out.Job)
			if got, _, errMsg := r.out.Job.snapshot(); got != StatusDone {
				t.Fatalf("retry = %s (%s), want done", got, errMsg)
			}
		})
	}
}

// TestServerCacheHitReregistersEvictedID: the job registry evicts
// finished jobs past MaxJobStates while the cache may still hold them.
// A hit hands out the cached job's id, so it registers the job again to
// keep that id pollable.
func TestServerCacheHitReregistersEvictedID(t *testing.T) {
	const maxStates = 2
	s := New(Config{Workers: 1, QueueDepth: 8, MaxJobStates: maxStates, Metrics: obs.NewRegistry()})
	defer s.Close()
	first := submitPLA(t, s, 1, 0)
	waitDone(t, first.Job)
	// maxStates+2 more jobs evict maxStates+1 finished entries.
	for seed := 2; seed <= maxStates+3; seed++ {
		out := submitPLA(t, s, seed, 0)
		if out.Cached || out.Coalesced {
			t.Fatalf("seed %d shares seed 1's key; the test needs distinct specs", seed)
		}
		waitDone(t, out.Job)
	}
	if _, ok := s.Lookup(first.Job.id); ok {
		t.Fatalf("job %s still registered past MaxJobStates", first.Job.id)
	}
	hit := submitPLA(t, s, 1, 0)
	if !hit.Cached || hit.Job.id != first.Job.id {
		t.Fatalf("resubmission = %+v (job %s), want a cache hit on %s", hit, hit.Job.id, first.Job.id)
	}
	if js, ok := s.Lookup(first.Job.id); !ok || js != first.Job {
		t.Fatalf("cache hit did not re-register job %s", first.Job.id)
	}
}

// TestServerRecoverRestoresTerminal restarts a store-backed server and
// checks terminal jobs survive: pollers keep their IDs, done results
// re-prime the cache so identical submissions never recompute.
func TestServerRecoverRestoresTerminal(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStore(t, dir, nil)
	s := New(Config{Workers: 2, QueueDepth: 16, Store: st, Metrics: obs.NewRegistry()})
	out := submitPLA(t, s, 1, 0)
	waitDone(t, out.Job)
	s.Close()
	st.Close()

	st2, recs := openStore(t, dir, nil)
	s2 := New(Config{Workers: 2, QueueDepth: 16, Store: st2, Metrics: obs.NewRegistry()})
	defer s2.Close()
	rs := s2.Recover(recs)
	if rs.Restored != 1 || rs.Requeued != 0 || rs.Failed != 0 {
		t.Fatalf("recovery stats = %+v, want 1 restored", rs)
	}
	js, ok := s2.Lookup(out.Job.id)
	if !ok {
		t.Fatalf("pre-crash job id %s unknown after restart", out.Job.id)
	}
	status, res, _ := js.snapshot()
	if status != StatusDone || res == nil {
		t.Fatalf("recovered job = %s/%v, want done with result", status, res)
	}
	// Same spec again: served from the recovered cache, zero executions.
	out2 := submitPLA(t, s2, 1, 0)
	if !out2.Cached {
		t.Fatal("recovered result did not prime the cache")
	}
	if got := s2.Stats().Completed; got != 0 {
		t.Fatalf("server recomputed %d jobs after recovery, want 0", got)
	}
}

// TestServerRecoverRequeuesInterrupted feeds Recover hand-built
// interrupted records — what a crash mid-batch leaves in the WAL — and
// checks every one reaches a terminal state with exactly one execution
// per distinct key.
func TestServerRecoverRequeuesInterrupted(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStore(t, dir, nil)

	mkRecord := func(id string, seed int, status string) store.Record {
		text := specPLA(seed)
		_, hash, err := pla.ParseSpec(text)
		if err != nil {
			t.Fatal(err)
		}
		jo := pipeline.JobOptions{TimeoutMs: 30_000}.Normalize()
		return store.Record{
			ID: id, Key: hash + "|" + jo.Key(), Status: status,
			SpecPLA: text, Options: &jo, CreatedUnixMs: 1,
		}
	}
	for _, rec := range []store.Record{
		mkRecord("job_a", 1, store.StatusQueued),
		mkRecord("job_b", 2, store.StatusRunning), // interrupted mid-run
		mkRecord("job_c", 1, store.StatusQueued),  // duplicate of job_a's key
	} {
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	st2, recs := openStore(t, dir, nil)
	s := New(Config{Workers: 2, QueueDepth: 16, Store: st2, Metrics: obs.NewRegistry()})
	defer s.Close()
	rs := s.Recover(recs)
	if rs.Requeued != 2 || rs.Deduped != 1 || rs.Failed != 0 {
		t.Fatalf("recovery stats = %+v, want requeued 2, deduped 1", rs)
	}
	for _, id := range []string{"job_a", "job_b", "job_c"} {
		js, ok := s.Lookup(id)
		if !ok {
			t.Fatalf("recovered job %s not registered", id)
		}
		waitDone(t, js)
		status, res, errMsg := js.snapshot()
		if status != StatusDone || res == nil {
			t.Fatalf("job %s = %s (%s), want done", id, status, errMsg)
		}
	}
	// Two distinct keys, three records: exactly two executions.
	if got := s.Stats().Completed; got != 2 {
		t.Fatalf("executions after recovery = %d, want 2 (job_c coalesced)", got)
	}
	// The coalesced duplicate's own record must also have reached a
	// durable terminal state (alias persistence).
	waitTerminalRecord(t, st2, "job_c")
}

func waitTerminalRecord(t *testing.T, st *store.Store, id string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if rec, ok := st.Get(id); ok && store.Terminal(rec.Status) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	rec, _ := st.Get(id)
	t.Fatalf("record %s never reached a terminal state (now %+v)", id, rec)
}

// TestServerRecoverUnreplayable: a pending record without a replayable
// spec must fail terminally, not linger queued forever or crash recovery.
func TestServerRecoverUnreplayable(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8, Metrics: obs.NewRegistry()})
	defer s.Close()
	rs := s.Recover([]store.Record{
		{ID: "job_nospec", Key: "k", Status: store.StatusQueued},
		{ID: "job_badpla", Key: "k2", Status: store.StatusQueued,
			SpecPLA: "this is not a pla file", Options: &pipeline.JobOptions{}},
		// Written before the dense ceiling was enforced at the .pla
		// boundary: the spec no longer parses, so the job fails.
		{ID: "job_wide", Key: "k3", Status: store.StatusQueued,
			SpecPLA: wideSpecPLA(tt.MaxInputs + 1), Options: &pipeline.JobOptions{}},
	})
	if rs.Failed != 3 {
		t.Fatalf("recovery stats = %+v, want 3 failed", rs)
	}
	for _, id := range []string{"job_nospec", "job_badpla", "job_wide"} {
		js, ok := s.Lookup(id)
		if !ok {
			t.Fatalf("unreplayable job %s not registered", id)
		}
		status, _, errMsg := js.snapshot()
		if status != StatusFailed || errMsg == "" {
			t.Fatalf("job %s = %s (%q), want failed with message", id, status, errMsg)
		}
		if id == "job_wide" && !strings.Contains(errMsg, tt.ErrTooWide.Error()) {
			t.Fatalf("job %s failed with %q, want the input ceiling named", id, errMsg)
		}
	}
}

// TestServerDegradesWhenStoreFails wires chaos fsync faults under a live
// server: the breaker opens, serving continues from memory, /healthz
// reports degraded with the store reason, and relsyn_store_degraded=1 is
// exported. When the fault clears and the cooldown passes, the probe
// append closes the circuit and health returns to ok.
func TestServerDegradesWhenStoreFails(t *testing.T) {
	// Exactly the first two fsyncs fail: enough to trip the 2-failure
	// breaker, exhausted before the half-open probe.
	faults := &chaos.FSFaults{SyncErr: &chaos.Trigger{On: 1, Count: 2}}
	reg := obs.NewRegistry()
	st, _, err := store.Open(store.Options{
		Dir: t.TempDir(), FS: chaos.FS(store.OSFS{}, faults), Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	breaker := store.NewBreaker(2, time.Hour)
	clk := &fakeClock{now: time.Unix(0, 0)}
	breaker.SetClock(clk.Now)
	s, ts := newTestServer(t, Config{
		Workers: 2, QueueDepth: 16, Store: st, Breaker: breaker, Metrics: reg,
	})

	// Each submission is one persist attempt; two failures trip the
	// breaker. Serving never falters.
	for seed := 1; seed <= 3; seed++ {
		out := submitPLA(t, s, seed, 0)
		waitDone(t, out.Job)
		status, _, errMsg := out.Job.snapshot()
		if status != StatusDone {
			t.Fatalf("seed %d = %s (%s), want done despite store faults", seed, status, errMsg)
		}
	}
	if !breaker.Degraded() {
		t.Fatal("breaker still closed after persistent append failures")
	}

	var h Health
	resp := getJSON(t, ts.URL+"/healthz", &h)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200 (degraded still serves)", resp.StatusCode)
	}
	if h.Status != "degraded" || len(h.Reasons) == 0 || !strings.Contains(h.Reasons[0], "store") {
		t.Fatalf("health = %+v, want degraded with store reason", h)
	}
	metricsResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(metricsResp.Body)
	metricsResp.Body.Close()
	if !strings.Contains(string(body), "relsyn_store_degraded 1") {
		t.Fatal("metrics do not export relsyn_store_degraded 1 while degraded")
	}

	// Fault script exhausted + cooldown elapsed: the next persist is the
	// half-open probe; its success closes the circuit.
	clk.Advance(2 * time.Hour)
	out := submitPLA(t, s, 9, 0)
	waitDone(t, out.Job)
	waitHealthy(t, breaker)
	h = s.Health()
	if h.Status != "ok" {
		t.Fatalf("health after store recovery = %+v, want ok", h)
	}
}

// fakeClock is a race-safe manual clock for breaker tests: workers read
// it through Breaker.now while the test advances it.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func waitHealthy(t *testing.T, b *store.Breaker) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if !b.Degraded() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("breaker never closed (state %s)", b.State())
}

// TestServerBackendPanicBecomesFailedJob: a panicking backend must fail
// the one job (typed ErrBackendPanic) and leave the worker pool serving.
func TestServerBackendPanicBecomesFailedJob(t *testing.T) {
	inner := func(ctx context.Context, f *tt.Function, opt pipeline.JobOptions) (*pipeline.JobResult, error) {
		return pipeline.RunJob(ctx, f, opt)
	}
	s, _ := newTestServer(t, Config{
		Workers: 1, QueueDepth: 8, Metrics: obs.NewRegistry(),
		Backend: Backend(chaos.Backend(inner, &chaos.WorkerFaults{Panic: &chaos.Trigger{On: 1}})),
	})
	out := submitPLA(t, s, 1, 0)
	waitDone(t, out.Job)
	status, _, errMsg := out.Job.snapshot()
	if status != StatusFailed || !strings.Contains(errMsg, ErrBackendPanic.Error()) {
		t.Fatalf("panicked job = %s (%q), want failed wrapping ErrBackendPanic", status, errMsg)
	}
	// The worker survived the panic: the next job runs normally. The
	// failure was not cached, so the same spec re-executes.
	out2 := submitPLA(t, s, 1, 0)
	waitDone(t, out2.Job)
	if status, _, _ := out2.Job.snapshot(); status != StatusDone {
		t.Fatalf("job after panic = %s, want done (worker must survive)", status)
	}
}

// TestServerQueueDropTerminatesJob: a chaos-dropped queue item must
// surface as an expired terminal job — never an accepted job that
// silently vanishes.
func TestServerQueueDropTerminatesJob(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, QueueDepth: 8, Metrics: obs.NewRegistry()})
	s.queue.SetFaultHook(&chaos.QueueFaults{Drop: &chaos.Trigger{On: 1}})
	out := submitPLA(t, s, 1, 0)
	waitDone(t, out.Job)
	status, _, errMsg := out.Job.snapshot()
	if status != StatusExpired || !strings.Contains(errMsg, "expired") {
		t.Fatalf("dropped job = %s (%q), want expired", status, errMsg)
	}
	// Queue still delivers afterwards.
	out2 := submitPLA(t, s, 2, 0)
	waitDone(t, out2.Job)
	if status, _, _ := out2.Job.snapshot(); status != StatusDone {
		t.Fatalf("job after drop = %s, want done", status)
	}
}

// TestServerAbandonedWaiterKeepsJobAlive is the coalescing-abandonment
// guarantee: an HTTP waiter that disconnects does not cancel the shared
// job for the other waiters.
func TestServerAbandonedWaiterKeepsJobAlive(t *testing.T) {
	backend := &blockingBackend{release: make(chan struct{}), started: make(chan string, 1)}
	_, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 8, Metrics: obs.NewRegistry(),
		Backend: backend.run,
	})
	body := fmt.Sprintf(`{"pla": %q}`, specPLA(1))

	// Waiter A: same spec, cancelled mid-wait.
	actx, acancel := context.WithCancel(context.Background())
	aDone := make(chan error, 1)
	go func() {
		req, _ := http.NewRequestWithContext(actx, http.MethodPost, ts.URL+"/v1/synth", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		_, err := http.DefaultClient.Do(req)
		aDone <- err
	}()
	<-backend.started // A's job is executing

	// Waiter B coalesces onto the same in-flight job.
	bDone := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/synth", "application/json", strings.NewReader(body))
		if err != nil {
			bDone <- nil
			return
		}
		bDone <- resp
	}()
	time.Sleep(50 * time.Millisecond) // let B reach the coalesced wait

	// A abandons. The job must keep running for B.
	acancel()
	if err := <-aDone; err == nil {
		t.Fatal("cancelled waiter's request did not error")
	}
	time.Sleep(50 * time.Millisecond) // would-be cancellation propagates
	close(backend.release)

	select {
	case resp := <-bDone:
		if resp == nil {
			t.Fatal("surviving waiter's request failed")
		}
		var env SynthResponse
		if err := readJSON(resp, &env); err != nil {
			t.Fatal(err)
		}
		if env.Status != StatusDone || env.Result == nil {
			t.Fatalf("surviving waiter got %s, want done with result", env.Status)
		}
		if !env.Result.Verified {
			t.Fatal("surviving waiter got a zero result — job was cancelled by the abandoner")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("surviving waiter never got the result")
	}
}

func readJSON(resp *http.Response, v any) error {
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("decode %q: %w", data, err)
	}
	return nil
}

// TestServerHealthzStates covers the healthz body across ok and draining.
func TestServerHealthzStates(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, Metrics: obs.NewRegistry()})
	var h Health
	if resp := getJSON(t, ts.URL+"/healthz", &h); resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", resp.StatusCode)
	}
	if h.Status != "ok" || len(h.Reasons) != 0 {
		t.Fatalf("health = %+v, want ok", h)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if resp := getJSON(t, ts.URL+"/healthz", &h); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/healthz while draining = %d, want 503", resp.StatusCode)
	}
	if h.Status != "draining" {
		t.Fatalf("health = %+v, want draining", h)
	}
}

// TestServerHealthQueueSaturated: a full queue degrades health (the
// server is rejecting admissions) without taking it out of rotation.
func TestServerHealthQueueSaturated(t *testing.T) {
	backend := &blockingBackend{release: make(chan struct{}), started: make(chan string, 1)}
	s, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 1, Metrics: obs.NewRegistry(),
		Backend: backend.run,
	})
	defer close(backend.release)
	// One job occupies the worker, one fills the queue.
	submitPLA(t, s, 1, 0)
	<-backend.started
	submitPLA(t, s, 2, 0)

	var h Health
	if resp := getJSON(t, ts.URL+"/healthz", &h); resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", resp.StatusCode)
	}
	if h.Status != "degraded" || len(h.Reasons) == 0 || !strings.Contains(h.Reasons[0], "queue") {
		t.Fatalf("health = %+v, want degraded with queue reason", h)
	}
}
