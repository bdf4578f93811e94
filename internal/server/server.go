// Package server is the long-running synthesis service: a bounded job
// queue (internal/jobqueue) feeding a fixed worker pool that executes
// pipeline jobs (internal/pipeline.RunJob), fronted by an HTTP/JSON API
// and a content-addressed result cache.
//
// Request identity is the pair (spec content hash, normalized job
// options): internal/pla.HashFunction collapses cube order, redundant
// cubes, and logic-type encodings, and pipeline.JobOptions.Normalize
// collapses equivalent option structs. Identical requests therefore
//
//   - coalesce while in flight (internal/flight: one queue slot, one
//     worker execution, any number of waiters), and
//   - hit the LRU result cache (internal/lru) afterwards, which
//     answers with the finished job that computed the result.
//
// Overload is explicit: a full queue rejects with ErrQueueFull, which
// the HTTP layer maps to 429 + Retry-After. Shutdown is graceful: Drain
// stops admissions, lets the workers finish the backlog, and only then
// returns — the service half of relsynd's SIGTERM handling.
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"relsyn/internal/flight"
	"relsyn/internal/jobqueue"
	"relsyn/internal/lru"
	"relsyn/internal/network"
	"relsyn/internal/obs"
	"relsyn/internal/pipeline"
	"relsyn/internal/pla"
	"relsyn/internal/store"
	"relsyn/internal/tt"
)

// Service-level errors surfaced by Submit.
var (
	// ErrQueueFull reports backpressure: the job queue is at capacity.
	ErrQueueFull = errors.New("server: queue full")
	// ErrDraining reports that the server no longer admits work.
	ErrDraining = errors.New("server: draining")
	// ErrBackendPanic wraps a panic recovered from the job backend: the
	// job fails, the worker survives.
	ErrBackendPanic = errors.New("server: backend panic")
)

// Backend executes one synthesis job. The default is pipeline.RunJob;
// tests (and future remote/sharded backends) substitute their own.
type Backend func(ctx context.Context, f *tt.Function, opt pipeline.JobOptions) (*pipeline.JobResult, error)

// ResynBackend executes one network-reassignment job (POST /v1/resyn).
// The default is pipeline.RunNetworkJob; relsynd substitutes a wrapper
// that fills server-wide DC-mode and budget defaults.
type ResynBackend func(ctx context.Context, nw *network.Network, opt pipeline.JobOptions) (*pipeline.NetworkJobResult, error)

// Config sizes the service.
type Config struct {
	// Workers is the worker-pool size (default: GOMAXPROCS).
	Workers int
	// QueueDepth bounds the job queue (default 256).
	QueueDepth int
	// CacheSize bounds the result cache in entries (default 512; 0 with
	// DisableCache set disables caching).
	CacheSize int
	// DisableCache turns the result cache off even if CacheSize is 0
	// (meaning "default") elsewhere.
	DisableCache bool
	// DefaultTimeout is applied to jobs that carry no timeout_ms
	// (default 30s). It bounds queue wait plus execution.
	DefaultTimeout time.Duration
	// MaxTimeout caps any requested per-job timeout (default 5m).
	MaxTimeout time.Duration
	// RetryAfter is the hint returned with 429 responses (default 1s).
	RetryAfter time.Duration
	// MaxJobStates bounds the finished-job registry served by
	// GET /v1/jobs/{id} (default 4096).
	MaxJobStates int
	// Backend overrides the job executor (default pipeline.RunJob).
	Backend Backend
	// ResynBackend overrides the network-job executor behind POST
	// /v1/resyn (default pipeline.RunNetworkJob).
	ResynBackend ResynBackend
	// Store, when non-nil, makes accepted jobs durable: every lifecycle
	// transition is appended to the store's WAL, and Recover re-admits
	// interrupted work after a restart. nil keeps the pre-durability
	// volatile behavior.
	Store *store.Store
	// Breaker guards Store appends; persistent failures open it and the
	// server degrades to in-memory serving (relsyn_store_degraded=1)
	// instead of failing requests. Default: store.NewBreaker(0, 0)
	// (3 consecutive failures, 5s cooldown) when Store is set.
	Breaker *store.Breaker
	// Metrics is the observability registry the server (and its queue,
	// cache, and singleflight group) exports on GET /metrics. Default:
	// obs.Default, which also carries the pipeline stage metrics. Tests
	// pass a fresh registry for isolation.
	Metrics *obs.Registry
	// Peers, when non-empty, makes this shard cluster-aware: the full
	// fleet membership (including this node, matching every other node's
	// -peers flag) used to build the placement ring for peer cache fill.
	Peers []string
	// SelfAddr is this shard's own entry in Peers (required with Peers):
	// it pins which ring positions are local so the shard never fetches
	// from itself.
	SelfAddr string
	// PeerVNodes is the ring's virtual-node count per peer (default
	// cluster.DefaultVNodes). Must match the routers' setting.
	PeerVNodes int
	// PeerFillTimeout bounds one peer cache-fill fetch (default 1s) —
	// kept short because the fallback, computing locally, is always
	// available.
	PeerFillTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 512
	}
	if c.DisableCache {
		c.CacheSize = 0
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxJobStates <= 0 {
		c.MaxJobStates = 4096
	}
	if c.Backend == nil {
		c.Backend = pipeline.RunJob
	}
	if c.ResynBackend == nil {
		c.ResynBackend = pipeline.RunNetworkJob
	}
	if c.Metrics == nil {
		c.Metrics = obs.Default
	}
	return c
}

// Job lifecycle states.
const (
	StatusQueued  = "queued"
	StatusRunning = "running"
	StatusDone    = "done"
	StatusFailed  = "failed"
	StatusExpired = "expired"
)

// jobState is the shared handle for one logical job: the queue item's
// payload, the singleflight value, and the registry entry all point at
// the same state. Result/Err are written exactly once before done is
// closed; poll reads go through the mutex. A job enters the result
// cache only once its result is set, so cache readers take result
// without the mutex.
type jobState struct {
	id  string
	key string

	mu       sync.Mutex
	status   string
	result   *pipeline.JobResult
	err      string
	created  time.Time
	finished time.Time
	// aliases are additional durable job IDs coalesced onto this state
	// during crash recovery; terminal persistence covers them too, so a
	// recovered duplicate's record does not stay "queued" forever.
	aliases []string

	done   chan struct{}
	cancel context.CancelFunc
	// logged closes once the queued record is appended. The worker's
	// records wait for it: replay merges by sequence number, so a late
	// queued frame would bring a finished job back as queued.
	logged chan struct{}
}

// addAlias attaches a recovered duplicate's id unless js has finished:
// its terminal records may already be appended without the id.
func (js *jobState) addAlias(id string) bool {
	js.mu.Lock()
	defer js.mu.Unlock()
	if store.Terminal(js.status) {
		return false
	}
	js.aliases = append(js.aliases, id)
	return true
}

func (js *jobState) aliasIDs() []string {
	js.mu.Lock()
	defer js.mu.Unlock()
	return append([]string(nil), js.aliases...)
}

func (js *jobState) setRunning() {
	js.mu.Lock()
	if js.status == StatusQueued {
		js.status = StatusRunning
	}
	js.mu.Unlock()
}

// finish publishes the terminal state exactly once.
func (js *jobState) finish(status string, res *pipeline.JobResult, err error) {
	if js.settle(status, res, err) {
		js.wake()
	}
}

// settle records the terminal state; it reports false, and changes
// nothing, if js had already settled. Polls see the state at once; its
// waiters wake only at wake.
func (js *jobState) settle(status string, res *pipeline.JobResult, err error) bool {
	js.mu.Lock()
	defer js.mu.Unlock()
	if store.Terminal(js.status) {
		return false
	}
	js.status = status
	js.result = res
	if err != nil {
		js.err = err.Error()
	}
	js.finished = time.Now()
	return true
}

// wake releases a settled job's context and waiters.
func (js *jobState) wake() {
	if js.cancel != nil {
		js.cancel()
	}
	close(js.done)
}

func (js *jobState) snapshot() (status string, res *pipeline.JobResult, errMsg string) {
	js.mu.Lock()
	defer js.mu.Unlock()
	return js.status, js.result, js.err
}

func (js *jobState) isFinished() bool {
	select {
	case <-js.done:
		return true
	default:
		return false
	}
}

// work is the queue payload.
type work struct {
	state *jobState
	ctx   context.Context
	fn    *tt.Function
	opts  pipeline.JobOptions
}

// counters are the service-level job metrics, exported both on /statsz
// (JSON) and /metrics (Prometheus). They are obs series registered in
// New — a single source of truth for both views. Cache hit/miss/evict
// and coalescing counters live in the cache and flight group themselves.
type counters struct {
	submitted   obs.Counter
	completed   obs.Counter
	failed      obs.Counter
	rejected    obs.Counter
	expired     obs.Counter
	busyWorkers obs.Gauge
}

// Server is the concurrent synthesis service.
type Server struct {
	cfg     Config
	baseCtx context.Context
	stop    context.CancelFunc

	queue   *jobqueue.Queue
	cache   *lru.Cache[string, *jobState] // settled jobs, by key
	inFly   flight.Group[*jobState]
	st      *store.Store
	breaker *store.Breaker
	peers   *peerFill // nil outside sharded deployments

	mu       sync.Mutex
	jobs     map[string]*jobState
	jobOrder []string

	wg       sync.WaitGroup
	draining atomic.Bool
	started  time.Time
	c        counters
}

// New builds and starts a server: the worker pool begins consuming
// immediately. Callers must eventually Drain (or Close) it.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	reg := cfg.Metrics
	s := &Server{
		cfg:     cfg,
		baseCtx: ctx,
		stop:    cancel,
		queue:   jobqueue.NewWithRegistry(cfg.QueueDepth, reg),
		cache:   lru.New[string, *jobState](cfg.CacheSize),
		jobs:    make(map[string]*jobState),
		started: time.Now(),
	}
	s.cache.Instrument(reg, "results")
	s.inFly.Instrument(reg, "synth")
	if cfg.Store != nil {
		s.st = cfg.Store
		s.breaker = cfg.Breaker
		if s.breaker == nil {
			s.breaker = store.NewBreaker(0, 0)
		}
		s.breaker.Instrument(reg)
	}
	if len(cfg.Peers) > 0 {
		pf, err := newPeerFill(cfg, reg)
		if err != nil {
			// Cluster misconfiguration is a boot-time programmer/operator
			// error; cmd/relsynd validates its flags before reaching here.
			panic(err)
		}
		s.peers = pf
	}
	reg.SetHelp("relsyn_jobs_submitted_total", "Jobs submitted (before cache/coalesce short-circuits).")
	reg.SetHelp("relsyn_jobs_completed_total", "Jobs that ran to a successful result.")
	reg.SetHelp("relsyn_jobs_failed_total", "Jobs whose backend returned an error.")
	reg.SetHelp("relsyn_jobs_rejected_total", "Jobs refused at admission (queue full).")
	reg.SetHelp("relsyn_jobs_expired_total", "Jobs whose deadline passed before execution.")
	reg.SetHelp("relsyn_workers", "Configured worker-pool size.")
	reg.SetHelp("relsyn_workers_busy", "Workers currently executing a job.")
	reg.RegisterCounter("relsyn_jobs_submitted_total", &s.c.submitted)
	reg.RegisterCounter("relsyn_jobs_completed_total", &s.c.completed)
	reg.RegisterCounter("relsyn_jobs_failed_total", &s.c.failed)
	reg.RegisterCounter("relsyn_jobs_rejected_total", &s.c.rejected)
	reg.RegisterCounter("relsyn_jobs_expired_total", &s.c.expired)
	reg.RegisterGauge("relsyn_workers_busy", &s.c.busyWorkers)
	reg.GaugeFunc("relsyn_workers", func() float64 { return float64(cfg.Workers) })
	reg.GaugeFunc("relsyn_draining", func() float64 {
		if s.draining.Load() {
			return 1
		}
		return 0
	})
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// SubmitOutcome reports how a submission was satisfied.
type SubmitOutcome struct {
	Job *jobState
	// Cached: served directly from the result cache (already done).
	Cached bool
	// Coalesced: joined an identical in-flight job.
	Coalesced bool
}

// Submit admits one job: cache lookup, in-flight coalescing, then queue
// admission. The returned state's done channel closes when the result
// (or error) is available. priority orders the queue (higher first).
// With a durable store configured, the spec is re-serialized from fn for
// persistence; callers that hold the original .pla text should prefer
// SubmitSpec, which persists it verbatim.
func (s *Server) Submit(fn *tt.Function, specHash string, jo pipeline.JobOptions, priority int) (*SubmitOutcome, error) {
	return s.SubmitSpec(fn, specHash, "", jo, priority)
}

// SubmitSpec is Submit with the specification's .pla text, persisted on
// the job's durable record so crash recovery can re-parse and re-enqueue
// it. An empty specPLA is serialized from fn on demand (only when a
// store is configured).
func (s *Server) SubmitSpec(fn *tt.Function, specHash, specPLA string, jo pipeline.JobOptions, priority int) (*SubmitOutcome, error) {
	if s.draining.Load() {
		return nil, ErrDraining
	}
	// Server defaults are applied before normalization so that an
	// explicit timeout equal to the default and an omitted timeout key
	// identically.
	if jo.TimeoutMs == 0 {
		jo.TimeoutMs = s.cfg.DefaultTimeout.Milliseconds()
	}
	if max := s.cfg.MaxTimeout.Milliseconds(); jo.TimeoutMs > max {
		jo.TimeoutMs = max
	}
	jo = jo.Normalize()
	if err := jo.Validate(); err != nil {
		return nil, err
	}
	s.c.submitted.Inc()
	key := specHash + "|" + jo.Key()

	// The cache counts its own hits/misses (lru.Instrument).
	for {
		if js, ok := s.cache.Get(key); ok {
			return s.serveCached(js), nil
		}
		js, started, err := s.inFly.Do(key, func() (*jobState, error) {
			// completeJob caches a job before it forgets the flight, so
			// a flight that completed after the Get above has already
			// published: go back and serve it from the cache instead of
			// running the spec twice. Peek counts no second miss.
			if _, ok := s.cache.Peek(key); ok {
				return nil, errCached
			}
			return s.enqueueJob(newJobID(), key, fn, jo, priority)
		})
		if errors.Is(err, errCached) {
			continue
		}
		if err != nil {
			return nil, err
		}
		if !started {
			// The flight group counted the join (flight.Instrument).
			return &SubmitOutcome{Job: js, Coalesced: true}, nil
		}
		s.register(js)
		s.persist(store.Record{
			ID: js.id, Key: key, Status: store.StatusQueued,
			Priority:      priority,
			SpecPLA:       s.specText(fn, specPLA),
			Options:       &jo,
			CreatedUnixMs: js.created.UnixMilli(),
		})
		close(js.logged)
		return &SubmitOutcome{Job: js}, nil
	}
}

// errCached stops a flight start whose result is already cached.
var errCached = errors.New("server: result already cached")

// serveCached answers a hit with the job that computed it. That job's
// own records make its id durable, so a hit appends nothing; it only
// re-registers the id if the registry has evicted it, so the id it
// hands out can be polled.
func (s *Server) serveCached(js *jobState) *SubmitOutcome {
	s.mu.Lock()
	if _, ok := s.jobs[js.id]; !ok {
		s.registerLocked(js.id, js)
	}
	s.mu.Unlock()
	return &SubmitOutcome{Job: js, Cached: true}
}

// enqueueJob creates the jobState for one leader job and admits it to
// the queue. Runs under the flight-group lock; it must not call back
// into the group.
func (s *Server) enqueueJob(id, key string, fn *tt.Function, jo pipeline.JobOptions, priority int) (*jobState, error) {
	js := &jobState{
		id:      id,
		key:     key,
		status:  StatusQueued,
		created: time.Now(),
		done:    make(chan struct{}),
		logged:  make(chan struct{}),
	}
	ctx, cancel := context.WithTimeout(s.baseCtx,
		time.Duration(jo.TimeoutMs)*time.Millisecond)
	js.cancel = cancel
	item := &jobqueue.Item{
		ID:       js.id,
		Priority: priority,
		Ctx:      ctx,
		Payload:  &work{state: js, ctx: ctx, fn: fn, opts: jo},
		OnExpire: func() { s.expireJob(js) },
	}
	if err := s.queue.Enqueue(item); err != nil {
		cancel()
		switch {
		case errors.Is(err, jobqueue.ErrFull):
			s.c.rejected.Inc()
			return nil, ErrQueueFull
		case errors.Is(err, jobqueue.ErrClosed):
			return nil, ErrDraining
		default:
			return nil, err
		}
	}
	return js, nil
}

// specText returns the .pla text to persist for fn: the caller's
// original text when available, otherwise a re-serialization. Returns ""
// (skipping the work) when no store is configured.
func (s *Server) specText(fn *tt.Function, specPLA string) string {
	if s.st == nil {
		return ""
	}
	if specPLA != "" {
		return specPLA
	}
	var sb strings.Builder
	if err := pla.FromFunction(fn, nil, nil).Write(&sb); err != nil {
		return "" // recovery will mark the record unreplayable
	}
	return sb.String()
}

// persist appends one record to the durable store through the circuit
// breaker. With no store configured, or with the breaker open (store
// degraded), it is a no-op — durability degrades, serving never does.
func (s *Server) persist(rec store.Record) {
	if s.st == nil {
		return
	}
	if !s.breaker.Allow() {
		return
	}
	s.breaker.Record(s.st.Append(rec))
}

// persistFinish appends the terminal record for js (and any recovery
// aliases coalesced onto it). The result payload is persisted only for
// successful completions; failures persist the message.
func (s *Server) persistFinish(js *jobState, status string, res *pipeline.JobResult, err error) {
	if s.st == nil {
		return
	}
	rec := store.Record{
		Key: js.key, Status: status,
		FinishedUnixMs: time.Now().UnixMilli(),
	}
	if status == StatusDone {
		rec.Result = res
	}
	if err != nil {
		rec.Error = err.Error()
	}
	for _, id := range append([]string{js.id}, js.aliasIDs()...) {
		r := rec
		r.ID = id
		s.persist(r)
	}
}

// Lookup returns the job registered under id.
func (s *Server) Lookup(id string) (*jobState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	js, ok := s.jobs[id]
	return js, ok
}

// register adds js to the bounded job registry, evicting the oldest
// finished entries beyond MaxJobStates.
func (s *Server) register(js *jobState) { s.registerAs(js.id, js) }

// registerAs registers js under an explicit id — recovery aliases a
// coalesced record's durable ID onto the surviving in-flight state.
func (s *Server) registerAs(id string, js *jobState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.registerLocked(id, js)
}

func (s *Server) registerLocked(id string, js *jobState) {
	s.jobs[id] = js
	s.jobOrder = append(s.jobOrder, id)
	for len(s.jobOrder) > s.cfg.MaxJobStates {
		oldest := s.jobOrder[0]
		if old, ok := s.jobs[oldest]; ok && !old.isFinished() {
			break // never evict live jobs; backlog is bounded by the queue
		}
		delete(s.jobs, oldest)
		s.jobOrder = s.jobOrder[1:]
	}
}

// expireJob marks a job dropped by the queue's deadline check. The
// waiters' error is typed: errors.Is(err, jobqueue.ErrExpired) holds.
func (s *Server) expireJob(js *jobState) {
	<-js.logged
	s.c.expired.Inc()
	err := fmt.Errorf("server: job %s: %w", js.id, jobqueue.ErrExpired)
	js.finish(StatusExpired, nil, err)
	s.persistFinish(js, StatusExpired, nil, err)
	s.inFly.Forget(js.key)
}

// worker consumes the queue until it is closed and drained (graceful
// drain) or the base context is cancelled (forced stop).
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		item, err := s.queue.Dequeue(s.baseCtx)
		if err != nil {
			return
		}
		w := item.Payload.(*work)
		s.c.busyWorkers.Add(1)
		s.runJob(w)
		s.c.busyWorkers.Add(-1)
	}
}

// runJob executes one dequeued job and publishes its outcome to its
// waiters, the store and (on success) the cache; see completeJob.
//
// A job whose deadline passed between dequeue and execution (the queue
// only checks at dequeue time) is never handed to the backend: it is
// published as expired with the same typed jobqueue.ErrExpired cause as
// a queue-side drop, closing the race in which a just-expired job would
// burn worker time and surface as a generic "failed".
func (s *Server) runJob(w *work) {
	js := w.state
	if w.ctx.Err() != nil {
		s.expireJob(js)
		return
	}
	<-js.logged
	js.setRunning()
	s.persist(store.Record{ID: js.id, Key: js.key, Status: store.StatusRunning})
	// Sharded deployments: before computing, ask the key's ring owner
	// for the finished result — hedged/failed-over/rebalanced keys are
	// fetched, not recomputed. Best-effort; any miss computes locally.
	if s.peers != nil {
		if res, ok := s.peers.fetch(w.ctx, js.key); ok {
			s.completeJob(js, res)
			return
		}
	}
	res, err := s.callBackend(w)
	if err != nil {
		s.c.failed.Inc()
		js.finish(StatusFailed, res, err)
		s.persistFinish(js, StatusFailed, res, err)
		s.inFly.Forget(js.key)
		return
	}
	s.completeJob(js, res)
}

// completeJob publishes a successful result: the cache before the
// waiters wake, so a result can be fetched once its reply is out, and
// before the flight is forgotten, so duplicates never recompute; then
// the done record with its result. A hit may hand out the id before
// that record is on disk, but the job's queued record already is, so
// after a crash Recover requeues the job under the same id.
func (s *Server) completeJob(js *jobState, res *pipeline.JobResult) {
	s.c.completed.Inc()
	if js.settle(StatusDone, res, nil) {
		s.cache.Add(js.key, js)
		js.wake()
	}
	s.persistFinish(js, StatusDone, res, nil)
	s.inFly.Forget(js.key)
}

// callBackend shields the worker pool from a panicking backend: the
// panic becomes a job failure wrapping ErrBackendPanic instead of
// killing the process (the chaos harness injects exactly this fault).
func (s *Server) callBackend(w *work) (res *pipeline.JobResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("%w: %v", ErrBackendPanic, r)
		}
	}()
	return s.cfg.Backend(w.ctx, w.fn, w.opts)
}

// RecoveryStats reports what Recover did with the store's records.
type RecoveryStats struct {
	// Restored terminal records re-registered for /v1/jobs/{id} (done
	// results also re-primed the cache).
	Restored int
	// Requeued interrupted (queued/running) jobs re-admitted to the
	// queue, after coalescing duplicates and cache hits.
	Requeued int
	// Deduped interrupted jobs satisfied without recomputation: joined
	// an identical requeued job or completed from a recovered result.
	Deduped int
	// Failed records that could not be replayed (unparseable spec or a
	// full queue); each is finished as failed — still a terminal state.
	Failed int
}

// Recover ingests the records returned by store.Open, called once
// after New and before the listener starts taking traffic:
//
//   - terminal records re-populate the /v1/jobs registry, and done
//     results re-prime the content-addressed cache;
//   - queued/running records — work the previous process accepted but
//     never finished — are re-enqueued idempotently: a key whose result
//     was recovered completes immediately from cache, and identical
//     interrupted jobs coalesce through the singleflight group, so a
//     recovered job never recomputes a cached result.
//
// Re-enqueued jobs keep their original IDs (pollers holding a pre-crash
// job id keep working) and their original priority and options; their
// deadline clock restarts at recovery time.
func (s *Server) Recover(records []store.Record) RecoveryStats {
	var st RecoveryStats
	// Pass 1: terminal records, so the cache is warm before any
	// interrupted job is considered. Older binaries appended a done
	// record without a result for each cache hit (a trail record), at
	// times ahead of the result it points at, so trails resolve only
	// once every result is cached. Peek: a restart serves no request.
	var trails []store.Record
	for _, rec := range records {
		if !store.Terminal(rec.Status) {
			continue
		}
		if rec.Status == store.StatusDone && rec.Result == nil && rec.Key != "" {
			trails = append(trails, rec)
			continue
		}
		js := s.restore(rec)
		if rec.Status == store.StatusDone && rec.Key != "" {
			s.cache.Add(rec.Key, js)
		}
		st.Restored++
	}
	for _, rec := range trails {
		if js, ok := s.cache.Peek(rec.Key); ok {
			rec.Result = js.result
		}
		s.restore(rec)
		st.Restored++
	}
	// Pass 2: interrupted work.
	for _, rec := range records {
		if store.Terminal(rec.Status) {
			continue
		}
		s.recoverPending(rec, &st)
	}
	return st
}

// restore registers a finished jobState for a terminal record.
func (s *Server) restore(rec store.Record) *jobState {
	js := &jobState{
		id: rec.ID, key: rec.Key, status: rec.Status, result: rec.Result,
		err:      rec.Error,
		created:  time.UnixMilli(rec.CreatedUnixMs),
		finished: time.UnixMilli(rec.FinishedUnixMs),
		done:     make(chan struct{}),
	}
	close(js.done)
	s.register(js)
	return js
}

// recoverPending re-admits one interrupted record.
func (s *Server) recoverPending(rec store.Record, st *RecoveryStats) {
	// resolve finishes rec's own job, without running it, from an
	// outcome reached under another id.
	resolve := func(status string, res *pipeline.JobResult, err error) {
		js := &jobState{
			id: rec.ID, key: rec.Key, status: StatusQueued,
			created: time.UnixMilli(rec.CreatedUnixMs),
			done:    make(chan struct{}),
		}
		js.finish(status, res, err)
		s.persistFinish(js, status, res, err)
		s.register(js)
	}
	fail := func(err error) {
		st.Failed++
		resolve(StatusFailed, nil, err)
	}
	if rec.SpecPLA == "" || rec.Options == nil || rec.Key == "" {
		fail(fmt.Errorf("server: recovered job %s: record carries no replayable spec", rec.ID))
		return
	}
	file, err := pla.Parse(strings.NewReader(rec.SpecPLA))
	if err != nil {
		fail(fmt.Errorf("server: recovered job %s: parse spec: %w", rec.ID, err))
		return
	}
	fn, err := file.ToFunction()
	if err != nil {
		fail(fmt.Errorf("server: recovered job %s: rebuild spec: %w", rec.ID, err))
		return
	}
	// Cached result (recovered in pass 1, or computed by an earlier
	// requeued duplicate that already finished): terminal, no recompute.
	if cached, ok := s.cache.Peek(rec.Key); ok {
		resolve(StatusDone, cached.result, nil)
		st.Deduped++
		return
	}
	jo := *rec.Options
	js, started, err := s.inFly.Do(rec.Key, func() (*jobState, error) {
		return s.enqueueJob(rec.ID, rec.Key, fn, jo, rec.Priority)
	})
	if err != nil {
		fail(fmt.Errorf("server: recovered job %s: re-enqueue: %w", rec.ID, err))
		return
	}
	if !started {
		st.Deduped++
		// Identical interrupted job already requeued: alias this record's
		// ID onto the in-flight state so Lookup works and the terminal
		// append covers it. If that job has just finished, take its
		// outcome under this record's own id.
		if js.addAlias(rec.ID) {
			s.registerAs(rec.ID, js)
			return
		}
		status, res, errMsg := js.snapshot()
		var jobErr error
		if errMsg != "" {
			jobErr = errors.New(errMsg)
		}
		resolve(status, res, jobErr)
		return
	}
	// The queued record is already in the store.
	close(js.logged)
	s.register(js)
	st.Requeued++
}

// Health classifies the service for load balancers and operators.
type Health struct {
	// Status is "ok", "degraded" (still serving, but shedding
	// durability or saturated), or "draining" (shutting down).
	Status string `json:"status"`
	// Reasons lists what degraded the service.
	Reasons []string `json:"reasons,omitempty"`
}

// Health reports ok / degraded / draining. Degraded covers: job queue
// at capacity (admissions are being rejected with 429) and store
// circuit open (serving without durability).
func (s *Server) Health() Health {
	if s.draining.Load() {
		return Health{Status: "draining"}
	}
	var reasons []string
	if qs := s.queue.Stats(); qs.Len >= qs.Depth {
		reasons = append(reasons, "queue saturated")
	}
	if s.breaker != nil && s.breaker.Degraded() {
		reasons = append(reasons, "store circuit open")
	}
	if len(reasons) > 0 {
		return Health{Status: "degraded", Reasons: reasons}
	}
	return Health{Status: "ok"}
}

// Drain gracefully shuts the server down: stop admitting, let workers
// finish every queued and in-flight job, then return. If ctx expires
// first, remaining jobs are cancelled via the base context and Drain
// waits (briefly) for the workers to observe it.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.queue.Close()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.stop()
		return nil
	case <-ctx.Done():
		s.stop() // cancel in-flight pipelines; they poll interrupts
		<-done
		return ctx.Err()
	}
}

// Close force-stops the server without waiting for the backlog.
func (s *Server) Close() {
	s.draining.Store(true)
	s.queue.Close()
	s.stop()
	s.wg.Wait()
}

// Draining reports whether the server has stopped admitting work.
func (s *Server) Draining() bool { return s.draining.Load() }

// Stats is the /statsz payload.
type Stats struct {
	UptimeSeconds float64        `json:"uptime_seconds"`
	Workers       int            `json:"workers"`
	BusyWorkers   int64          `json:"busy_workers"`
	Draining      bool           `json:"draining"`
	Queue         jobqueue.Stats `json:"queue"`
	Submitted     int64          `json:"submitted"`
	Completed     int64          `json:"completed"`
	Failed        int64          `json:"failed"`
	Rejected      int64          `json:"rejected"`
	Expired       int64          `json:"expired"`
	Coalesced     int64          `json:"coalesced"`
	Cache         lru.Stats      `json:"cache"`
	InFlightKeys  int            `json:"in_flight_keys"`
	Store         *store.Stats   `json:"store,omitempty"`
	StoreBreaker  string         `json:"store_breaker,omitempty"`
}

// Stats snapshots the service counters.
func (s *Server) Stats() Stats {
	var storeStats *store.Stats
	var breakerState string
	if s.st != nil {
		st := s.st.Stats()
		storeStats = &st
		breakerState = s.breaker.State()
	}
	return Stats{
		Store:         storeStats,
		StoreBreaker:  breakerState,
		UptimeSeconds: time.Since(s.started).Seconds(),
		Workers:       s.cfg.Workers,
		BusyWorkers:   int64(s.c.busyWorkers.Value()),
		Draining:      s.draining.Load(),
		Queue:         s.queue.Stats(),
		Submitted:     s.c.submitted.Value(),
		Completed:     s.c.completed.Value(),
		Failed:        s.c.failed.Value(),
		Rejected:      s.c.rejected.Value(),
		Expired:       s.c.expired.Value(),
		Coalesced:     s.inFly.Stats().Coalesced,
		Cache:         s.cache.Stats(),
		InFlightKeys:  s.inFly.Len(),
	}
}

// RetryAfter returns the configured 429 retry hint.
func (s *Server) RetryAfter() time.Duration { return s.cfg.RetryAfter }

func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("server: entropy unavailable: %v", err))
	}
	return "job_" + hex.EncodeToString(b[:])
}
