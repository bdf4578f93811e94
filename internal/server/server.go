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
//   - coalesce while in flight (one queue slot, one worker execution,
//     any number of waiters), and
//   - hit the LRU result cache (internal/lru) afterwards, which
//     answers with the finished job that computed the result.
//
// Both live in one key table guarded by Server.mu: every transition of
// a key (admit, join, finish) is one critical section, so a key is
// always exactly one of absent, in flight, or cached.
//
// Overload is explicit: a full queue rejects with ErrQueueFull, which
// the HTTP layer maps to 429 + Retry-After. Shutdown is graceful: Drain
// stops admissions, lets the workers finish the backlog, and only then
// returns — the service half of relsynd's SIGTERM handling.
package server

import (
	"context"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"relsyn/internal/cluster"
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
// that fills the server-wide SAT conflict budget.
type ResynBackend func(ctx context.Context, nw *network.Network, opt pipeline.JobOptions) (*pipeline.NetworkJobResult, error)

// Config sizes the service.
type Config struct {
	// Workers is the worker-pool size (default: GOMAXPROCS).
	Workers int
	// QueueDepth bounds the job queue (default 256).
	QueueDepth int
	// CacheSize bounds the result cache in entries (default 512 when 0
	// or negative). The cache cannot change an answer, so it has no off
	// switch.
	CacheSize int
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
	// Metrics is the observability registry the server (and its queue
	// and cache) exports on GET /metrics. Default:
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
// payload, the key-table entry, and the registry entry all point at the
// same state. Result/Err are written exactly once, before done is
// closed; poll reads go through js.mu. An admitted job finishes under
// Server.mu, so readers that found it in the key table under Server.mu
// take result without js.mu.
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
	// forms holds the finished job's envelope, encoded as
	// cluster.WriteJSON writes it, once per form; see envelope.
	forms [numForms][]byte

	done   chan struct{}
	cancel context.CancelFunc
	// logged closes once the queued record is appended. The worker's
	// records wait for it: replay merges by sequence number, so a late
	// queued frame would bring a finished job back as queued.
	logged chan struct{}
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

// finish records the terminal state and wakes the waiters. Each job
// finishes once: Server.finish for admitted jobs, recoverPending for a
// record resolved without running.
func (js *jobState) finish(status string, res *pipeline.JobResult, err error) {
	js.mu.Lock()
	js.status = status
	js.result = res
	if err != nil {
		js.err = err.Error()
	}
	js.finished = time.Now()
	js.mu.Unlock()
	if js.cancel != nil {
		js.cancel()
	}
	close(js.done)
}

// The forms of a finished job's envelope. It varies only in its cached
// and coalesced flags, and a reply sets at most one of them.
const (
	formComputed = iota
	formCoalesced
	formCached
	numForms
)

// envelope returns the job's envelope with the given flags, encoded as
// cluster.WriteJSON writes it. A finished job's state never changes, so
// each of its forms is encoded on first use and kept: every later reply
// writes the same bytes. A slot is encoded with its own form's flags, so
// it never holds another form. An unfinished job's envelope is encoded
// afresh.
func (js *jobState) envelope(cached, coalesced bool) []byte {
	if !js.isFinished() {
		return cluster.Encode(respond(js, cached, coalesced))
	}
	f := formComputed
	switch {
	case cached:
		f = formCached
	case coalesced:
		f = formCoalesced
	}
	js.mu.Lock()
	defer js.mu.Unlock()
	if js.forms[f] == nil {
		js.forms[f] = cluster.Encode(js.responseLocked(f == formCached, f == formCoalesced))
	}
	return js.forms[f]
}

// responseLocked is the job's envelope with the given flags. js.mu is
// held.
func (js *jobState) responseLocked(cached, coalesced bool) SynthResponse {
	return SynthResponse{
		JobID:     js.id,
		Status:    js.status,
		Cached:    cached,
		Coalesced: coalesced,
		Result:    js.result,
		Error:     js.err,
	}
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
// counters live in the cache itself.
type counters struct {
	// started counts jobs entered in the in-flight table (leaders);
	// coalesced counts submissions that joined one.
	started     obs.Counter
	coalesced   obs.Counter
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
	st      *store.Store
	breaker *store.Breaker
	peers   *peerFill // nil outside sharded deployments

	// mu guards the key table (inFlight and cache), the digest index and
	// the /v1/jobs registry (jobs, jobOrder). A key is in at most one of
	// inFlight and cache, and moves between them only under mu.
	mu       sync.Mutex
	inFlight map[string]*jobState            // admitted, unfinished jobs
	cache    *lru.Cache[string, *jobState]   // finished jobs that succeeded
	digests  *lru.Cache[digest, digestEntry] // admitted /v1/synth bodies; see submitDigest
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
		cfg:      cfg,
		baseCtx:  ctx,
		stop:     cancel,
		queue:    jobqueue.NewWithRegistry(cfg.QueueDepth, reg),
		inFlight: make(map[string]*jobState),
		cache:    lru.New[string, *jobState](cfg.CacheSize),
		digests:  lru.New[digest, digestEntry](cfg.CacheSize),
		jobs:     make(map[string]*jobState),
		started:  time.Now(),
	}
	s.cache.Instrument(reg, "results")
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
	reg.SetHelp("relsyn_flight_started_total", "Jobs entered in the in-flight table (leaders).")
	reg.SetHelp("relsyn_flight_coalesced_total", "Submissions that joined an in-flight job.")
	reg.SetHelp("relsyn_flight_inflight_keys", "Keys currently in the in-flight table.")
	synth := obs.L("group", "synth")
	reg.RegisterCounter("relsyn_flight_started_total", &s.c.started, synth)
	reg.RegisterCounter("relsyn_flight_coalesced_total", &s.c.coalesced, synth)
	reg.GaugeFunc("relsyn_flight_inflight_keys", func() float64 { return float64(s.inFlightKeys()) }, synth)
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

// SubmitSpec admits one job: a cache hit, a join onto an identical
// in-flight job, or queue admission. The returned state's done channel
// closes when the result (or error) is available. priority orders the
// queue (higher first). specPLA is persisted on a new job's durable
// record so crash recovery can re-parse and re-enqueue it; an empty
// specPLA is serialized from fn on demand (only when a store is
// configured).
func (s *Server) SubmitSpec(fn *tt.Function, specHash, specPLA string, jo pipeline.JobOptions, priority int) (*SubmitOutcome, error) {
	if s.draining.Load() {
		return nil, ErrDraining
	}
	// Server defaults are applied before normalization so that an
	// explicit timeout equal to the default and an omitted timeout key
	// identically.
	jo.TimeoutMs = s.timeoutMs(jo.TimeoutMs)
	jo = jo.Normalize()
	if err := jo.Validate(); err != nil {
		return nil, err
	}
	s.c.submitted.Inc()
	key := specHash + "|" + jo.Key()
	out, err := s.admit(key, fn, jo, priority, "")
	if err != nil || out.Cached || out.Coalesced {
		return out, err
	}
	js := out.Job
	s.persist(store.Record{
		ID: js.id, Key: key, Status: store.StatusQueued,
		Priority:      priority,
		SpecPLA:       s.specText(fn, specPLA),
		Options:       &jo,
		CreatedUnixMs: js.created.UnixMilli(),
	})
	close(js.logged)
	return out, nil
}

// timeoutMs applies the server's timeout policy to a requested job
// timeout: DefaultTimeout when the request carries none, capped at
// MaxTimeout.
func (s *Server) timeoutMs(requested int64) int64 {
	if requested == 0 {
		requested = s.cfg.DefaultTimeout.Milliseconds()
	}
	return min(requested, s.cfg.MaxTimeout.Milliseconds())
}

// admit is the admission transition of the key table, one critical
// section under s.mu: a cached key answers with the job that computed
// it, an in-flight key joins its job, and any other key enqueues a new
// job and enters it in the in-flight table.
//
// recovered is "" for a live submission. Crash recovery passes the
// replayed record's id instead: the job keeps that id, the cache probe
// counts no hit or miss (a restart serves no request), and a join
// attaches the id as an alias of the joined job. An in-flight job has
// not finished, so its terminal records will carry the alias.
func (s *Server) admit(key string, fn *tt.Function, jo pipeline.JobOptions, priority int, recovered string) (*SubmitOutcome, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if out, ok := s.cachedLocked(key, recovered != ""); ok {
		return out, nil
	}
	if js, ok := s.inFlight[key]; ok {
		s.c.coalesced.Inc()
		if recovered != "" {
			js.mu.Lock()
			js.aliases = append(js.aliases, recovered)
			js.mu.Unlock()
			s.registerLocked(recovered, js)
		}
		return &SubmitOutcome{Job: js, Coalesced: true}, nil
	}
	id := recovered
	if id == "" {
		id = newJobID()
	}
	js, err := s.enqueueJob(id, key, fn, jo, priority)
	if err != nil {
		return nil, err
	}
	s.inFlight[key] = js
	s.c.started.Inc()
	s.registerLocked(id, js)
	return &SubmitOutcome{Job: js}, nil
}

// cachedLocked is the key table's cache-hit branch, shared by admit and
// the digest index: a cached key answers with the job that computed it.
// The cache counts a live probe's hit or miss. The job's own records
// make its id durable, so a hit appends nothing; a live hit re-registers
// the id only if the registry has evicted it, so the id it hands out can
// be polled. A recovery probe (recovered) counts and registers nothing:
// a restart serves no request.
func (s *Server) cachedLocked(key string, recovered bool) (*SubmitOutcome, bool) {
	probe := s.cache.Get
	if recovered {
		probe = s.cache.Peek
	}
	js, ok := probe(key)
	if !ok {
		return nil, false
	}
	if !recovered && s.jobs[js.id] == nil {
		s.registerLocked(js.id, js)
	}
	return &SubmitOutcome{Job: js, Cached: true}, true
}

// digest is the SHA-256 of a POST /v1/synth body.
type digest = [sha256.Size]byte

// digestEntry is what the digest index keeps for one body: the cache key
// its admission derived and its "wait" flag, never the body itself.
type digestEntry struct {
	key  string
	wait bool
}

// submitDigest answers a live submission whose body bytes were admitted
// before and whose key is still cached, without decoding, parsing or
// hashing the body again: the key is a pure function of the body bytes
// and the server's fixed timeout policy, so an index entry never goes
// stale, only cold. It reports false, moving no service counter, for an
// unknown digest, a key that is in flight or evicted, and a draining
// server; the caller then takes the full path, which counts the request
// once.
func (s *Server) submitDigest(d digest) (out *SubmitOutcome, wait, ok bool) {
	if s.draining.Load() {
		return nil, false, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.digests.Get(d)
	if !ok {
		return nil, false, false
	}
	if _, ok := s.cache.Peek(e.key); !ok {
		return nil, false, false
	}
	s.c.submitted.Inc()
	out, _ = s.cachedLocked(e.key, false)
	return out, e.wait, true
}

// indexDigest records that body digest d was admitted under key.
func (s *Server) indexDigest(d digest, key string, wait bool) {
	s.mu.Lock()
	s.digests.Add(d, digestEntry{key: key, wait: wait})
	s.mu.Unlock()
}

// finish is the terminal transition of the key table, one critical
// section under s.mu: a successful job enters the cache, the job leaves
// the in-flight table, and its state is published and its waiters
// woken. The cache is read only under s.mu, so once a reply is out its
// result can be fetched (GET /v1/cache/{key}, peer fill) and a repeat
// is a hit; and a key is never both cached and in flight, so a
// duplicate never recomputes and a retry never joins a finished job.
// The terminal record is appended after the wake, outside the lock, so
// the leader's latency excludes the fsync.
func (s *Server) finish(js *jobState, status string, res *pipeline.JobResult, err error) {
	s.mu.Lock()
	if status == StatusDone {
		s.cache.Add(js.key, js)
	}
	delete(s.inFlight, js.key)
	js.finish(status, res, err)
	s.mu.Unlock()
	s.persistFinish(js, status, res, err)
}

// inFlightKeys counts the keys in the in-flight table.
func (s *Server) inFlightKeys() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.inFlight)
}

// enqueueJob creates the jobState for one leader job and admits it to
// the queue. Runs under s.mu; the queue never calls back into the
// server from Enqueue.
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
func (s *Server) register(js *jobState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.registerLocked(js.id, js)
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
	s.finish(js, StatusExpired, nil, fmt.Errorf("server: job %s: %w", js.id, jobqueue.ErrExpired))
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

// runJob executes one dequeued job and publishes its outcome; see
// finish.
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
	var res *pipeline.JobResult
	if s.peers != nil {
		res, _ = s.peers.fetch(w.ctx, js.key)
	}
	var err error
	if res == nil {
		res, err = s.callBackend(w)
	}
	if err != nil {
		s.c.failed.Inc()
		s.finish(js, StatusFailed, res, err)
		return
	}
	s.c.completed.Inc()
	s.finish(js, StatusDone, res, nil)
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
//     never finished — are re-admitted through the same key table as
//     live submissions: a key whose result was recovered completes
//     immediately from cache, and identical interrupted jobs coalesce,
//     so a recovered job never recomputes a cached result.
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
	// No job is admitted before pass 2, so pass 1 fills the cache
	// without s.mu.
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
	fn, _, err := pla.ParseSpec(rec.SpecPLA)
	if err != nil {
		fail(fmt.Errorf("server: recovered job %s: parse spec: %w", rec.ID, err))
		return
	}
	out, err := s.admit(rec.Key, fn, *rec.Options, rec.Priority, rec.ID)
	switch {
	case err != nil:
		fail(fmt.Errorf("server: recovered job %s: re-enqueue: %w", rec.ID, err))
	case out.Cached:
		// Recovered in pass 1, or computed by an earlier requeued
		// duplicate that already finished: terminal, no recompute.
		resolve(StatusDone, out.Job.result, nil)
		st.Deduped++
	case out.Coalesced:
		// Identical interrupted job already requeued: admit aliased
		// this record's id onto it.
		st.Deduped++
	default:
		// The queued record is already in the store.
		close(out.Job.logged)
		st.Requeued++
	}
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
		Coalesced:     s.c.coalesced.Value(),
		Cache:         s.cache.Stats(),
		InFlightKeys:  s.inFlightKeys(),
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
