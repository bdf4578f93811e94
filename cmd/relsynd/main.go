// Command relsynd is the long-running synthesis service: an HTTP/JSON
// front end over a bounded job queue, a fixed worker pool running the
// reliability-driven synthesis pipeline, and a content-addressed result
// cache. See internal/server for the API surface.
//
// Usage:
//
//	relsynd [-addr :8337] [-workers N] [-queue-depth N] [-cache-size N]
//	        [-default-timeout 30s] [-max-timeout 5m] [-retry-after 1s]
//	        [-drain-timeout 30s] [-pprof-addr localhost:6060]
//	        [-max-conflicts N] [-max-aig-nodes N] [-j N]
//	        [-store-dir DIR] [-wal-sync always|interval|off]
//	        [-peers host:port,... -self host:port] [-vnodes 64]
//	        [-peer-fill-timeout 1s]
//
// Network jobs: POST /v1/resyn reassigns the internal don't-cares of a
// BLIF network (see internal/pipeline.RunNetworkJob), with the
// DC-extraction engine picked from the network's size exactly as
// `relsyn resyn` picks it. -max-conflicts bounds their SAT effort.
//
// Clustering: -peers (the full shard fleet, identical on every node and
// on the router) plus -self (this node's entry in that list) makes the
// shard cluster-aware: before computing a cache miss it asks the key's
// consistent-hash ring owner for the finished result via the internal
// GET /v1/cache/{key} endpoint, so keys that arrive here via router
// hedging or failover are fetched instead of recomputed. -vnodes must
// match the router's setting. See cmd/relsyn-router and DESIGN §12.
//
// Durability: -store-dir enables the crash-safe job store (internal/
// store) — every accepted job is WAL-logged, and on restart interrupted
// jobs are re-enqueued (deduplicated against recovered results) while
// finished jobs stay pollable under their old IDs. -wal-sync picks the
// fsync policy: "always" (default; no accepted record lost even to a
// machine crash), "interval" (bounded loss window, lower latency), or
// "off" (process-crash safe only). Without -store-dir the service is
// volatile, as before.
//
// Observability: GET /metrics serves the Prometheus text exposition of
// every queue/cache/pipeline/HTTP series, GET /statsz the JSON view.
// -pprof-addr (off by default) starts a second listener serving only
// net/http/pprof — kept off the public mux so profiling endpoints are
// never exposed on the service port.
//
// SIGINT/SIGTERM starts a graceful drain: the listener stops accepting,
// queued and in-flight jobs run to completion (bounded by
// -drain-timeout), then the process exits 0. A second signal forces an
// immediate stop with exit 1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"relsyn/internal/census"
	"relsyn/internal/cluster"
	"relsyn/internal/network"
	"relsyn/internal/obs"
	"relsyn/internal/pipeline"
	"relsyn/internal/server"
	"relsyn/internal/store"
	"relsyn/internal/tt"
)

// pprofMux serves the standard net/http/pprof endpoints on an explicit
// mux (the package's init registers on http.DefaultServeMux, which we
// never serve).
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func main() {
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, sig))
}

// daemonConfig is the parsed flag set.
type daemonConfig struct {
	addr         string
	pprofAddr    string
	drainTimeout time.Duration
	censusMB     int
	storeDir     string
	walSync      string
	peers        string
	server       server.Config
	budget       budgetDefaults
}

// budgetDefaults are server-wide resource caps applied to jobs that do
// not carry their own.
type budgetDefaults struct {
	maxConflicts int64
	maxAIGNodes  int
	parallelism  int
}

func parseFlags(args []string, stderr io.Writer) (*daemonConfig, error) {
	fs := flag.NewFlagSet("relsynd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := &daemonConfig{}
	fs.StringVar(&cfg.addr, "addr", ":8337", "listen address")
	fs.IntVar(&cfg.server.Workers, "workers", 0, "worker pool size (default: GOMAXPROCS)")
	fs.IntVar(&cfg.server.QueueDepth, "queue-depth", 0, "job queue depth (default 256)")
	fs.IntVar(&cfg.server.CacheSize, "cache-size", 0, "result cache entries (default 512)")
	fs.DurationVar(&cfg.server.DefaultTimeout, "default-timeout", 0, "per-job budget when the request carries none (default 30s)")
	fs.DurationVar(&cfg.server.MaxTimeout, "max-timeout", 0, "cap on requested per-job timeouts (default 5m)")
	fs.DurationVar(&cfg.server.RetryAfter, "retry-after", 0, "Retry-After hint on 429 responses (default 1s)")
	fs.DurationVar(&cfg.drainTimeout, "drain-timeout", 30*time.Second, "grace period for finishing jobs on shutdown")
	fs.StringVar(&cfg.pprofAddr, "pprof-addr", "", "serve net/http/pprof on this address (empty = disabled)")
	fs.Int64Var(&cfg.budget.maxConflicts, "max-conflicts", 0, "default per-node SAT conflict budget for network (resyn) jobs that carry none; dense synth jobs run no SAT (0 = default)")
	fs.IntVar(&cfg.budget.maxAIGNodes, "max-aig-nodes", 0, "default AIG node budget for jobs that carry none (0 = unlimited)")
	fs.IntVar(&cfg.budget.parallelism, "j", 0, "default per-job analysis parallelism for jobs that carry none (0 = GOMAXPROCS, 1 = sequential)")
	fs.IntVar(&cfg.censusMB, "census-cache-mb", 64, "byte budget (MiB) of the fused neighbor-census cache (0 disables census caching)")
	fs.StringVar(&cfg.storeDir, "store-dir", "", "directory for the durable job store (empty = volatile, no durability)")
	fs.StringVar(&cfg.walSync, "wal-sync", "always", "WAL fsync policy: always, interval, or off")
	fs.StringVar(&cfg.peers, "peers", "", "comma-separated shard fleet (including this node) for peer cache fill; empty = standalone")
	fs.StringVar(&cfg.server.SelfAddr, "self", "", "this node's entry in -peers (required with -peers)")
	fs.IntVar(&cfg.server.PeerVNodes, "vnodes", 0, "virtual nodes per peer on the placement ring (default 64; must match the router)")
	fs.DurationVar(&cfg.server.PeerFillTimeout, "peer-fill-timeout", 0, "budget for one peer cache-fill fetch (default 1s)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		fs.Usage()
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if cfg.budget.parallelism < 0 {
		fs.Usage()
		return nil, fmt.Errorf("-j must be >= 0, got %d", cfg.budget.parallelism)
	}
	if _, err := store.ParseSyncMode(cfg.walSync); err != nil {
		fs.Usage()
		return nil, err
	}
	if err := cfg.validateCluster(); err != nil {
		fs.Usage()
		return nil, err
	}
	return cfg, nil
}

// validateCluster checks the -peers/-self pair before server.New (which
// treats cluster misconfiguration as a boot-time panic): the list must
// build a valid ring and -self must be one of its members.
func (cfg *daemonConfig) validateCluster() error {
	if cfg.peers == "" {
		if cfg.server.SelfAddr != "" {
			return errors.New("-self requires -peers")
		}
		return nil
	}
	peers := strings.Split(cfg.peers, ",")
	ring, err := cluster.NewRing(peers, cfg.server.PeerVNodes)
	if err != nil {
		return err
	}
	self := strings.TrimSpace(cfg.server.SelfAddr)
	if self == "" {
		return errors.New("-peers requires -self (this node's entry in the list)")
	}
	for _, p := range ring.Peers() {
		if p == self {
			cfg.server.Peers = peers
			cfg.server.SelfAddr = self
			return nil
		}
	}
	return fmt.Errorf("-self %q is not in -peers %v", self, ring.Peers())
}

// backendWithDefaults wraps pipeline.RunJob, filling in server-wide
// resource budgets for jobs that do not set their own (the SAT conflict
// budget bounds network jobs only, so resynBackend alone applies it).
// Applied in the backend (after the cache key is derived) so the
// defaults do not fragment the cache when they change across restarts. Parallelism gets
// the same treatment: it is an execution knob, never part of the cache
// key (JobOptions.Key strips it), so the server-wide -j default is also
// applied post-key.
func (b budgetDefaults) backend() server.Backend {
	return func(ctx context.Context, f *tt.Function, jo pipeline.JobOptions) (*pipeline.JobResult, error) {
		if jo.MaxAIGNodes == 0 {
			jo.MaxAIGNodes = b.maxAIGNodes
		}
		if jo.Parallelism == 0 {
			jo.Parallelism = b.parallelism
		}
		return pipeline.RunJob(ctx, f, jo)
	}
}

// resynBackend wraps pipeline.RunNetworkJob for POST /v1/resyn, filling
// the server-wide SAT conflict budget for jobs that do not set their
// own. Network jobs have no cache tier, but the same post-validation
// placement keeps per-request options authoritative.
func (b budgetDefaults) resynBackend() server.ResynBackend {
	return func(ctx context.Context, nw *network.Network, jo pipeline.JobOptions) (*pipeline.NetworkJobResult, error) {
		if jo.MaxConflicts == 0 {
			jo.MaxConflicts = b.maxConflicts
		}
		return pipeline.RunNetworkJob(ctx, nw, jo)
	}
}

// run is the testable entry point: flags in, exit code out, shutdown by
// signal channel. Exit codes: 0 clean (including graceful drain), 1
// runtime failure or forced stop, 2 flag errors.
func run(args []string, stdout, stderr io.Writer, sig <-chan os.Signal) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		fmt.Fprintf(stderr, "relsynd: %v\n", err)
		return 2
	}
	// Fused-census cache: sized (or disabled) before any worker touches
	// census.Default, and instrumented on the same registry the server
	// exports so /metrics carries relsyn_census_{hits,misses,bytes} from
	// the first scrape.
	if cfg.censusMB != 64 {
		if cfg.censusMB <= 0 {
			census.SetDefault(nil)
		} else {
			census.SetDefault(census.NewEngine(census.DefaultMaxEntries, int64(cfg.censusMB)<<20))
		}
	}
	if eng := census.Default; eng != nil {
		reg := cfg.server.Metrics
		if reg == nil {
			reg = obs.Default
		}
		eng.Instrument(reg)
	}
	cfg.server.Backend = cfg.budget.backend()
	cfg.server.ResynBackend = cfg.budget.resynBackend()

	// Durable store: opened (replaying any crash leftovers) before the
	// server exists, recovered into it before the listener takes traffic.
	var st *store.Store
	var recovered []store.Record
	if cfg.storeDir != "" {
		mode, _ := store.ParseSyncMode(cfg.walSync) // validated in parseFlags
		reg := cfg.server.Metrics
		if reg == nil {
			reg = obs.Default // same registry server.New defaults to
		}
		var err error
		st, recovered, err = store.Open(store.Options{
			Dir:     cfg.storeDir,
			Sync:    mode,
			Metrics: reg,
		})
		if err != nil {
			// store errors are already "store: ..."-prefixed.
			fmt.Fprintf(stderr, "relsynd: %v\n", err)
			return 1
		}
		cfg.server.Store = st
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		fmt.Fprintf(stderr, "relsynd: listen: %v\n", err)
		return 1
	}

	srv := server.New(cfg.server)
	if st != nil {
		rs := srv.Recover(recovered)
		fmt.Fprintf(stdout,
			"relsynd: store %s recovered %d records (requeued %d, deduped %d, unreplayable %d)\n",
			cfg.storeDir, len(recovered), rs.Requeued, rs.Deduped, rs.Failed)
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Opt-in pprof on its own listener, never on the service mux.
	var pprofSrv *http.Server
	if cfg.pprofAddr != "" {
		pln, err := net.Listen("tcp", cfg.pprofAddr)
		if err != nil {
			ln.Close()
			fmt.Fprintf(stderr, "relsynd: pprof listen: %v\n", err)
			return 1
		}
		pprofSrv = &http.Server{
			Handler:           pprofMux(),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() { _ = pprofSrv.Serve(pln) }()
		fmt.Fprintf(stdout, "relsynd: pprof on %s\n", pln.Addr())
	}
	defer func() {
		if pprofSrv != nil {
			pprofSrv.Close()
		}
	}()

	fmt.Fprintf(stdout, "relsynd: listening on %s\n", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		// Listener died underneath us; nothing to drain cleanly.
		srv.Close()
		fmt.Fprintf(stderr, "relsynd: serve: %v\n", err)
		return 1
	case s := <-sig:
		fmt.Fprintf(stdout, "relsynd: %v received, draining (up to %s)\n", s, cfg.drainTimeout)
	}

	// Graceful drain: stop admitting, finish the backlog, then close the
	// listener. A second signal or the drain deadline forces the stop.
	drainCtx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	go func() {
		select {
		case s := <-sig:
			fmt.Fprintf(stderr, "relsynd: second %v, forcing stop\n", s)
			cancel()
		case <-drainCtx.Done():
		}
	}()

	drainErr := srv.Drain(drainCtx)
	shutErr := httpSrv.Shutdown(drainCtx)
	if st != nil {
		// Every drained job is terminal in the WAL; compact it so the next
		// start replays a snapshot instead of the whole log.
		if err := st.Checkpoint(); err != nil {
			fmt.Fprintf(stderr, "relsynd: store checkpoint: %v\n", err)
		}
		if err := st.Close(); err != nil {
			fmt.Fprintf(stderr, "relsynd: store close: %v\n", err)
		}
	}
	if drainErr != nil || (shutErr != nil && !errors.Is(shutErr, context.Canceled) && !errors.Is(shutErr, context.DeadlineExceeded)) {
		if drainErr != nil {
			fmt.Fprintf(stderr, "relsynd: drain: %v\n", drainErr)
		}
		if shutErr != nil {
			fmt.Fprintf(stderr, "relsynd: shutdown: %v\n", shutErr)
		}
		httpSrv.Close()
		return 1
	}
	fmt.Fprintln(stdout, "relsynd: drained cleanly")
	return 0
}
