package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"relsyn/internal/cluster"
	"relsyn/internal/obs"
	"relsyn/internal/pipeline"
	"relsyn/internal/pla"
	"relsyn/internal/tt"
)

// cacheKeyFor computes the server's cache key for a spec submitted with
// default options: SubmitSpec applies DefaultTimeout before normalizing,
// so the options half of the key carries the default timeout.
func cacheKeyFor(t *testing.T, plaText string, defaultTimeout time.Duration) string {
	t.Helper()
	_, hash, err := pla.ParseSpec(plaText)
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	jo := pipeline.JobOptions{TimeoutMs: defaultTimeout.Milliseconds()}.Normalize()
	return hash + "|" + jo.Key()
}

func TestCacheEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, Metrics: obs.NewRegistry()})

	text := specPLA(1)
	resp, body := postJSON(t, ts.URL+"/v1/synth", map[string]any{"pla": text})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("synth status %d: %s", resp.StatusCode, body)
	}

	key := cacheKeyFor(t, text, 30*time.Second)
	var env SynthResponse
	cresp := getJSON(t, ts.URL+"/v1/cache/"+url.PathEscape(key), &env)
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("cache hit status %d", cresp.StatusCode)
	}
	if env.Status != StatusDone || !env.Cached || env.Result == nil {
		t.Fatalf("cache hit envelope = %+v, want done/cached with result", env)
	}

	cresp = getJSON(t, ts.URL+"/v1/cache/"+url.PathEscape("no-such|key"), &env)
	if cresp.StatusCode != http.StatusNotFound {
		t.Fatalf("cache miss status %d, want 404", cresp.StatusCode)
	}
}

// countingBackend counts executions per spec hash.
type countingBackend struct {
	mu    sync.Mutex
	runs  map[string]int
	delay time.Duration
}

func (b *countingBackend) backend() Backend {
	return func(ctx context.Context, f *tt.Function, jo pipeline.JobOptions) (*pipeline.JobResult, error) {
		b.mu.Lock()
		if b.runs == nil {
			b.runs = make(map[string]int)
		}
		b.runs[pla.HashFunction(f)]++
		b.mu.Unlock()
		if b.delay > 0 {
			select {
			case <-time.After(b.delay):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return pipeline.RunJob(ctx, f, jo)
	}
}

func (b *countingBackend) count(hash string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.runs[hash]
}

// clusterShard is one in-process cluster-aware relsynd.
type clusterShard struct {
	addr    string
	ln      net.Listener
	srv     *Server
	ts      *httptest.Server
	backend *countingBackend
	reg     *obs.Registry
	reqs    requestLog
}

// requestLog records "METHOD /path" for every request a shard serves.
type requestLog struct {
	mu   sync.Mutex
	seen []string
}

func (l *requestLog) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		l.mu.Lock()
		l.seen = append(l.seen, r.Method+" "+r.URL.Path)
		l.mu.Unlock()
		h.ServeHTTP(w, r)
	})
}

func (l *requestLog) snapshot() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.seen...)
}

// newClusterShards boots n shards that all know each other: listeners
// first (so the full membership is known before any server starts), then
// servers.
func newClusterShards(t *testing.T, n int) ([]*clusterShard, []string) {
	t.Helper()
	shards := make([]*clusterShard, n)
	peers := make([]string, n)
	for i := range shards {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = &clusterShard{addr: ln.Addr().String(), ln: ln}
		peers[i] = shards[i].addr
	}
	for _, sh := range shards {
		sh.backend = &countingBackend{}
		sh.reg = obs.NewRegistry()
		sh.srv = New(Config{
			Workers:  2,
			Metrics:  sh.reg,
			Backend:  sh.backend.backend(),
			Peers:    peers,
			SelfAddr: sh.addr,
		})
		sh.ts = &httptest.Server{Listener: sh.ln, Config: &http.Server{Handler: sh.reqs.wrap(sh.srv.Handler())}}
		sh.ts.Start()
		sh := sh
		t.Cleanup(func() {
			sh.ts.Close()
			sh.srv.Close()
		})
	}
	return shards, peers
}

// clusterSpecPLA builds a tiny but distinct 4-input spec per seed. An
// odd multiplier is a bijection mod 2^16, so the low 16 bits of
// seed*40503 pick a distinct on-set for every seed below 65536 — the
// ownership search must never run out of candidates, however the
// ephemeral-port peer addresses happen to split the ring. (specPLA has
// period 16 in seed, which is not enough here.)
func clusterSpecPLA(seed int) string {
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

// specOwnedBy finds a spec whose ring owner is peers[idx]; keys already
// used are excluded via the used set.
func specOwnedBy(t *testing.T, peers []string, owner string, used map[string]bool) (plaText, hash string) {
	t.Helper()
	ring, err := cluster.NewRing(peers, 0)
	if err != nil {
		t.Fatal(err)
	}
	for seed := 0; seed < 2000; seed++ {
		text := clusterSpecPLA(seed)
		_, h, err := pla.ParseSpec(text)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if used[h] || ring.Owner(h) != owner {
			continue
		}
		used[h] = true
		return text, h
	}
	t.Fatalf("no unused seed < 2000 owned by %s", owner)
	return "", ""
}

func TestPeerFillHit(t *testing.T) {
	shards, peers := newClusterShards(t, 2)
	used := map[string]bool{}
	text, hash := specOwnedBy(t, peers, shards[0].addr, used)

	// Owner computes it once.
	resp, body := postJSON(t, shards[0].ts.URL+"/v1/synth", map[string]any{"pla": text})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("owner synth status %d: %s", resp.StatusCode, body)
	}
	if got := shards[0].backend.count(hash); got != 1 {
		t.Fatalf("owner backend runs = %d, want 1", got)
	}

	// The non-owner gets the same spec (as if hedged or client-routed
	// around the ring): it must fetch, not recompute.
	resp, body = postJSON(t, shards[1].ts.URL+"/v1/synth", map[string]any{"pla": text})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("non-owner synth status %d: %s", resp.StatusCode, body)
	}
	var env SynthResponse
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.Status != StatusDone || env.Result == nil {
		t.Fatalf("non-owner envelope = %+v", env)
	}
	if got := shards[1].backend.count(hash); got != 0 {
		t.Fatalf("non-owner backend runs = %d, want 0 (peer fill must prevent recompute)", got)
	}
	if hits := shards[1].srv.peers.hits.Value(); hits != 1 {
		t.Fatalf("peer_fill_hits = %d, want 1", hits)
	}
	if misses := shards[1].srv.peers.misses.Value(); misses != 0 {
		t.Fatalf("peer_fill_misses = %d, want 0", misses)
	}
}

func TestPeerFillMissComputesLocally(t *testing.T) {
	shards, peers := newClusterShards(t, 2)
	used := map[string]bool{}
	// Owned by shard 0, but shard 0 never saw it: shard 1's fill probe
	// misses and it computes locally.
	text, hash := specOwnedBy(t, peers, shards[0].addr, used)

	resp, body := postJSON(t, shards[1].ts.URL+"/v1/synth", map[string]any{"pla": text})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("synth status %d: %s", resp.StatusCode, body)
	}
	if got := shards[1].backend.count(hash); got != 1 {
		t.Fatalf("backend runs = %d, want 1", got)
	}
	if misses := shards[1].srv.peers.misses.Value(); misses != 1 {
		t.Fatalf("peer_fill_misses = %d, want 1", misses)
	}
	if hits := shards[1].srv.peers.hits.Value(); hits != 0 {
		t.Fatalf("peer_fill_hits = %d, want 0", hits)
	}
	// The miss cost the owner exactly one intra-cluster request, the
	// result probe; nothing else crosses the wire before the local run.
	wantPaths := []string{"GET /v1/cache/" + cacheKeyFor(t, text, 30*time.Second)}
	if got := shards[0].reqs.snapshot(); !slices.Equal(got, wantPaths) {
		t.Fatalf("owner saw requests %q, want %q", got, wantPaths)
	}

	// Self-owned keys are not fill candidates: no counter movement.
	selfText, selfHash := specOwnedBy(t, peers, shards[1].addr, used)
	resp, body = postJSON(t, shards[1].ts.URL+"/v1/synth", map[string]any{"pla": selfText})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("self-owned synth status %d: %s", resp.StatusCode, body)
	}
	if got := shards[1].backend.count(selfHash); got != 1 {
		t.Fatalf("self-owned backend runs = %d, want 1", got)
	}
	if misses := shards[1].srv.peers.misses.Value(); misses != 1 {
		t.Fatalf("peer_fill_misses moved to %d on a self-owned key", misses)
	}
	if got := shards[0].reqs.snapshot(); len(got) != len(wantPaths) {
		t.Fatalf("a self-owned key sent the peer requests: %q", got)
	}
}

// A dead owner costs a few misses, then the breaker opens and fills
// skip it — jobs still complete locally throughout.
func TestPeerFillDeadOwnerOpensBreaker(t *testing.T) {
	shards, peers := newClusterShards(t, 2)
	used := map[string]bool{}

	// Kill shard 0 outright; its address now refuses connections.
	shards[0].ts.Close()
	shards[0].srv.Close()

	victim := shards[0].addr
	surv := shards[1]
	for i := 0; i < 4; i++ {
		text, hash := specOwnedBy(t, peers, victim, used)
		resp, body := postJSON(t, surv.ts.URL+"/v1/synth", map[string]any{"pla": text})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submit %d status %d: %s", i, resp.StatusCode, body)
		}
		if got := surv.backend.count(hash); got != 1 {
			t.Fatalf("submit %d: backend runs = %d, want 1", i, got)
		}
	}
	if misses := surv.srv.peers.misses.Value(); misses != 4 {
		t.Fatalf("peer_fill_misses = %d, want 4", misses)
	}
	if !surv.srv.peers.peers[victim].breaker.Degraded() {
		t.Fatal("dead owner's breaker still closed after repeated failures")
	}
}

func TestClusterConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with SelfAddr outside Peers must panic")
		}
	}()
	New(Config{
		Metrics:  obs.NewRegistry(),
		Peers:    []string{"a:1", "b:2"},
		SelfAddr: "c:3",
	})
}
