// End-to-end cluster tests: real relsynd shards (internal/server) and a
// real router, wired over loopback TCP exactly as a deployment would be
// — the router and every shard hold the same -peers list, placement is
// computed independently on each node, and the only coordination is the
// HTTP surface itself.
package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"relsyn/internal/cluster"
	"relsyn/internal/obs"
	"relsyn/internal/pipeline"
	"relsyn/internal/pla"
	"relsyn/internal/server"
	"relsyn/internal/tt"
)

// e2eSpecPLA builds a tiny but distinct 4-input spec per seed. An odd
// multiplier is a bijection mod 2^16, so the low 16 bits of seed*40503
// pick a distinct on-set for every seed below 65536 — ownership
// searches must never run out of candidates, however the ephemeral-port
// peer addresses happen to split the ring.
func e2eSpecPLA(seed int) string {
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

func e2eHash(t *testing.T, text string) string {
	t.Helper()
	file, err := pla.Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	fn, err := file.ToFunction()
	if err != nil {
		t.Fatal(err)
	}
	return pla.HashFunction(fn)
}

// e2eBackend counts executions per spec hash, optionally delaying each
// run and announcing starts.
type e2eBackend struct {
	mu      sync.Mutex
	runs    map[string]int
	delay   time.Duration
	started chan string // non-nil: receives each hash as its run begins
}

func (b *e2eBackend) fn(ctx context.Context, f *tt.Function, jo pipeline.JobOptions) (*pipeline.JobResult, error) {
	h := pla.HashFunction(f)
	b.mu.Lock()
	if b.runs == nil {
		b.runs = make(map[string]int)
	}
	b.runs[h]++
	b.mu.Unlock()
	if b.started != nil {
		select {
		case b.started <- h:
		default:
		}
	}
	if b.delay > 0 {
		select {
		case <-time.After(b.delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return pipeline.RunJob(ctx, f, jo)
}

func (b *e2eBackend) count(hash string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.runs[hash]
}

// e2eShard is one in-process relsynd.
type e2eShard struct {
	addr    string
	srv     *server.Server
	ts      *httptest.Server
	backend *e2eBackend
	reg     *obs.Registry
}

// kill simulates the shard's process dying: in-flight connections are
// severed, the port stops answering, and the worker pool is stopped
// without drain.
func (sh *e2eShard) kill() {
	sh.ts.CloseClientConnections()
	sh.ts.Close()
	sh.srv.Close()
}

type e2eCluster struct {
	shards []*e2eShard
	peers  []string
	ring   *cluster.Ring
	router *httptest.Server
	reg    *obs.Registry // router registry
}

// bootCluster starts n cluster-aware shards plus one router. Listeners
// are claimed first so every node knows the full membership before any
// traffic flows.
func bootCluster(t *testing.T, n int, mkBackend func(i int) *e2eBackend, rcfg cluster.RouterConfig) *e2eCluster {
	t.Helper()
	c := &e2eCluster{}
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		c.peers = append(c.peers, ln.Addr().String())
	}
	ring, err := cluster.NewRing(c.peers, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.ring = ring
	for i, ln := range lns {
		sh := &e2eShard{addr: ln.Addr().String(), backend: mkBackend(i), reg: obs.NewRegistry()}
		sh.srv = server.New(server.Config{
			Workers:  4,
			Metrics:  sh.reg,
			Backend:  sh.backend.fn,
			Peers:    c.peers,
			SelfAddr: sh.addr,
		})
		sh.ts = &httptest.Server{Listener: ln, Config: &http.Server{Handler: sh.srv.Handler()}}
		sh.ts.Start()
		c.shards = append(c.shards, sh)
		t.Cleanup(func() {
			defer func() { recover() }() // killed shards close twice
			sh.ts.Close()
			sh.srv.Close()
		})
	}
	c.reg = obs.NewRegistry()
	rcfg.Peers = c.peers
	rcfg.Metrics = c.reg
	rt, err := cluster.NewRouter(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	c.router = httptest.NewServer(rt.Handler())
	t.Cleanup(c.router.Close)
	return c
}

// ownerIdx maps a spec hash to the shard index owning it.
func (c *e2eCluster) ownerIdx(hash string) int {
	owner := c.ring.Owner(hash)
	for i, sh := range c.shards {
		if sh.addr == owner {
			return i
		}
	}
	return -1
}

// specsOwnedBy returns count distinct specs owned by shard idx.
func (c *e2eCluster) specsOwnedBy(t *testing.T, idx, count int, used map[string]bool) (texts, hashes []string) {
	t.Helper()
	for seed := 0; seed < 5000 && len(texts) < count; seed++ {
		text := e2eSpecPLA(seed)
		h := e2eHash(t, text)
		if used[h] || c.ownerIdx(h) != idx {
			continue
		}
		used[h] = true
		texts = append(texts, text)
		hashes = append(hashes, h)
	}
	if len(texts) < count {
		t.Fatalf("found only %d/%d specs owned by shard %d", len(texts), count, idx)
	}
	return texts, hashes
}

// totalRuns sums backend executions of hash across every shard.
func (c *e2eCluster) totalRuns(hash string) int {
	total := 0
	for _, sh := range c.shards {
		total += sh.backend.count(hash)
	}
	return total
}

// counterSum sums a counter series (across label sets) in a registry.
func counterSum(reg *obs.Registry, name string) int64 {
	var total int64
	for key, v := range reg.Snapshot().Counters {
		if key == name || strings.HasPrefix(key, name+"{") {
			total += v
		}
	}
	return total
}

func postSynth(t *testing.T, baseURL, plaText string) server.SynthResponse {
	t.Helper()
	raw, _ := json.Marshal(map[string]any{"pla": plaText})
	resp, err := http.Post(baseURL+"/v1/synth", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST /v1/synth: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/synth: status %d: %s", resp.StatusCode, body)
	}
	var env server.SynthResponse
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("decode synth envelope: %v: %s", err, body)
	}
	return env
}

// TestE2EPlacementAndPeerFill drives the steady-state contract through
// the full stack: the router computes each spec exactly once on its ring
// owner, repeats are cache hits, and a shard handed a foreign key fills
// from the owner's cache instead of recomputing.
func TestE2EPlacementAndPeerFill(t *testing.T) {
	c := bootCluster(t, 3, func(int) *e2eBackend { return &e2eBackend{} }, cluster.RouterConfig{})

	const nSpecs = 9
	texts := make([]string, nSpecs)
	hashes := make([]string, nSpecs)
	for i := range texts {
		texts[i] = e2eSpecPLA(i)
		hashes[i] = e2eHash(t, texts[i])
	}

	// Round 1 via the router: one computation each, on the owner.
	for i, text := range texts {
		env := postSynth(t, c.router.URL, text)
		if env.Status != "done" || env.Result == nil {
			t.Fatalf("spec %d: envelope %+v", i, env)
		}
		owner := c.ownerIdx(hashes[i])
		if got := c.shards[owner].backend.count(hashes[i]); got != 1 {
			t.Fatalf("spec %d: owner ran it %d times, want 1", i, got)
		}
		if got := c.totalRuns(hashes[i]); got != 1 {
			t.Fatalf("spec %d: %d total runs, want 1 (owner only)", i, got)
		}
	}

	// Round 2 via the router: pure cache hits, no new computation.
	for i, text := range texts {
		env := postSynth(t, c.router.URL, text)
		if env.Status != "done" || !env.Cached {
			t.Fatalf("spec %d repeat: envelope %+v, want cached", i, env)
		}
		if got := c.totalRuns(hashes[i]); got != 1 {
			t.Fatalf("spec %d repeat: %d total runs, want still 1", i, got)
		}
	}

	// Round 3 bypasses the router, submitting each spec to a NON-owner
	// shard (as a hedge or a direct client would): peer fill fetches the
	// owner's result — still no recomputation anywhere.
	fills := 0
	for i, text := range texts {
		nonOwner := (c.ownerIdx(hashes[i]) + 1) % len(c.shards)
		env := postSynth(t, c.shards[nonOwner].ts.URL, text)
		if env.Status != "done" || env.Result == nil {
			t.Fatalf("spec %d non-owner: envelope %+v", i, env)
		}
		if got := c.totalRuns(hashes[i]); got != 1 {
			t.Fatalf("spec %d non-owner: %d total runs, want still 1 (peer fill must prevent recompute)", i, got)
		}
		fills++
	}
	totalHits := int64(0)
	for _, sh := range c.shards {
		totalHits += counterSum(sh.reg, "relsyn_cluster_peer_fill_hits_total")
	}
	if totalHits != int64(fills) {
		t.Fatalf("peer_fill_hits across shards = %d, want %d", totalHits, fills)
	}
	if fwd := counterSum(c.reg, "relsyn_cluster_forwards_total"); fwd != nSpecs*2 {
		t.Fatalf("router forwards = %d, want %d (two routed rounds, no hedges/failovers)", fwd, nSpecs*2)
	}
}

// TestE2EHedgedSlowShard: a shard that stalls gets hedged around — the
// next ring replica answers first and the request still completes fast.
func TestE2EHedgedSlowShard(t *testing.T) {
	slowIdx := 0
	c := bootCluster(t, 2, func(i int) *e2eBackend {
		if i == slowIdx {
			return &e2eBackend{delay: 3 * time.Second}
		}
		return &e2eBackend{}
	}, cluster.RouterConfig{HedgeAfter: 25 * time.Millisecond})

	used := map[string]bool{}
	texts, hashes := c.specsOwnedBy(t, slowIdx, 1, used)
	start := time.Now()
	env := postSynth(t, c.router.URL, texts[0])
	if env.Status != "done" || env.Result == nil {
		t.Fatalf("envelope %+v", env)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("hedged request took %s — hedge did not win", elapsed)
	}
	if wins := counterSum(c.reg, "relsyn_cluster_hedge_wins_total"); wins < 1 {
		t.Fatalf("hedge_wins = %d, want >= 1", wins)
	}
	// The fast shard computed it (peer fill missed: the owner was still
	// chewing on it).
	if got := c.shards[1-slowIdx].backend.count(hashes[0]); got != 1 {
		t.Fatalf("hedge target ran it %d times, want 1", got)
	}
}

// TestE2EKillShardMidBatch is the acceptance scenario: three shards, a
// batch in flight, one shard killed while computing its share. The
// router must fail the dead shard's sub-batch over to the next replica,
// every accepted job must reach a terminal state, and the counting
// backends + peer-fill counters must prove no spec was computed twice on
// the surviving shards.
func TestE2EKillShardMidBatch(t *testing.T) {
	victimIdx := 0
	started := make(chan string, 64)
	c := bootCluster(t, 3, func(i int) *e2eBackend {
		if i == victimIdx {
			return &e2eBackend{delay: 400 * time.Millisecond, started: started}
		}
		return &e2eBackend{delay: 20 * time.Millisecond}
	}, cluster.RouterConfig{MaxAttempts: 1})

	// A mixed batch: 4 specs owned by the victim, 4 by each survivor.
	used := map[string]bool{}
	var texts, hashes []string
	victimHashes := map[string]bool{}
	for idx := 0; idx < 3; idx++ {
		ts, hs := c.specsOwnedBy(t, idx, 4, used)
		texts = append(texts, ts...)
		hashes = append(hashes, hs...)
		if idx == victimIdx {
			for _, h := range hs {
				victimHashes[h] = true
			}
		}
	}

	jobs := make([]map[string]any, len(texts))
	for i, text := range texts {
		jobs[i] = map[string]any{"pla": text}
	}
	raw, _ := json.Marshal(map[string]any{"jobs": jobs})

	type batchResult struct {
		code int
		body []byte
		err  error
	}
	resCh := make(chan batchResult, 1)
	go func() {
		resp, err := http.Post(c.router.URL+"/v1/synth/batch", "application/json", bytes.NewReader(raw))
		if err != nil {
			resCh <- batchResult{err: err}
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		resCh <- batchResult{code: resp.StatusCode, body: body}
	}()

	// Kill the victim once it has actually started computing its share.
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("victim never started computing")
	}
	c.shards[victimIdx].kill()

	var br batchResult
	select {
	case br = <-resCh:
	case <-time.After(60 * time.Second):
		t.Fatal("batch never completed after shard kill")
	}
	if br.err != nil {
		t.Fatalf("batch request failed outright: %v", br.err)
	}
	if br.code != http.StatusOK {
		t.Fatalf("batch status %d: %s", br.code, br.body)
	}
	var out server.BatchResponse
	if err := json.Unmarshal(br.body, &out); err != nil {
		t.Fatalf("decode batch: %v: %s", err, br.body)
	}
	if len(out.Results) != len(jobs) {
		t.Fatalf("batch returned %d results for %d jobs", len(out.Results), len(jobs))
	}
	// Every accepted job reaches a terminal, successful state despite the
	// kill: the dead shard's sub-batch failed over to a survivor.
	for i, r := range out.Results {
		if r.Status != "done" || r.Result == nil {
			t.Fatalf("job %d (hash %.12s): status %q error %q — all jobs must complete",
				i, hashes[i], r.Status, r.Error)
		}
	}
	if fo := counterSum(c.reg, "relsyn_cluster_failovers_total"); fo < 1 {
		t.Fatalf("failovers = %d, want >= 1 (the victim's sub-batch must have failed over)", fo)
	}

	// No duplicate computation among survivors: every spec ran exactly
	// once across the two live shards. (The victim may have burned a
	// partial run before dying; that work died with it.)
	for i, h := range hashes {
		runs := 0
		for idx, sh := range c.shards {
			if idx == victimIdx {
				continue
			}
			runs += sh.backend.count(h)
		}
		if victimHashes[h] {
			if runs != 1 {
				t.Fatalf("victim-owned spec %d ran %d times on survivors, want exactly 1", i, runs)
			}
		} else if runs != 1 {
			t.Fatalf("survivor-owned spec %d ran %d times, want exactly 1", i, runs)
		}
	}

	// Peer fill proves results are fetched, not recomputed: hand a
	// survivor-owned, already-computed spec to the other survivor.
	surv := []int{}
	for i := range c.shards {
		if i != victimIdx {
			surv = append(surv, i)
		}
	}
	ownedBySurv0 := -1
	for i, h := range hashes {
		if c.ownerIdx(h) == surv[0] {
			ownedBySurv0 = i
			break
		}
	}
	other := c.shards[surv[1]]
	beforeHits := counterSum(other.reg, "relsyn_cluster_peer_fill_hits_total")
	env := postSynth(t, other.ts.URL, texts[ownedBySurv0])
	if env.Status != "done" {
		t.Fatalf("post-kill fill envelope %+v", env)
	}
	if got := c.totalRuns(hashes[ownedBySurv0]); got != 1 {
		t.Fatalf("post-kill fill recomputed: %d total runs, want 1", got)
	}
	if after := counterSum(other.reg, "relsyn_cluster_peer_fill_hits_total"); after != beforeHits+1 {
		t.Fatalf("peer_fill_hits %d -> %d, want +1", beforeHits, after)
	}

	// And the router still serves: a fresh victim-owned spec completes
	// via failover to a survivor.
	freshTexts, freshHashes := c.specsOwnedBy(t, victimIdx, 1, used)
	env = postSynth(t, c.router.URL, freshTexts[0])
	if env.Status != "done" || env.Result == nil {
		t.Fatalf("post-kill routed envelope %+v", env)
	}
	if got := c.totalRuns(freshHashes[0]); got != 1 {
		t.Fatalf("post-kill routed spec ran %d times, want 1", got)
	}
}
