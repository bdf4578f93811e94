// Soak tests: the fleet harness driven against real in-process relsynd
// shards (and a real router for the cluster scenario), over loopback
// TCP. These are the end-to-end proof behind the serving tier — the
// single-node soak pins the harness/SLO plumbing, and the
// kill-one-mid-soak scenario pins the acceptance claim: one shard dies
// under load and the fleet still resolves every accepted job.
package fleet_test

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"relsyn/client"
	"relsyn/internal/cluster"
	"relsyn/internal/fleet"
	"relsyn/internal/obs"
	"relsyn/internal/server"
)

func testPool(t *testing.T) *fleet.Pool {
	t.Helper()
	pool, err := fleet.BuildPool(fleet.PoolParams{Inputs: 6, Outputs: 1, Size: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

func testDriver(t *testing.T, baseURL string) *client.Client {
	t.Helper()
	cl, err := client.New(client.Config{BaseURL: baseURL, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestFleetSingleNodeSoak(t *testing.T) {
	reg := obs.NewRegistry()
	srv := server.New(server.Config{Workers: 4, Metrics: reg})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rep, err := fleet.Run(context.Background(), fleet.Config{
		Driver:   testDriver(t, ts.URL),
		Pool:     testPool(t),
		Duration: 1500 * time.Millisecond,
		Rate:     150,
		Seed:     11,
		SLO: fleet.SLO{
			P99:                  5 * time.Second,
			MaxErrorRate:         0,
			MinCacheHitRate:      0.10,
			ExpectNoLoopsBroken:  true,
			ExpectNoBreakerTrips: true,
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != "pass" {
		raw, _ := json.MarshalIndent(rep, "", "  ")
		t.Fatalf("verdict %q, want pass:\n%s", rep.Verdict, raw)
	}
	if rep.Lost != 0 {
		t.Fatalf("lost = %d, want 0", rep.Lost)
	}
	if rep.Accepted == 0 || rep.Accepted != rep.Resolved {
		t.Fatalf("accepted=%d resolved=%d", rep.Accepted, rep.Resolved)
	}
	for _, kind := range []string{fleet.OpHot, fleet.OpGrid, fleet.OpBatch, fleet.OpAsync, fleet.OpHostile} {
		if rep.Ops[kind].Started == 0 {
			t.Fatalf("kind %s never ran; ops=%v", kind, rep.Ops)
		}
	}
	if rep.Ops[fleet.OpHostile].Rejected == 0 {
		t.Fatal("hostile ops produced no clean rejections")
	}
	if rep.Ops[fleet.OpHostile].Errors != 0 {
		t.Fatalf("hostile ops produced %d unexpected outcomes: %v",
			rep.Ops[fleet.OpHostile].Errors, rep.ErrorSamples)
	}
	// The report is the product: it must round-trip as JSON with the
	// schema marker intact.
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("report marshal: %v", err)
	}
	var back fleet.Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("report round-trip: %v", err)
	}
	if back.Schema != fleet.ReportSchema {
		t.Fatalf("schema %q, want %q", back.Schema, fleet.ReportSchema)
	}
	if strings.Contains(string(raw), "NaN") {
		t.Fatal("report leaks NaN")
	}
}

// soakShard is one in-process relsynd for the cluster scenario.
type soakShard struct {
	addr string
	srv  *server.Server
	ts   *httptest.Server
}

func (sh *soakShard) kill() {
	sh.ts.CloseClientConnections()
	sh.ts.Close()
	sh.srv.Close()
}

// bootSoakCluster claims listeners first (so membership is known before
// traffic), then starts n cluster-aware shards plus one router.
// busiestShard returns the shard that owns the most pool specs on the
// ring. The shards listen on fresh ports, so placement changes from run
// to run, and a shard that owns no spec (about 2% of placements for the
// test pool) takes no traffic for a kill to interrupt.
func busiestShard(t *testing.T, shards []*soakShard, pool *fleet.Pool) *soakShard {
	t.Helper()
	addrs := make([]string, len(shards))
	for i, sh := range shards {
		addrs[i] = sh.addr
	}
	ring, err := cluster.NewRing(addrs, 0)
	if err != nil {
		t.Fatal(err)
	}
	owned := make(map[string]int)
	for _, sp := range pool.Specs {
		owned[ring.Owner(sp.Hash)]++
	}
	best := shards[0]
	for _, sh := range shards[1:] {
		if owned[sh.addr] > owned[best.addr] {
			best = sh
		}
	}
	return best
}

func bootSoakCluster(t *testing.T, n int) (shards []*soakShard, routerURL string, scrape []string) {
	t.Helper()
	lns := make([]net.Listener, n)
	peers := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		peers[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		sh := &soakShard{addr: ln.Addr().String()}
		sh.srv = server.New(server.Config{
			Workers:  4,
			Metrics:  obs.NewRegistry(),
			Peers:    peers,
			SelfAddr: sh.addr,
		})
		sh.ts = &httptest.Server{Listener: ln, Config: &http.Server{Handler: sh.srv.Handler()}}
		sh.ts.Start()
		shards = append(shards, sh)
		t.Cleanup(func() {
			defer func() { recover() }() // the killed shard closes twice
			sh.ts.Close()
			sh.srv.Close()
		})
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{Peers: peers, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)
	scrape = append(scrape, rts.URL)
	for _, sh := range shards {
		scrape = append(scrape, sh.ts.URL)
	}
	return shards, rts.URL, scrape
}

// TestFleetClusterKillOneMidSoak is the acceptance scenario: a 3-shard
// cluster under the full default mix, one shard killed mid-soak. The
// run must still end with verdict pass and zero lost accepted jobs —
// sync/batch traffic fails over inside the router, and async jobs that
// died with the victim are recovered by the harness's idempotent
// resubmit.
func TestFleetClusterKillOneMidSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second soak")
	}
	shards, routerURL, scrape := bootSoakCluster(t, 3)
	pool := testPool(t)
	victim := busiestShard(t, shards, pool)

	killed := make(chan struct{})
	go func() {
		time.Sleep(1200 * time.Millisecond)
		victim.kill()
		close(killed)
	}()

	rep, err := fleet.Run(context.Background(), fleet.Config{
		Driver:        testDriver(t, routerURL),
		ScrapeTargets: scrape,
		Pool:          pool,
		Duration:      3500 * time.Millisecond,
		Rate:          100,
		Seed:          23,
		ReqTimeout:    15 * time.Second,
		SLO: fleet.SLO{
			P99:                 8 * time.Second,
			MaxErrorRate:        0.02,
			ExpectNoLoopsBroken: true,
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	<-killed
	raw, _ := json.MarshalIndent(rep, "", "  ")
	if rep.Verdict != "pass" {
		t.Fatalf("verdict %q, want pass:\n%s", rep.Verdict, raw)
	}
	if rep.Lost != 0 {
		t.Fatalf("lost = %d, want 0:\n%s", rep.Lost, raw)
	}
	if rep.Accepted == 0 || rep.Accepted != rep.Resolved {
		t.Fatalf("accepted=%d resolved=%d:\n%s", rep.Accepted, rep.Resolved, raw)
	}
	// The differ must have noticed the corpse instead of folding a giant
	// negative delta into the fleet sums.
	if len(rep.LostTargets) != 1 || rep.LostTargets[0] != victim.ts.URL {
		t.Fatalf("lost_targets = %v, want [%s]", rep.LostTargets, victim.ts.URL)
	}
	// The kill happened a third of the way in at 100 ops/s: traffic must
	// actually have crossed the failure.
	if total, _ := repTotals(rep); total < 100 {
		t.Fatalf("only %d completed ops — soak too thin to prove anything", total)
	}
	if rep.MetricsDelta.Sum("relsyn_cluster_failovers_total") < 1 {
		t.Fatalf("no failovers recorded — the kill never bit:\n%s", raw)
	}
}

// TestFleetSingleNodeRestartMidSoak pins the differ's restart
// classification end to end: a shard that dies and comes back on the
// same address scrapes cleanly on both sides but with uptime and
// counters rewound. It must land in reset_targets — alive — with its
// post-restart deltas counted from zero, not in lost_targets.
func TestFleetSingleNodeRestartMidSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second soak")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	boot := func(ln net.Listener) *soakShard {
		sh := &soakShard{addr: addr}
		sh.srv = server.New(server.Config{Workers: 4, Metrics: obs.NewRegistry()})
		sh.ts = &httptest.Server{Listener: ln, Config: &http.Server{Handler: sh.srv.Handler()}}
		sh.ts.Start()
		return sh
	}
	sh := boot(ln)
	url := sh.ts.URL
	t.Cleanup(func() {
		defer func() { recover() }() // the restarted-over shard closes twice
		sh.ts.Close()
		sh.srv.Close()
	})

	// Age the first incarnation so its before-snapshot uptime exceeds the
	// whole soak: the replacement's uptime then reads as a rewind even
	// though the replacement serves for most of the run.
	time.Sleep(2 * time.Second)

	// The restart runs inside the driver's 40th request, before that
	// request is sent. The driver sends nothing before Run's opening
	// scrape, and Run drains every op before its closing scrape, so the
	// restart always falls between the two however slow the host is.
	var sh2 *soakShard
	restart := func() {
		sh.kill()
		// A restarted daemon keeps its address; the freed port may need a
		// few retries to rebind.
		for i := 0; i < 100; i++ {
			ln2, err := net.Listen("tcp", addr)
			if err == nil {
				sh2 = boot(ln2)
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	driver, err := client.New(client.Config{
		BaseURL: url,
		HTTPClient: &http.Client{
			Timeout:   2 * time.Minute,
			Transport: &restartOnRequest{n: 40, restart: restart, base: http.DefaultTransport},
		},
		Metrics: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}

	rep, err := fleet.Run(context.Background(), fleet.Config{
		Driver:        driver,
		ScrapeTargets: []string{url},
		Pool:          testPool(t),
		Duration:      1500 * time.Millisecond,
		Rate:          100,
		Seed:          31,
		// The restart window drops in-flight ops and kills accepted async
		// jobs with the process; this test certifies the differ, not the
		// zero-loss SLO (that one is the cluster kill scenario's job).
		SLO:  fleet.SLO{P99: 15 * time.Second, MaxErrorRate: 1},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sh2 == nil {
		t.Fatal("shard never came back on its address")
	}
	t.Cleanup(func() { sh2.ts.Close(); sh2.srv.Close() })

	raw, _ := json.MarshalIndent(rep, "", "  ")
	if len(rep.ResetTargets) != 1 || rep.ResetTargets[0] != url {
		t.Fatalf("reset_targets = %v, want [%s]:\n%s", rep.ResetTargets, url, raw)
	}
	if len(rep.LostTargets) != 0 {
		t.Fatalf("lost_targets = %v — restarted shard misclassified as dead:\n%s", rep.LostTargets, raw)
	}
	for key, v := range rep.MetricsDelta {
		if v < 0 {
			t.Fatalf("metrics delta %s = %v — restart folded in as a negative delta:\n%s", key, v, raw)
		}
	}
	if rep.MetricsDelta.Sum("relsyn_http_requests_total") < 1 {
		t.Fatalf("no post-restart requests counted — reset deltas were dropped:\n%s", raw)
	}
}

// restartOnRequest is a driver transport that calls restart
// synchronously inside its nth request, before forwarding it.
type restartOnRequest struct {
	n       int64
	seen    atomic.Int64
	restart func()
	base    http.RoundTripper
}

func (rt *restartOnRequest) RoundTrip(req *http.Request) (*http.Response, error) {
	if rt.seen.Add(1) == rt.n {
		rt.restart()
	}
	return rt.base.RoundTrip(req)
}

func repTotals(rep *fleet.Report) (total, errs int64) {
	for _, c := range rep.Ops {
		total += c.OK + c.JobFailures + c.Backpressure + c.Rejected + c.Errors
		errs += c.Errors
	}
	return
}
