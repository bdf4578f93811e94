// Top-level benchmark harness: one testing.B target per paper table and
// figure (see DESIGN.md §4), each driving the same entry points as
// cmd/experiments on reduced grids so the whole suite is runnable with
// `go test -bench=. -benchmem`. Paper-scale runs: `go run ./cmd/experiments`.
package relsyn_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"relsyn/client"
	"relsyn/internal/aig"
	"relsyn/internal/benchmarks"
	"relsyn/internal/celllib"
	"relsyn/internal/census"
	"relsyn/internal/cluster"
	"relsyn/internal/complexity"
	"relsyn/internal/core"
	"relsyn/internal/cube"
	"relsyn/internal/espresso"
	"relsyn/internal/estimate"
	"relsyn/internal/experiments"
	"relsyn/internal/factor"
	"relsyn/internal/fleet"
	"relsyn/internal/mapper"
	"relsyn/internal/metatest"
	"relsyn/internal/obs"
	"relsyn/internal/pipeline"
	"relsyn/internal/pla"
	"relsyn/internal/reliability"
	"relsyn/internal/server"
	"relsyn/internal/store"
	"relsyn/internal/synth"
	"relsyn/internal/synthetic"
	"relsyn/internal/tt"
)

var benchFractions = []float64{0, 0.5, 1}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig2(1, 7000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4(benchFractions); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5(benchFractions); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6(b *testing.B) {
	cfg := experiments.Fig6Config{Inputs: 8, Outputs: 2, FunctionsPerClass: 2,
		Fractions: []float64{0, 1}, Seed: 900}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(experiments.DefaultThreshold); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(experiments.DefaultThreshold); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ThresholdSweep([]float64{0.45, 0.65}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationTies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TiesAblation(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFlows(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Flows(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNodal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Nodal([]string{"bench"}, 0.7); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFaults(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Faults([]string{"bench"}, experiments.DefaultThreshold); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMultiBit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.MultiBit([]string{"bench"}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQuality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Quality(1, 8000); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Sequential-vs-parallel kernel benchmarks (internal/par engine).
//
// Every kernel is bit-identical at any worker count (the metatest
// property-5 sweep enforces it), so these benchmarks measure pure
// scheduling overhead and scaling: j=1 is the inline sequential path,
// j=2/4 the bounded pool. GOMAXPROCS is raised to 4 so the pool can
// actually run concurrently on small CI machines; on a 1-core host the
// parallel rows then measure pool overhead under forced multiplexing
// rather than true speedup.

// benchParProcs raises GOMAXPROCS for the duration of one benchmark.
func benchParProcs(b *testing.B, n int) {
	b.Helper()
	prev := runtime.GOMAXPROCS(n)
	b.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// benchParSpec generates the multi-output spec shared by the kernel
// benchmarks: 14 inputs and 8 outputs (the issue's n>=14 operating
// point) gives the per-output fan-out the pool distributes. Generation
// is cached across sub-benchmarks.
var benchParSpecOnce struct {
	sync.Once
	f   *tt.Function
	err error
}

func benchParSpec(b *testing.B) *tt.Function {
	b.Helper()
	benchParSpecOnce.Do(func() {
		benchParSpecOnce.f, benchParSpecOnce.err = synthetic.Generate(synthetic.Params{
			Inputs: 14, Outputs: 8, DCFraction: 0.5, TargetCf: 0.5,
			Tolerance: 0.05, Seed: 4242, BestEffort: true,
		})
	})
	if benchParSpecOnce.err != nil {
		b.Fatal(benchParSpecOnce.err)
	}
	return benchParSpecOnce.f
}

var benchParWorkers = []int{1, 2, 4}

// BenchmarkParCensusCompute times the one place the spec-side analysis
// takes a worker count: building the fused census of every output,
// fanned out over j workers. Every bound, estimate and C^f read of the
// census afterwards is O(outputs) and sequential.
func BenchmarkParCensusCompute(b *testing.B) {
	spec := benchParSpec(b)
	for _, j := range benchParWorkers {
		b.Run(fmt.Sprintf("j=%d", j), func(b *testing.B) {
			benchParProcs(b, 4)
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				if _, err := census.Compute(ctx, spec, j); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkParErrorRateMean(b *testing.B) {
	spec := benchParSpec(b)
	impl := core.Complete(spec).Func
	for _, j := range benchParWorkers {
		b.Run(fmt.Sprintf("j=%d", j), func(b *testing.B) {
			benchParProcs(b, 4)
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				if _, err := reliability.ErrorRateMeanCtx(ctx, spec, impl, j); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkParSynthesize(b *testing.B) {
	// Synthesis runs full espresso+factoring per output, so it uses a
	// smaller spec than the analysis kernels to keep -benchtime=1x (the
	// CI race smoke) affordable.
	spec, err := synthetic.Generate(synthetic.Params{
		Inputs: 10, Outputs: 8, DCFraction: 0.5, TargetCf: 0.5,
		Tolerance: 0.05, Seed: 4242, BestEffort: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, j := range benchParWorkers {
		b.Run(fmt.Sprintf("j=%d", j), func(b *testing.B) {
			benchParProcs(b, 4)
			for i := 0; i < b.N; i++ {
				if _, err := synth.Synthesize(spec, synth.Options{Parallelism: j}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// Analysis benchmarks at n = 12/14/16.
//
// BenchmarkKernelErrorRate runs the error-rate scan through its
// production fused-popcount kernel and through the scalar oracle in
// internal/metatest; cmd/benchjson pairs the kernel/scalar rows into
// BENCH_kernels.json and gates CI on the speedup ratio.

var benchKernelInputs = []int{12, 14, 16}

// benchKernelSpecs caches one single-output synthetic spec per input
// count (generation at n=16 walks 65536 minterms; do it once).
var benchKernelSpecs struct {
	sync.Mutex
	specs map[int]*tt.Function
}

func benchKernelSpec(b *testing.B, n int) *tt.Function {
	b.Helper()
	benchKernelSpecs.Lock()
	defer benchKernelSpecs.Unlock()
	if f, ok := benchKernelSpecs.specs[n]; ok {
		return f
	}
	f, err := synthetic.Generate(synthetic.Params{
		Inputs: n, Outputs: 1, DCFraction: 0.3, TargetCf: 0.5,
		Tolerance: 0.05, Seed: int64(1600 + n), BestEffort: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	if benchKernelSpecs.specs == nil {
		benchKernelSpecs.specs = map[int]*tt.Function{}
	}
	benchKernelSpecs.specs[n] = f
	return f
}

// benchKernelPair runs the kernel and scalar variants of one scan as
// n=<N>/kernel and n=<N>/scalar sub-benchmarks.
func benchKernelPair(b *testing.B, n int, kernel, scalar func(b *testing.B)) {
	b.Helper()
	b.Run(fmt.Sprintf("n=%d/kernel", n), kernel)
	b.Run(fmt.Sprintf("n=%d/scalar", n), scalar)
}

func BenchmarkKernelErrorRate(b *testing.B) {
	for _, n := range benchKernelInputs {
		spec := benchKernelSpec(b, n)
		impl := core.Complete(spec).Func
		benchKernelPair(b, n,
			func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := reliability.ErrorRate(spec, impl, 0); err != nil {
						b.Fatal(err)
					}
				}
			},
			func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					metatest.ErrorRateScalar(spec, impl, 0)
				}
			})
	}
}

// BenchmarkAnalysisBundle times the spec-side analysis one /v1/synth
// job pays before synthesis, cold: the fused neighbor census is built
// every iteration (census.Compute, as on a census-cache miss) and then
// read by every reduction — exact bounds, C^f, the Poisson border
// estimate, and the ranking and LC^f assignment passes. It reports
// absolute ns/op and allocs/op; there is no second lane to divide by.
func BenchmarkAnalysisBundle(b *testing.B) {
	for _, n := range benchKernelInputs {
		spec := benchKernelSpec(b, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ctx := context.Background()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fc, err := census.Compute(ctx, spec, 1)
				if err != nil {
					b.Fatal(err)
				}
				cs := fc.Outs
				if _, _, err := reliability.BoundsMeanCensusCtx(ctx, spec, cs, 1); err != nil {
					b.Fatal(err)
				}
				if _, err := estimate.BorderBasedMean(spec, cs); err != nil {
					b.Fatal(err)
				}
				if _, err := complexity.FactorMean(cs); err != nil {
					b.Fatal(err)
				}
				opt := core.Options{Parallelism: 1, Census: cs}
				if _, err := core.Ranking(spec, 0.5, opt); err != nil {
					b.Fatal(err)
				}
				if _, err := core.LCF(spec, 0.55, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCensusCompute isolates the fused pass itself: the one-time
// cost a cold census cache pays per spec (amortized across every
// consumer and every later job on the same spec).
func BenchmarkCensusCompute(b *testing.B) {
	for _, n := range benchKernelInputs {
		spec := benchKernelSpec(b, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				if _, err := census.Compute(ctx, spec, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchPaperSuite returns the ten paper-suite specs: the Table 1
// stand-ins without random1 and random2.
func benchPaperSuite(b *testing.B) []*tt.Function {
	b.Helper()
	var fns []*tt.Function
	for _, s := range benchmarks.Specs() {
		if s.Name == "random1" || s.Name == "random2" {
			continue
		}
		f, err := benchmarks.Load(s.Name)
		if err != nil {
			b.Fatal(err)
		}
		fns = append(fns, f)
	}
	return fns
}

// BenchmarkParseSuite times the .pla boundary of one paper-suite pass:
// pla.Parse plus File.ToFunction on the ten specs, each written by
// pla.FromFunction(fn, nil, nil) with one row per on-set or DC minterm
// (the text the fleet and perfbench send). It reports absolute ns/op
// and allocs/op.
func BenchmarkParseSuite(b *testing.B) {
	var texts []string
	for _, f := range benchPaperSuite(b) {
		var sb strings.Builder
		if err := pla.FromFunction(f, nil, nil).Write(&sb); err != nil {
			b.Fatal(err)
		}
		texts = append(texts, sb.String())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, text := range texts {
			file, err := pla.Parse(strings.NewReader(text))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := file.ToFunction(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEspressoSuite times the two-level minimization layer of one
// paper-suite pass: every output of the ten specs minimized against its
// own don't-cares, sequentially. It reports absolute ns/op and
// allocs/op; there is no second lane to divide by.
func BenchmarkEspressoSuite(b *testing.B) {
	fns := benchPaperSuite(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range fns {
			for o := range f.Outs {
				if _, err := espresso.MinimizeSets(f.NumIn, f.Outs[o].On, f.Outs[o].DC, nil); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkFactorSuite times the factoring layer of the same pass:
// GoodFactor on every cover BenchmarkEspressoSuite produces.
func BenchmarkFactorSuite(b *testing.B) {
	var covs []*cube.Cover
	for _, f := range benchPaperSuite(b) {
		for o := range f.Outs {
			cov, err := espresso.MinimizeSets(f.NumIn, f.Outs[o].On, f.Outs[o].DC, nil)
			if err != nil {
				b.Fatal(err)
			}
			covs = append(covs, cov)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cov := range covs {
			factor.GoodFactor(cov)
		}
	}
}

// BenchmarkMapSuite times the technology-mapping layer of the same pass:
// mapper.Map in Area and in Delay mode on the balanced AIG synth builds
// for each of the ten specs (espresso, GoodFactor, Cleanup, Balance),
// built once outside the timer. It reports absolute ns/op and allocs/op.
func BenchmarkMapSuite(b *testing.B) {
	var gs []*aig.Graph
	for _, f := range benchPaperSuite(b) {
		g := aig.New(f.NumIn)
		for o := range f.Outs {
			cov, err := espresso.MinimizeSets(f.NumIn, f.Outs[o].On, f.Outs[o].DC, nil)
			if err != nil {
				b.Fatal(err)
			}
			g.AddPO(g.FromExpr(factor.GoodFactor(cov)))
		}
		gs = append(gs, g.Cleanup().Balance())
	}
	lib := celllib.Generic70()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range gs {
			for _, mode := range []mapper.Mode{mapper.Area, mapper.Delay} {
				if _, err := mapper.Map(g, lib, mode); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// benchServerPLA generates one of the distinct 4-input specifications
// used by BenchmarkServerThroughput: deterministic per seed, with a mix
// of on-set and DC rows so the full assign+synth+verify pipeline runs.
func benchServerPLA(seed int) string {
	var sb strings.Builder
	sb.WriteString(".i 4\n.o 1\n.type fd\n")
	for m := 0; m < 16; m++ {
		switch (m*31 + seed*17 + seed*seed) % 5 {
		case 0, 3:
			fmt.Fprintf(&sb, "%04b 1\n", m)
		case 1:
			fmt.Fprintf(&sb, "%04b -\n", m)
		}
	}
	sb.WriteString(".e\n")
	return sb.String()
}

// fireServerRequests posts total concurrent synth requests (cycling
// through specs) against base and fails the benchmark on any non-OK or
// non-done response.
func fireServerRequests(b *testing.B, base string, specs []string, total int) {
	b.Helper()
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, err := json.Marshal(map[string]any{
				"pla":     specs[i%len(specs)],
				"options": map[string]any{"method": "rank", "fraction": 1.0},
			})
			if err != nil {
				b.Error(err)
				return
			}
			resp, err := http.Post(base+"/v1/synth", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Error(err)
				return
			}
			defer resp.Body.Close()
			var env struct {
				Status string `json:"status"`
				Error  string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				b.Error(err)
				return
			}
			if resp.StatusCode != http.StatusOK || env.Status != "done" {
				b.Errorf("request %d: status %d / %q (%s)", i, resp.StatusCode, env.Status, env.Error)
			}
		}(i)
	}
	wg.Wait()
}

// BenchmarkServerThroughput measures the relsynd service end to end: 64
// concurrent requests over 8 distinct specifications through the HTTP
// front end, job queue, worker pool, and result cache.
//
//   - cold: every iteration starts an empty cache, so each distinct spec
//     synthesizes once and its 7 duplicates coalesce or hit the cache.
//   - warm: the cache is primed before the timer starts, so all 64
//     requests are cache hits — the serving-path overhead in isolation.
func BenchmarkServerThroughput(b *testing.B) {
	const total, distinct = 64, 8
	specs := make([]string, distinct)
	for i := range specs {
		specs[i] = benchServerPLA(i)
	}
	cfg := server.Config{Workers: 4, QueueDepth: 2 * total, CacheSize: 2 * distinct}

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			srv := server.New(cfg)
			ts := httptest.NewServer(srv.Handler())
			b.StartTimer()
			fireServerRequests(b, ts.URL, specs, total)
			b.StopTimer()
			ts.Close()
			srv.Close()
			b.StartTimer()
		}
	})

	b.Run("warm", func(b *testing.B) {
		srv := server.New(cfg)
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		defer srv.Close()
		fireServerRequests(b, ts.URL, specs, distinct) // prime the cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fireServerRequests(b, ts.URL, specs, total)
		}
	})
}

// BenchmarkSynthHit measures one cached POST /v1/synth through
// Server.Handler in process, with no socket: the hit path a repeated
// request takes. The body has the service-mix shape (an 8-input,
// 2-output fleet spec written out in full, ranking at fraction 0.5), so
// ns/op and allocs/op are the hit cost that workload's p50 sits on.
func BenchmarkSynthHit(b *testing.B) {
	pool, err := fleet.BuildPool(fleet.PoolParams{Inputs: 8, Outputs: 2, Size: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	fn, _, err := pla.ParseSpec(pool.Specs[0].PLA)
	if err != nil {
		b.Fatal(err)
	}
	var sb strings.Builder
	if err := pla.FromFunction(fn, nil, nil).Write(&sb); err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(server.SynthRequest{
		PLA:     sb.String(),
		Options: pipeline.JobOptions{Method: pipeline.JobMethodRank, Fraction: 0.5},
	})
	if err != nil {
		b.Fatal(err)
	}
	srv := server.New(server.Config{Workers: 1, Metrics: obs.NewRegistry()})
	defer srv.Close()
	h := srv.Handler()
	post := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/synth", bytes.NewReader(body)))
		return rec
	}
	if rec := post(); rec.Code != http.StatusOK {
		b.Fatalf("priming request: %d %s", rec.Code, rec.Body)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := post(); rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(`"cached": true`)) {
			b.Fatalf("request %d: %d %s", i, rec.Code, rec.Body)
		}
	}
}

// BenchmarkStoreThroughput measures what the durable job store costs on
// the serving path: the same 64-request cold-cache burst as
// BenchmarkServerThroughput, once without a store (base) and once
// persisting job records with -wal-sync always (wal). Only the 8 jobs
// that compute append (queued, running, done); the duplicates coalesce
// or hit the cache, and a hit answers with the computing job's id and
// appends nothing. The gated
// quantity in BENCH_store.json is the base/wal ratio (cmd/benchjson
// -pair wal,base) — not absolute throughput — so the gate fails when
// WAL overhead grows relative to the serving path.
func BenchmarkStoreThroughput(b *testing.B) {
	const total, distinct = 64, 8
	specs := make([]string, distinct)
	for i := range specs {
		specs[i] = benchServerPLA(i)
	}
	base := server.Config{Workers: 4, QueueDepth: 2 * total, CacheSize: 2 * distinct}

	run := func(b *testing.B, durable bool) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cfg := base
			var st *store.Store
			if durable {
				var err error
				st, _, err = store.Open(store.Options{Dir: b.TempDir(), Sync: store.SyncAlways})
				if err != nil {
					b.Fatal(err)
				}
				cfg.Store = st
			}
			srv := server.New(cfg)
			ts := httptest.NewServer(srv.Handler())
			b.StartTimer()
			fireServerRequests(b, ts.URL, specs, total)
			b.StopTimer()
			ts.Close()
			srv.Close()
			if st != nil {
				st.Close()
			}
			b.StartTimer()
		}
	}
	b.Run("conc=64/base", func(b *testing.B) { run(b, false) })
	b.Run("conc=64/wal", func(b *testing.B) { run(b, true) })
}

// BenchmarkStoreRecovery measures warm-restart time: reopening a store
// directory holding 512 terminal job records. The wal side replays the
// full append-only log (a crash left it uncompacted); the base side
// loads the checkpointed snapshot a clean shutdown leaves behind. The
// base/wal ratio gated in BENCH_store.json is the replay penalty a
// crash pays over a clean restart.
func BenchmarkStoreRecovery(b *testing.B) {
	const jobs = 512
	seed := func(b *testing.B, checkpoint bool) string {
		b.Helper()
		dir := b.TempDir()
		st, _, err := store.Open(store.Options{Dir: dir, Sync: store.SyncOff})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < jobs; i++ {
			rec := store.Record{
				ID:      fmt.Sprintf("job_%04d", i),
				Key:     fmt.Sprintf("key_%04d", i),
				Status:  "done",
				SpecPLA: benchServerPLA(i % 8),
			}
			if err := st.Append(rec); err != nil {
				b.Fatal(err)
			}
		}
		if checkpoint {
			if err := st.Checkpoint(); err != nil {
				b.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		return dir
	}

	run := func(b *testing.B, checkpoint bool) {
		dir := seed(b, checkpoint)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st, recovered, err := store.Open(store.Options{Dir: dir, Sync: store.SyncOff})
			if err != nil {
				b.Fatal(err)
			}
			if len(recovered) != jobs {
				b.Fatalf("recovered %d records, want %d", len(recovered), jobs)
			}
			b.StopTimer()
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
	b.Run("jobs=512/base", func(b *testing.B) { run(b, true) })
	b.Run("jobs=512/wal", func(b *testing.B) { run(b, false) })
}

// benchClusterPLA builds a distinct 8-input spec per seed — heavy
// enough that synthesizing one clearly dominates routing + cache-hit
// serving, which is the contrast the cluster warm/cold gate rides on.
func benchClusterPLA(seed int) string {
	var sb strings.Builder
	sb.WriteString(".i 8\n.o 1\n.type fd\n")
	for m := 0; m < 256; m++ {
		switch (m*37 + seed*101 + m*m*13) % 7 {
		case 0, 4:
			fmt.Fprintf(&sb, "%08b 1\n", m)
		case 1:
			fmt.Fprintf(&sb, "%08b -\n", m)
		}
	}
	sb.WriteString(".e\n")
	return sb.String()
}

// bootBenchCluster starts three cluster-aware shards plus a router over
// them, listener-first so the fleet membership is known before any node
// serves. Returns the router's base URL and a teardown.
func bootBenchCluster(b *testing.B, workers int) (routerURL string, shutdown func()) {
	b.Helper()
	const n = 3
	lns := make([]net.Listener, n)
	peers := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		lns[i] = ln
		peers[i] = ln.Addr().String()
	}
	var closers []func()
	for i, ln := range lns {
		srv := server.New(server.Config{
			Workers:    workers,
			QueueDepth: 256,
			CacheSize:  64,
			Metrics:    obs.NewRegistry(),
			Peers:      peers,
			SelfAddr:   peers[i],
		})
		ts := &httptest.Server{Listener: ln, Config: &http.Server{Handler: srv.Handler()}}
		ts.Start()
		closers = append(closers, func() { ts.Close(); srv.Close() })
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{Peers: peers, Metrics: obs.NewRegistry()})
	if err != nil {
		b.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	closers = append(closers, rts.Close)
	return rts.URL, func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
}

// BenchmarkClusterThroughput measures the sharded tier end to end: 64
// concurrent mixed requests over 8 distinct specifications through the
// router (content-addressed placement onto 3 shards) and the shards'
// full serving stack.
//
//   - cold: every iteration boots an empty fleet, so each distinct spec
//     synthesizes once on its ring owner while duplicates coalesce
//     there or hit its cache.
//   - warm: the fleet's caches are primed before the timer, so the
//     measured path is routing + forwarding + shard cache hits — the
//     cluster serving overhead in isolation.
//
// CI gates the warm/cold speedup ratio via cmd/benchjson -pair
// warm,cold (BENCH_cluster.json): a machine-independent check that the
// routed hot path stays cheap relative to actual synthesis.
func BenchmarkClusterThroughput(b *testing.B) {
	const total, distinct = 64, 8
	specs := make([]string, distinct)
	for i := range specs {
		specs[i] = benchClusterPLA(i)
	}

	b.Run("shards=3/cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			url, shutdown := bootBenchCluster(b, 4)
			b.StartTimer()
			fireServerRequests(b, url, specs, total)
			b.StopTimer()
			shutdown()
			b.StartTimer()
		}
	})

	b.Run("shards=3/warm", func(b *testing.B) {
		url, shutdown := bootBenchCluster(b, 4)
		defer shutdown()
		fireServerRequests(b, url, specs, distinct) // prime every owner's cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fireServerRequests(b, url, specs, total)
		}
	})
}

// BenchmarkFleetThroughput measures the serving stack through the fleet
// harness itself: 64 unpaced closed-loop ops from internal/fleet's
// generator against one in-process shard, reusing the same pinned spec
// pool both ways.
//
//   - cold: every iteration boots an empty shard and sweeps the pool
//     round-robin (grid mix) — cache-adversarial, so the measured path
//     is real synthesis behind the harness.
//   - warm: one primed shard, hot-skewed mix — the measured path is the
//     harness plus cache-hit serving, i.e. the load-generation overhead
//     in isolation.
//
// CI gates the warm/cold speedup ratio via cmd/benchjson -pair
// warm,cold (BENCH_fleet.json). Verdicts are ignored here: the SLO
// engine is off (zero-valued SLO) and only throughput is measured.
func BenchmarkFleetThroughput(b *testing.B) {
	pool, err := fleet.BuildPool(fleet.PoolParams{Inputs: 6, Outputs: 1, Size: 8, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	newDriver := func(base string) *client.Client {
		cl, err := client.New(client.Config{BaseURL: base, Metrics: obs.NewRegistry()})
		if err != nil {
			b.Fatal(err)
		}
		return cl
	}
	runFleet := func(base string, mix fleet.Mix) {
		rep, err := fleet.Run(context.Background(), fleet.Config{
			Driver:   newDriver(base),
			Pool:     pool,
			TotalOps: 64,
			Mix:      mix,
			Seed:     7,
		})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Lost != 0 {
			b.Fatalf("lost %d accepted jobs", rep.Lost)
		}
	}

	b.Run("node=1/cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			srv := server.New(server.Config{Workers: 4, Metrics: obs.NewRegistry()})
			ts := httptest.NewServer(srv.Handler())
			b.StartTimer()
			runFleet(ts.URL, fleet.Mix{fleet.OpGrid: 1})
			b.StopTimer()
			ts.Close()
			srv.Close()
			b.StartTimer()
		}
	})

	b.Run("node=1/warm", func(b *testing.B) {
		srv := server.New(server.Config{Workers: 4, Metrics: obs.NewRegistry()})
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		runFleet(ts.URL, fleet.Mix{fleet.OpGrid: 1}) // prime the cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runFleet(ts.URL, fleet.Mix{fleet.OpHot: 1})
		}
	})
}
