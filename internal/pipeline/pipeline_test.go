package pipeline_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/bits"
	"testing"
	"time"

	"relsyn/internal/benchmarks"
	"relsyn/internal/chaos"
	"relsyn/internal/network"
	"relsyn/internal/pipeline"
	"relsyn/internal/reliability"
	"relsyn/internal/synth"
	"relsyn/internal/tt"
)

func load(t *testing.T, name string) *tt.Function {
	t.Helper()
	f, err := benchmarks.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func baseOptions() pipeline.JobOptions {
	return pipeline.JobOptions{Method: "lcf", Threshold: 0.55, Objective: "delay", Flow: "resyn"}
}

// checkConsistent asserts that the pipeline's implementation respects the
// specification's care set.
func checkConsistent(t *testing.T, spec *tt.Function, res *pipeline.Result) {
	t.Helper()
	if res.Synth == nil || res.Synth.Impl == nil {
		t.Fatal("pipeline succeeded without an implementation")
	}
	impl := res.Synth.Impl
	for o := range spec.Outs {
		if miss := spec.Outs[o].On.Difference(impl.Outs[o].On); miss.Any() {
			t.Fatalf("output %d drops on-set minterm %d", o, miss.NextSet(0))
		}
		if hit := impl.Outs[o].On.Intersect(spec.OffSet(o)); hit.Any() {
			t.Fatalf("output %d asserts off-set minterm %d", o, hit.NextSet(0))
		}
	}
}

func TestRunHappyPath(t *testing.T) {
	spec := load(t, "bench")
	res, err := pipeline.Run(context.Background(), spec, baseOptions(), pipeline.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified || res.VerifyMethod != "netlist" {
		t.Fatalf("want netlist-verified result, got verified=%v method=%q", res.Verified, res.VerifyMethod)
	}
	if res.Degraded() {
		t.Fatalf("unexpected fallbacks: %v", res.Fallbacks)
	}
	if res.Assign == nil || res.Assign.TotalDCs == 0 {
		t.Fatal("assignment stage did not run")
	}
	checkConsistent(t, spec, res)
	if len(res.Stages) != 3 {
		t.Fatalf("want 3 stage reports, got %v", res.Stages)
	}
}

func TestRunValidation(t *testing.T) {
	spec := load(t, "bench")
	cases := []pipeline.JobOptions{
		{Method: "rank", Fraction: 1.5},
		{Method: "lcf", Threshold: 0},
		{Method: "lcf", Threshold: 1},
		{Method: "bogus"},
	}
	for i, jo := range cases {
		if _, err := pipeline.Run(context.Background(), spec, jo, pipeline.Hooks{}); err == nil {
			t.Fatalf("case %d: invalid options accepted", i)
		}
	}
	if _, err := pipeline.Run(context.Background(), nil, pipeline.JobOptions{}, pipeline.Hooks{}); err == nil {
		t.Fatal("nil function accepted")
	}
}

// sweepBenchmarks returns the benchmarks the injection sweep runs on:
// every suite entry with <= 10 inputs (the 12-input entries are exercised
// by the cancellation-latency test, where the deadline caps their cost).
func sweepBenchmarks(t *testing.T) []string {
	if testing.Short() {
		return []string{"bench", "fout"}
	}
	var names []string
	for _, s := range benchmarks.Specs() {
		if s.Inputs <= 10 {
			names = append(names, s.Name)
		}
	}
	return names
}

// degradable maps each injection point to whether the ladder has a rung
// below it, and names the forcer point that routes execution to it.
var sweepTopology = map[string]struct {
	degradable bool
	forcer     string // point to pre-exhaust so execution reaches this rung
}{
	"assign/dense":   {degradable: false},
	"synth/resyn":    {degradable: true},
	"synth/sop":      {degradable: false, forcer: "synth/resyn"},
	"verify/netlist": {degradable: false},
}

// retiredPoints are rungs the pipeline no longer has: the BDD
// assignment rung the census-backed assign/dense replaced, and the SAT
// and exhaustive CEC rungs verify/netlist replaced. The pipeline must
// never reach them, so a fault armed there never fires and the run
// assigns on assign/dense and verifies by simulation, undegraded.
var retiredPoints = []string{"assign/bdd", "verify/sat", "verify/exhaustive"}

// TestInjectionSweep crosses every stage-boundary injection point with
// every fault kind on the benchmark suite and asserts the pipeline's core
// guarantee: each run ends in a care-set-consistent, netlist-verified
// implementation via a documented fallback, or in a typed *StageError —
// never a process panic, never a hang.
func TestInjectionSweep(t *testing.T) {
	for _, bench := range sweepBenchmarks(t) {
		spec := load(t, bench)
		for _, c := range chaos.Plan() {
			c := c
			t.Run(bench+"/"+c.String(), func(t *testing.T) {
				topo, ok := sweepTopology[c.Point]
				if !ok {
					t.Fatalf("unknown injection point %q", c.Point)
				}
				h := chaos.New(c.Point, c.Kind)
				ctx := h.Bind(context.Background())
				hook := h.Hook
				if topo.forcer != "" {
					forcer := chaos.New(topo.forcer, chaos.Budget)
					hook = chaos.Chain(forcer.Hook, h.Hook)
				}
				res, err := pipeline.Run(ctx, spec, baseOptions(), pipeline.Hooks{Inject: hook})
				if !h.Fired() {
					t.Fatalf("injection at %s never fired", c.Point)
				}

				if c.Kind == chaos.Cancel {
					assertStageError(t, err, c.Point, pipeline.ReasonCancel)
					return
				}
				wantReason := pipeline.ReasonPanic
				if c.Kind == chaos.Budget {
					wantReason = pipeline.ReasonBudget
				}
				if topo.degradable {
					if err != nil {
						t.Fatalf("degradable point %s did not degrade: %v", c.Point, err)
					}
					if !res.Verified {
						t.Fatalf("degraded run not verified (fallbacks %v)", res.Fallbacks)
					}
					checkConsistent(t, spec, res)
					if !hasFallbackFrom(res, c.Point) {
						t.Fatalf("no fallback recorded from %s: %v", c.Point, res.Fallbacks)
					}
				} else {
					assertStageError(t, err, c.Point, wantReason)
				}
			})
		}
		for _, point := range retiredPoints {
			for _, kind := range chaos.Kinds() {
				c := chaos.Case{Point: point, Kind: kind}
				t.Run(bench+"/"+c.String(), func(t *testing.T) {
					h := chaos.New(c.Point, c.Kind)
					res, err := pipeline.Run(h.Bind(context.Background()), spec,
						baseOptions(), pipeline.Hooks{Inject: h.Hook})
					if h.Fired() {
						t.Fatalf("retired point %s was reached", c.Point)
					}
					if err != nil {
						t.Fatal(err)
					}
					if !res.Verified || res.VerifyMethod != "netlist" || res.Degraded() {
						t.Fatalf("verified=%v method=%q fallbacks=%v",
							res.Verified, res.VerifyMethod, res.Fallbacks)
					}
					if got := res.Stages[0].Attempts; res.Stages[0].Stage != pipeline.StageAssign ||
						len(got) != 1 || got[0] != "assign/dense" {
						t.Fatalf("assign stage ran %v, want [assign/dense]", got)
					}
					checkConsistent(t, spec, res)
				})
			}
		}
	}
}

func hasFallbackFrom(res *pipeline.Result, from string) bool {
	for _, fb := range res.Fallbacks {
		if fb.From == from {
			return true
		}
	}
	return false
}

func assertStageError(t *testing.T, err error, attempt string, reason pipeline.Reason) {
	t.Helper()
	if err == nil {
		t.Fatalf("want *StageError at %s [%s], got success", attempt, reason)
	}
	var serr *pipeline.StageError
	if !errors.As(err, &serr) {
		t.Fatalf("want *StageError, got %T: %v", err, err)
	}
	if serr.Attempt != attempt || serr.Reason != reason {
		t.Fatalf("want failure at %s [%s], got %s [%s]: %v",
			attempt, reason, serr.Attempt, serr.Reason, serr.Err)
	}
	wantRetryable := reason == pipeline.ReasonBudget || reason == pipeline.ReasonCancel
	if serr.Retryable() != wantRetryable {
		t.Fatalf("Retryable() = %v for reason %s", serr.Retryable(), reason)
	}
	if reason == pipeline.ReasonPanic && serr.Stack == nil {
		t.Fatal("panic StageError missing stack")
	}
}

// TestStrictDisablesDegradation checks that JobOptions.Strict turns the
// first recoverable failure into a terminal StageError.
func TestStrictDisablesDegradation(t *testing.T) {
	spec := load(t, "bench")
	h := chaos.New("synth/resyn", chaos.Panic)
	jo := baseOptions()
	jo.Strict = true
	_, err := pipeline.Run(context.Background(), spec, jo, pipeline.Hooks{Inject: h.Hook})
	assertStageError(t, err, "synth/resyn", pipeline.ReasonPanic)

	// The same fault degrades to synth/sop without Strict.
	h2 := chaos.New("synth/resyn", chaos.Panic)
	jo.Strict = false
	res, err := pipeline.Run(context.Background(), spec, jo, pipeline.Hooks{Inject: h2.Hook})
	if err != nil {
		t.Fatal(err)
	}
	if !hasFallbackFrom(res, "synth/resyn") || !res.Verified {
		t.Fatalf("non-strict run should degrade and verify: %+v", res.Fallbacks)
	}
}

// TestAIGBudget checks that a too-small AIG cap surfaces as a retryable
// budget StageError wrapping synth.ErrAIGBudget.
func TestAIGBudget(t *testing.T) {
	spec := load(t, "bench")
	jo := baseOptions()
	jo.Flow = "sop"
	jo.MaxAIGNodes = 2
	_, err := pipeline.Run(context.Background(), spec, jo, pipeline.Hooks{})
	assertStageError(t, err, "synth/sop", pipeline.ReasonBudget)
	if !errors.Is(err, synth.ErrAIGBudget) {
		t.Fatalf("want ErrAIGBudget, got %v", err)
	}
}

// TestMaxConflictsDoesNotChangeDenseJob pins that the SAT conflict
// budget bounds network jobs only: a dense job verifies by simulation,
// so its answer is the same under a starved budget as under the default.
func TestMaxConflictsDoesNotChangeDenseJob(t *testing.T) {
	spec := load(t, "p3")
	var want []byte
	for _, mc := range []int64{0, 1} {
		jr, err := pipeline.RunJob(context.Background(), spec,
			pipeline.JobOptions{Method: "rank", Fraction: 0.5, MaxConflicts: mc})
		if err != nil {
			t.Fatalf("max_conflicts=%d: %v", mc, err)
		}
		if !jr.Verified || jr.VerifyMethod != "netlist" || jr.Degraded {
			t.Fatalf("max_conflicts=%d: verified=%v method=%q degraded=%v",
				mc, jr.Verified, jr.VerifyMethod, jr.Degraded)
		}
		jr.ElapsedMs = 0
		for i := range jr.Stages {
			jr.Stages[i].TookMs = 0
		}
		got, err := json.Marshal(jr)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("max_conflicts=%d changed the job result:\n%s\nvs\n%s", mc, got, want)
		}
	}
}

// TestWideSpecHonoursDeadline runs the widest admitted spec with the
// largest minimum cover: tt.MaxInputs-input parity, whose 32,768 on-set
// minterms are all primes. Every minimizer pass touches each of them, so
// every pass must poll the interrupt. The whole run takes about half a
// second: the 50 ms and 200 ms deadlines land mid-run and must end in a
// cancel within latencySlack, while at 1 s either outcome is allowed, as
// in TestDeadlineReturnsPromptly — a prompt cancel, or a verified result
// consistent with the spec. With no deadline the run must come back
// verified. (Specs wider than tt.MaxInputs never get here;
// TestServerRefusesWideSpec covers their refusal.)
func TestWideSpecHonoursDeadline(t *testing.T) {
	f := tt.New(tt.MaxInputs, 1)
	for m := 0; m < f.Size(); m++ {
		if bits.OnesCount(uint(m))%2 == 1 {
			f.SetPhase(0, m, tt.On)
		}
	}
	for _, tc := range []struct {
		timeout    time.Duration // 0: no deadline
		mustCancel bool
	}{{50 * time.Millisecond, true}, {200 * time.Millisecond, true}, {time.Second, false}, {0, false}} {
		start := time.Now()
		res, err := pipeline.Run(context.Background(), f,
			pipeline.JobOptions{Objective: "delay", TimeoutMs: tc.timeout.Milliseconds()}, pipeline.Hooks{})
		elapsed := time.Since(start)
		if err == nil && !tc.mustCancel {
			if !res.Verified {
				t.Fatalf("timeout=%v: result not verified (method %q)", tc.timeout, res.VerifyMethod)
			}
			checkConsistent(t, f, res)
			t.Logf("timeout=%v: finished in %v", tc.timeout, elapsed)
			continue
		}
		var serr *pipeline.StageError
		if tc.timeout == 0 || !errors.As(err, &serr) || serr.Reason != pipeline.ReasonCancel {
			t.Fatalf("timeout=%v: want a cancel StageError, got %v", tc.timeout, err)
		}
		t.Logf("timeout=%v: cancelled after %v in %s", tc.timeout, elapsed, serr.Attempt)
		if over := elapsed - tc.timeout; over > latencySlack {
			t.Fatalf("timeout=%v: returned %v past the deadline (limit %v)", tc.timeout, over, latencySlack)
		}
	}
}

// TestDeadlineReturnsPromptly runs the whole benchmark suite under
// deadlines that land mid-stage and asserts every run returns within
// latencySlack of the deadline — the pipeline's bounded-cancellation
// guarantee.
func TestDeadlineReturnsPromptly(t *testing.T) {
	timeouts := []time.Duration{5 * time.Millisecond, 50 * time.Millisecond, 200 * time.Millisecond}
	if testing.Short() {
		timeouts = timeouts[:2]
	}
	for _, spec := range benchmarks.Specs() {
		f := load(t, spec.Name)
		for _, d := range timeouts {
			jo := baseOptions()
			jo.TimeoutMs = d.Milliseconds()
			start := time.Now()
			res, err := pipeline.Run(context.Background(), f, jo, pipeline.Hooks{})
			elapsed := time.Since(start)
			if over := elapsed - d; err != nil && over > latencySlack {
				t.Errorf("%s timeout=%v: returned %v past the deadline (limit %v)",
					spec.Name, d, over, latencySlack)
			}
			if err == nil {
				checkConsistent(t, f, res)
				continue
			}
			var serr *pipeline.StageError
			if !errors.As(err, &serr) {
				t.Fatalf("%s: deadline produced %T, want *StageError: %v", spec.Name, err, err)
			}
			if serr.Reason != pipeline.ReasonCancel {
				t.Fatalf("%s: deadline produced reason %s: %v", spec.Name, serr.Reason, err)
			}
		}
	}
}

// TestNetworkJobHonoursDeadline runs the exhaustive network engine on
// random1 and random2 decomposed at k=4, the suite circuits it takes
// longest on (a few hundred milliseconds each). Under a 50 ms budget each
// must come back within latencySlack of the deadline as a cancel
// StageError of the exhaustive rung, with no fallback to the windowed
// engine. Under relsynd's default 30 s job timeout each must finish on
// the exhaustive rung with its primary-output functions unchanged.
func TestNetworkJobHonoursDeadline(t *testing.T) {
	const timeout = 50 * time.Millisecond
	const relsyndDefault = 30 * time.Second // server.Config.DefaultTimeout
	for _, name := range []string{"random1", "random2"} {
		syn, err := synth.Synthesize(load(t, name), synth.Options{})
		if err != nil {
			t.Fatal(err)
		}
		nw, err := network.FromAIG(syn.Graph, 4)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		res, err := pipeline.RunNetworkJob(context.Background(), nw, pipeline.JobOptions{
			Method: "lcf", Threshold: 0.55, TimeoutMs: timeout.Milliseconds()})
		elapsed := time.Since(start)
		assertStageError(t, err, "extract/exhaustive", pipeline.ReasonCancel)
		if res == nil || res.Network != nil || res.DCMode != "" || len(res.Fallbacks) != 0 {
			t.Fatalf("%s: partial result wrong: %+v", name, res)
		}
		if over := elapsed - timeout; over > latencySlack {
			t.Fatalf("%s: returned %v past the deadline (limit %v)", name, over, latencySlack)
		}
		t.Logf("%s: %d nodes, cancelled after %v", name, nw.NumNodes(), elapsed)

		start = time.Now()
		res, err = pipeline.RunNetworkJob(context.Background(), nw, pipeline.JobOptions{
			Method: "lcf", Threshold: 0.55, TimeoutMs: relsyndDefault.Milliseconds()})
		if err != nil {
			t.Fatalf("%s: under the default timeout: %v", name, err)
		}
		if res.DCMode != pipeline.JobDCExhaustive || len(res.Fallbacks) != 0 {
			t.Fatalf("%s: finished on %q with fallbacks %v", name, res.DCMode, res.Fallbacks)
		}
		if !res.Network.POFunction().Equal(nw.POFunction()) {
			t.Fatalf("%s: reassignment changed the primary-output functions", name)
		}
		t.Logf("%s: finished in %v", name, time.Since(start))
	}
}

// TestCancelBeforeStart covers immediate cancellation.
func TestCancelBeforeStart(t *testing.T) {
	spec := load(t, "bench")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := pipeline.Run(ctx, spec, baseOptions(), pipeline.Hooks{})
	var serr *pipeline.StageError
	if !errors.As(err, &serr) || serr.Reason != pipeline.ReasonCancel {
		t.Fatalf("want cancel StageError, got %v", err)
	}
}

// TestMethodsAndFlows exercises the full option matrix end to end.
func TestMethodsAndFlows(t *testing.T) {
	spec := load(t, "fout")
	methods := []pipeline.JobOptions{
		{Method: "none"},
		{Method: "rank", Fraction: 0.5},
		{Method: "rank", Fraction: 0.5, AssignTies: true},
		{Method: "lcf", Threshold: 0.55},
		{Method: "complete"},
	}
	for _, m := range methods {
		for _, flow := range []string{"sop", "resyn"} {
			jo := m
			jo.Objective, jo.Flow = "delay", flow
			res, err := pipeline.Run(context.Background(), spec, jo, pipeline.Hooks{})
			if err != nil {
				t.Fatalf("%v/%v: %v", m.Method, flow, err)
			}
			if !res.Verified {
				t.Fatalf("%v/%v: not verified", m.Method, flow)
			}
			checkConsistent(t, spec, res)
		}
	}
}

// TestDegradedResultStillImprovesReliability sanity-checks that even a
// degraded pipeline (resyn rung knocked out) still delivers the
// paper's reliability win over conventional synthesis.
func TestDegradedResultStillImprovesReliability(t *testing.T) {
	spec := load(t, "bench")
	conv, err := pipeline.Run(context.Background(), spec,
		pipeline.JobOptions{Objective: "delay"}, pipeline.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	hResyn := chaos.New("synth/resyn", chaos.Budget)
	jo := baseOptions()
	jo.Method = "complete"
	rel, err := pipeline.Run(context.Background(), spec, jo, pipeline.Hooks{Inject: hResyn.Hook})
	if err != nil {
		t.Fatal(err)
	}
	convER, err := reliability.ErrorRateMeanCtx(context.Background(), spec, conv.Synth.Impl, 0)
	if err != nil {
		t.Fatal(err)
	}
	relER, err := reliability.ErrorRateMeanCtx(context.Background(), spec, rel.Synth.Impl, 0)
	if err != nil {
		t.Fatal(err)
	}
	if relER > convER {
		t.Fatalf("degraded reliability run worse than conventional: %v > %v", relER, convER)
	}
}
