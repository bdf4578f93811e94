// Package relsyn is a library for reliability-driven don't-care
// assignment in logic synthesis, reproducing Zukoski, Choudhury &
// Mohanram, "Reliability-driven don't care assignment for logic
// synthesis" (DATE 2011).
//
// Incompletely specified Boolean functions carry don't-care (DC)
// minterms that conventional synthesis spends purely on area. This
// package instead assigns selected DCs to maximize logical derating of
// single-bit input errors, then hands the remaining flexibility to a
// conventional flow:
//
//	spec, _ := relsyn.LoadBenchmark("ex1010")
//	res, _ := relsyn.RankingAssign(spec, 0.5)       // paper Fig. 3
//	impl, _ := relsyn.Synthesize(res.Func, relsyn.SynthOptions{})
//	fmt.Println(relsyn.ErrorRate(spec, impl.Impl))  // input-error rate
//	fmt.Println(impl.Metrics.Area)                   // mapped area
//
// The package is a facade over the internal packages: truth tables
// (internal/tt), .pla I/O (internal/pla), the assignment algorithms
// (internal/core), complexity-factor metrics (internal/complexity),
// exact reliability metrics (internal/reliability), analytical bounds
// (internal/estimate), an espresso-style minimizer, algebraic factoring,
// AIG optimization and technology mapping (internal/{espresso, factor,
// aig, mapper, celllib, synth}), synthetic benchmark generation
// (internal/synthetic, internal/benchmarks), and nodal decomposition
// with internal-DC reassignment (internal/network).
//
// The pipeline is also served over HTTP by cmd/relsynd — optionally
// crash-safe via a durable job store (internal/store) — and consumed
// with retries and backoff through the relsyn/client package.
package relsyn

import (
	"context"
	"fmt"
	"io"

	"relsyn/internal/aig"
	"relsyn/internal/benchmarks"
	"relsyn/internal/bitset"
	"relsyn/internal/blif"
	"relsyn/internal/census"
	"relsyn/internal/complexity"
	"relsyn/internal/core"
	"relsyn/internal/estimate"
	"relsyn/internal/network"
	"relsyn/internal/obs"
	"relsyn/internal/pipeline"
	"relsyn/internal/pla"
	"relsyn/internal/reliability"
	"relsyn/internal/sat"
	"relsyn/internal/synth"
	"relsyn/internal/synthetic"
	"relsyn/internal/tt"
)

// Function is an incompletely specified multi-output Boolean function
// held as dense truth tables (one on-set and one DC-set per output).
type Function = tt.Function

// Phase classifies a minterm for one output: Off, On, or DC.
type Phase = tt.Phase

// Minterm phases.
const (
	Off = tt.Off
	On  = tt.On
	DC  = tt.DC
)

// NewFunction returns an all-zero function with n inputs and m outputs.
func NewFunction(n, m int) *Function { return tt.New(n, m) }

// ErrZeroOutputs is the typed sentinel wrapped by every per-output mean
// helper (ComplexityFactor, ExactBounds, SignalEstimate, ...) when given
// a function with no outputs: such a mean has no value, and historically
// these helpers silently divided by zero and returned NaN.
var ErrZeroOutputs = tt.ErrZeroOutputs

// ParsePLA reads an Espresso-format .pla description (types f, fd, fr,
// fdr) into a dense function. A spec wider than 16 inputs is refused:
// wider logic is a network job (ParseBLIF, RunNetworkJob).
func ParsePLA(r io.Reader) (*Function, error) {
	file, err := pla.Parse(r)
	if err != nil {
		return nil, err
	}
	return file.ToFunction()
}

// WritePLA serializes a function as a type-fd .pla file with one row per
// on-set or DC minterm.
func WritePLA(w io.Writer, f *Function) error {
	return pla.FromFunction(f, nil, nil).Write(w)
}

// BenchmarkSpec describes one benchmark of the evaluation suite (the
// stand-ins for paper Table 1; see internal/benchmarks).
type BenchmarkSpec = benchmarks.Spec

// Benchmarks lists the evaluation suite in paper order.
func Benchmarks() []BenchmarkSpec { return benchmarks.Specs() }

// LoadBenchmark deterministically generates the named suite benchmark.
func LoadBenchmark(name string) (*Function, error) { return benchmarks.Load(name) }

// AssignOptions tunes the assignment algorithms; see core.Options.
type AssignOptions = core.Options

// AssignResult reports an assignment pass; Func holds the partially
// bound function, ready for synthesis.
type AssignResult = core.Result

// RankingAssign runs the paper's Fig. 3 ranking-based algorithm, binding
// the top fraction ∈ [0,1] of each output's rankable DC minterms to the
// majority phase of their specified neighbors.
func RankingAssign(f *Function, fraction float64) (*AssignResult, error) {
	return core.Ranking(f, fraction, core.Options{})
}

// LCFAssign runs the paper's Fig. 7 complexity-factor-based algorithm:
// a DC minterm is bound iff its local complexity factor is below
// threshold (0.45–0.65 recommended).
func LCFAssign(f *Function, threshold float64) (*AssignResult, error) {
	return core.LCF(f, threshold, core.Options{})
}

// CompleteAssign binds every DC minterm for reliability (the paper's
// "Complete" column — maximal masking, typically large overhead).
func CompleteAssign(f *Function) *AssignResult { return core.Complete(f) }

// ComplexityFactor returns the mean normalized complexity factor C^f
// across outputs (paper §2.2). Zero-output functions are rejected with
// an error wrapping ErrZeroOutputs.
func ComplexityFactor(f *Function) (float64, error) {
	cs, err := censuses(f)
	if err != nil {
		return 0, err
	}
	return complexity.FactorMean(cs)
}

// ExpectedComplexityFactor returns the mean E[C^f] = f0²+f1²+fDC².
// Zero-output functions are rejected with an error wrapping
// ErrZeroOutputs.
func ExpectedComplexityFactor(f *Function) (float64, error) { return complexity.ExpectedMean(f) }

// LocalComplexityFactor returns LC^f for one minterm of one output
// (paper §4). An output or minterm index outside f is an error.
func LocalComplexityFactor(f *Function, output, minterm int) (float64, error) {
	if output < 0 || output >= f.NumOut() {
		return 0, fmt.Errorf("relsyn: output %d outside [0,%d)", output, f.NumOut())
	}
	if minterm < 0 || minterm >= f.Size() {
		return 0, fmt.Errorf("relsyn: minterm %d outside [0,%d)", minterm, f.Size())
	}
	return complexity.LocalAll(census.Output(f, output))[minterm], nil
}

// ErrorRate returns the exact single-bit input error rate of impl
// measured against spec's care set, averaged over outputs and normalized
// by the n·2^n possible (minterm, bit) error events. Dimension mismatches
// between spec and impl are reported as errors.
func ErrorRate(spec, impl *Function) (float64, error) {
	return reliability.ErrorRateMeanCtx(context.Background(), spec, impl, 0)
}

// ExactBounds returns the minimum and maximum error rates achievable by
// any DC assignment of f (paper §5 exact formulas), averaged over
// outputs. Zero-output functions are rejected with an error wrapping
// ErrZeroOutputs.
func ExactBounds(f *Function) (lo, hi float64, err error) {
	cs, err := censuses(f)
	if err != nil {
		return 0, 0, err
	}
	return reliability.BoundsMeanCensusCtx(context.Background(), f, cs, 0)
}

// ErrorRateMulti returns the exact k-bit input error rate of impl
// against spec (k = 1 reproduces ErrorRate), averaged over outputs.
// Dimension mismatches and k outside [1, n] are reported as errors; the
// C(n,k) enumeration polls ctx and aborts with ctx.Err() once it is
// done, so callers can bound adversarially large (n, k) requests.
func ErrorRateMulti(ctx context.Context, spec, impl *Function, k int) (float64, error) {
	return reliability.ErrorRateMultiMean(ctx, spec, impl, k)
}

// EstimateBounds is an analytically estimated [Min, Max] error-rate
// interval.
type EstimateBounds = estimate.Bounds

// SignalEstimate returns the Gaussian signal-probability min-max
// estimate (paper §5), averaged over outputs. Zero-output functions are
// rejected with an error wrapping ErrZeroOutputs.
func SignalEstimate(f *Function) (EstimateBounds, error) { return estimate.SignalBasedMean(f) }

// BorderEstimate returns the Poisson border-count min-max estimate
// (paper §5), averaged over outputs. Zero-output functions are rejected
// with an error wrapping ErrZeroOutputs.
func BorderEstimate(f *Function) (EstimateBounds, error) {
	cs, err := censuses(f)
	if err != nil {
		return EstimateBounds{}, err
	}
	return estimate.BorderBasedMean(f, cs)
}

// censuses builds f's per-output fused neighbor censuses for one
// facade call. An invalid f, including one with no outputs (wrapping
// ErrZeroOutputs), is an error.
func censuses(f *Function) ([]*bitset.Census, error) {
	fc, err := census.Compute(context.Background(), f, 0)
	if err != nil {
		return nil, err
	}
	return fc.Outs, nil
}

// SynthOptions configures the synthesis flow; see synth.Options.
type SynthOptions = synth.Options

// SynthResult bundles a synthesized implementation with its metrics.
type SynthResult = synth.Result

// Synthesis objectives and flows (re-exported from internal/synth).
const (
	OptimizeDelay = synth.OptimizeDelay
	OptimizePower = synth.OptimizePower
	FlowSOP       = synth.FlowSOP
	FlowResyn     = synth.FlowResyn
)

// Synthesize runs espresso minimization (spending the remaining DCs),
// algebraic factoring, AIG optimization, and technology mapping onto the
// generic 70 nm-class library, returning the completely specified
// implementation and its area/delay/power metrics.
func Synthesize(f *Function, opt SynthOptions) (*SynthResult, error) {
	return synth.Synthesize(f, opt)
}

// SyntheticParams configures synthetic benchmark generation; see
// synthetic.Params.
type SyntheticParams = synthetic.Params

// GenerateSynthetic produces a function with a designated complexity
// factor and DC density by seeded local search (paper §2.2).
func GenerateSynthetic(p SyntheticParams) (*Function, error) { return synthetic.Generate(p) }

// Network is a multi-level SOP-node decomposition of a circuit.
type Network = network.Network

// Decompose clusters a synthesized circuit's AIG into k-feasible SOP
// nodes (paper §4 "nodal decomposition"; k ≤ 6). The returned network
// supports exact internal-DC extraction and LC^f reassignment.
func Decompose(g *aig.Graph, k int) (*Network, error) { return network.FromAIG(g, k) }

// WriteBLIF serializes a decomposed network in the combinational BLIF
// subset (ABC-compatible).
func WriteBLIF(w io.Writer, nw *Network, model string) error {
	return blif.WriteNetwork(w, nw, model)
}

// ParseBLIF reads a combinational BLIF model into a network.
func ParseBLIF(r io.Reader) (*Network, error) { return blif.Parse(r) }

// WindowOptions bounds the per-node TFI/TFO cone of windowed SAT
// don't-care extraction; see network.WindowOptions. Zero values use the
// engine defaults; negative depths mean full depth (the windowed
// extraction then equals the complete one).
type WindowOptions = network.WindowOptions

// SatDCOptions bounds a SAT-based don't-care extraction (window depths,
// per-node conflict budget, interrupt hook); see network.SatDCOptions.
type SatDCOptions = network.SatDCOptions

// WindowedReassignReport summarizes a windowed reassignment run; see
// network.WindowedReassignReport.
type WindowedReassignReport = network.WindowedReassignReport

// ErrSATBudget is the typed SAT conflict-budget sentinel wrapped by
// errors from SAT-backed computations (windowed DC extraction, CEC).
// Partial results accompanying it are sound — they just cover fewer
// cases — and a retry with a larger budget can succeed.
var ErrSATBudget = sat.ErrBudget

// NetworkJobResult is the serializable outcome of a network
// reassignment job — the same struct the relsynd /v1/resyn endpoint
// returns and `relsyn resyn -json` prints; see pipeline.NetworkJobResult.
type NetworkJobResult = pipeline.NetworkJobResult

// RunNetworkJob rewrites a decomposed network's nodes by extracting
// internal don't-cares (exhaustively up to tt.MaxInputs primary inputs,
// with windowed SAT above that) and binding them with the LC^f
// reassignment, under the pipeline's degradation ladder. Method must be
// "lcf".
func RunNetworkJob(ctx context.Context, nw *Network, o JobOptions) (*NetworkJobResult, error) {
	return pipeline.RunNetworkJob(ctx, nw, o)
}

// StageError is the typed failure RunJob and RunNetworkJob return
// instead of panicking or hanging; see pipeline.StageError.
type StageError = pipeline.StageError

// JobOptions is the flat, JSON-serializable job configuration shared by
// the relsynd service, the relsyn CLI, and library callers; see
// pipeline.JobOptions. Its Normalize/Key methods define the
// content-addressed cache identity used by the server.
type JobOptions = pipeline.JobOptions

// JobResult is the serializable outcome of a pipeline job — the same
// struct the relsynd HTTP API returns and `relsyn synth -json` prints;
// see pipeline.JobResult.
type JobResult = pipeline.JobResult

// RunJob executes one pipeline job described by flat, serializable
// options and returns a serializable result. On failure the returned
// error carries the typed *StageError chain, and the JobResult (when
// non-nil) still describes the partial run.
func RunJob(ctx context.Context, f *Function, o JobOptions) (*JobResult, error) {
	return pipeline.RunJob(ctx, f, o)
}

// Span is one node of an execution trace recorded by the observability
// layer; see internal/obs. Pipeline runs under a traced context record
// one span per stage attempt, annotated with the degradation-ladder rung
// and failure class.
type Span = obs.Span

// WithTrace returns a context under which pipeline runs record a span
// tree rooted at the returned span. Call End on the root when the run
// finishes, then Render it (this powers `relsyn synth -trace`):
//
//	ctx, root := relsyn.WithTrace(ctx, "cli/synth")
//	res, err := relsyn.RunJob(ctx, f, opts)
//	root.End()
//	root.Render(os.Stderr)
//
// Without WithTrace, span recording is disabled and costs one nil check
// per stage.
func WithTrace(ctx context.Context, name string) (context.Context, *Span) {
	return obs.WithTrace(ctx, name)
}

// MetricsRegistry is the process-wide observability registry; see
// internal/obs. Every queue/cache/pipeline/HTTP series the relsynd
// /metrics endpoint exports lives here by default.
func MetricsRegistry() *obs.Registry { return obs.Default }
