// Job-shaped entry point: a fully serializable request/response pair
// around Run, shared by the relsyn CLI (-json) and the relsynd service.
//
// JobOptions is the pipeline's whole configuration — plain strings and
// numbers, no function hooks — with an explicit Normalize step that
// (a) fills defaults and (b) clears knobs that are meaningless for the
// selected method, so that semantically identical requests have
// byte-identical normalized forms. Key() hashes that normalized form;
// combined with the spec content hash (internal/pla.HashFunction) it is
// the cache / coalescing identity used by internal/server.
package pipeline

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"time"

	"relsyn/internal/bitset"
	"relsyn/internal/census"
	"relsyn/internal/core"
	"relsyn/internal/pla"
	"relsyn/internal/reliability"
	"relsyn/internal/tt"
)

// JobOptions is the serializable configuration of one synthesis job.
// The zero value normalizes to: no assignment, power objective, sop
// flow, no budgets, full verification.
type JobOptions struct {
	// Method selects DC assignment: "none", "rank", "lcf", or "complete".
	Method string `json:"method,omitempty"`
	// Fraction is the ranked-DC fraction in [0,1] (method "rank").
	Fraction float64 `json:"fraction,omitempty"`
	// Threshold is the LC^f threshold in (0,1) (method "lcf").
	Threshold float64 `json:"threshold,omitempty"`
	// AssignTies forwards core.Options.AssignTies.
	AssignTies bool `json:"assign_ties,omitempty"`
	// Objective is "delay" or "power".
	Objective string `json:"objective,omitempty"`
	// Flow is "sop" or "resyn".
	Flow string `json:"flow,omitempty"`
	// Strict disables the degradation ladder.
	Strict bool `json:"strict,omitempty"`
	// SkipVerify skips the independent netlist verification stage.
	SkipVerify bool `json:"skip_verify,omitempty"`

	// TimeoutMs is the wall-clock budget in milliseconds (0 = none).
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// MaxConflicts caps the per-node SAT conflict budget of network
	// (resyn) jobs (0 = default). Dense jobs run no SAT and ignore it.
	MaxConflicts int64 `json:"max_conflicts,omitempty"`
	// MaxAIGNodes caps the optimized AIG size (0 = unlimited).
	MaxAIGNodes int `json:"max_aig_nodes,omitempty"`

	// Parallelism caps the worker count of the per-output kernels
	// (0 = GOMAXPROCS, 1 = sequential). Purely operational: it never
	// changes results, so Key() strips it — two jobs differing only in
	// Parallelism share one cache entry.
	Parallelism int `json:"parallelism,omitempty"`
}

// Job option string values.
const (
	JobMethodNone     = "none"
	JobMethodRank     = "rank"
	JobMethodLCF      = "lcf"
	JobMethodComplete = "complete"
)

// Normalize returns o with defaults filled and method-irrelevant knobs
// cleared: Method/Objective/Flow lower-cased with defaults "none",
// "power", "sop"; Fraction is kept only for "rank", Threshold only for
// "lcf"; AssignTies is cleared for "none" (no assignment runs) and for
// "complete" (which always binds ties), mirroring core.Options.Canonical.
// Two requests that normalize
// equal compute identical results, so Key() — and every cache keyed on
// it — must only ever see normalized options.
func (o JobOptions) Normalize() JobOptions {
	n := o
	n.Method = strings.ToLower(strings.TrimSpace(n.Method))
	if n.Method == "" {
		n.Method = JobMethodNone
	}
	n.Objective = strings.ToLower(strings.TrimSpace(n.Objective))
	if n.Objective == "" {
		n.Objective = "power"
	}
	n.Flow = strings.ToLower(strings.TrimSpace(n.Flow))
	if n.Flow == "" {
		n.Flow = "sop"
	}
	if n.Method != JobMethodRank {
		n.Fraction = 0
	}
	if n.Method != JobMethodLCF {
		n.Threshold = 0
	}
	if n.Method == JobMethodNone || n.Method == JobMethodComplete {
		// core.Options.Canonical(): ties handling is the only semantic
		// assignment knob, and it is inert for these methods.
		n.AssignTies = core.Options{}.Canonical().AssignTies
	}
	return n
}

// maxTimeoutMs is the largest TimeoutMs a time.Duration can hold.
const maxTimeoutMs = math.MaxInt64 / int64(time.Millisecond)

// Validate checks a normalized JobOptions. Call Normalize first.
func (o JobOptions) Validate() error {
	switch o.Method {
	case JobMethodNone, JobMethodComplete:
	case JobMethodRank:
		if o.Fraction < 0 || o.Fraction > 1 {
			return fmt.Errorf("pipeline: job fraction %v outside [0,1]", o.Fraction)
		}
	case JobMethodLCF:
		if o.Threshold <= 0 || o.Threshold >= 1 {
			return fmt.Errorf("pipeline: job threshold %v outside (0,1)", o.Threshold)
		}
	default:
		return fmt.Errorf("pipeline: unknown job method %q", o.Method)
	}
	switch o.Objective {
	case "delay", "power":
	default:
		return fmt.Errorf("pipeline: unknown job objective %q", o.Objective)
	}
	switch o.Flow {
	case "sop", "resyn":
	default:
		return fmt.Errorf("pipeline: unknown job flow %q", o.Flow)
	}
	if o.TimeoutMs < 0 || o.MaxConflicts < 0 || o.MaxAIGNodes < 0 {
		return fmt.Errorf("pipeline: job budgets must be non-negative")
	}
	if o.TimeoutMs > maxTimeoutMs {
		return fmt.Errorf("pipeline: job timeout %d ms exceeds %d ms", o.TimeoutMs, maxTimeoutMs)
	}
	if o.Parallelism < 0 {
		return fmt.Errorf("pipeline: job parallelism must be non-negative")
	}
	return nil
}

// Key returns a stable digest of the normalized options, suitable for
// combining with a spec content hash into a result-cache key.
// Parallelism is zeroed before hashing: it cannot affect the computed
// result (the parallel paths are bit-identical to the sequential one),
// so hashing it would needlessly split identical work across cache
// entries and defeat request coalescing.
func (o JobOptions) Key() string {
	n := o.Normalize()
	n.Parallelism = 0
	b, err := json.Marshal(n)
	if err != nil { // unreachable: plain struct of scalars
		panic(fmt.Sprintf("pipeline: marshal job options: %v", err))
	}
	sum := sha256.Sum256(append([]byte("relsyn/job/v1\n"), b...))
	return hex.EncodeToString(sum[:])
}

// JobSpecInfo describes the input specification.
type JobSpecInfo struct {
	Inputs     int     `json:"inputs"`
	Outputs    int     `json:"outputs"`
	DCFraction float64 `json:"dc_fraction"`
}

// JobAssignInfo reports the assignment stage.
type JobAssignInfo struct {
	Method   string  `json:"method"`
	Assigned int     `json:"assigned"`
	TotalDCs int     `json:"total_dcs"`
	Fraction float64 `json:"fraction"`
}

// JobMetrics reports implementation costs with stable wire names.
type JobMetrics struct {
	Area     float64 `json:"area"`
	DelayPs  float64 `json:"delay_ps"`
	Power    float64 `json:"power"`
	Gates    int     `json:"gates"`
	Literals int     `json:"literals"`
	AIGNodes int     `json:"aig_nodes"`
	AIGDepth int     `json:"aig_depth"`
}

// JobBounds is the exact reliability envelope of the specification: the
// minimum and maximum error rates achievable by any DC assignment.
type JobBounds struct {
	Min float64 `json:"min"`
	Max float64 `json:"max"`
}

// JobFallback is the wire form of one degradation-ladder step.
type JobFallback struct {
	Stage  string `json:"stage"`
	From   string `json:"from"`
	To     string `json:"to"`
	Reason string `json:"reason"`
}

// JobStage is the wire form of one stage report.
type JobStage struct {
	Stage    string   `json:"stage"`
	Attempts []string `json:"attempts"`
	TookMs   float64  `json:"took_ms"`
}

// wireTrail converts a run's degradation ladder and stage reports to
// their wire forms.
func wireTrail(res *Result) (fallbacks []JobFallback, stages []JobStage) {
	for _, fb := range res.Fallbacks {
		fallbacks = append(fallbacks, JobFallback{
			Stage:  string(fb.Stage),
			From:   fb.From,
			To:     fb.To,
			Reason: string(fb.Cause.Reason),
		})
	}
	for _, st := range res.Stages {
		stages = append(stages, JobStage{
			Stage:    string(st.Stage),
			Attempts: append([]string(nil), st.Attempts...),
			TookMs:   float64(st.Took) / float64(time.Millisecond),
		})
	}
	return fallbacks, stages
}

// JobResult is the serializable outcome of one synthesis job. On
// pipeline failure RunJob returns a partial JobResult (fallbacks and
// stages populated, metrics zero) alongside the error so callers can
// still report what was attempted.
type JobResult struct {
	Spec         JobSpecInfo    `json:"spec"`
	Assign       *JobAssignInfo `json:"assign,omitempty"`
	Metrics      JobMetrics     `json:"metrics"`
	ErrorRate    float64        `json:"error_rate"`
	Bounds       JobBounds      `json:"reliability_bounds"`
	Verified     bool           `json:"verified"`
	VerifyMethod string         `json:"verify_method,omitempty"`
	Degraded     bool           `json:"degraded"`
	Fallbacks    []JobFallback  `json:"fallbacks,omitempty"`
	Stages       []JobStage     `json:"stages,omitempty"`
	ElapsedMs    float64        `json:"elapsed_ms"`
}

// RunJob executes one serializable synthesis job: normalize and validate
// jo, run the fault-tolerant pipeline, and fold the outcome (metrics,
// fallback ladder, reliability figures) into a JobResult. On pipeline
// failure the partial JobResult and the error (carrying any *StageError)
// are both returned.
func RunJob(ctx context.Context, f *tt.Function, jo JobOptions) (*JobResult, error) {
	return runJob(ctx, f, jo, Hooks{})
}

// runJob is RunJob under the test seam h.
func runJob(ctx context.Context, f *tt.Function, jo JobOptions, h Hooks) (*JobResult, error) {
	n := jo.Normalize()
	if err := n.Validate(); err != nil {
		return nil, err
	}
	cs, cerr := jobCensus(ctx, f, n.Parallelism)
	return reportJob(ctx, f, n, h, cs, cerr)
}

// jobCensus returns f's fused neighbor census, one per output, which
// every spec-side metric of the job reads: fetched from (or computed
// into) the shared engine, keyed on the spec content hash alone, or
// computed for this job when no engine is configured. An invalid f
// has none; the run reports why.
func jobCensus(ctx context.Context, f *tt.Function, parallelism int) ([]*bitset.Census, error) {
	if f == nil {
		return nil, fmt.Errorf("pipeline: nil function")
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	var fc *census.FunctionCensus
	var err error
	if eng := census.Default; eng != nil {
		fc, err = eng.For(ctx, pla.HashFunction(f), f, parallelism)
	} else {
		fc, err = census.Compute(ctx, f, parallelism)
	}
	if err != nil {
		return nil, err
	}
	return fc.Outs, nil
}

// reportJob runs the pipeline on f under the normalized, validated n
// with cs, the census jobCensus built (or its failure cerr), and folds
// the outcome into a JobResult. The census feeds the assignment oracles
// and the bounds report. A census that failed to build (a cancelled
// context) leaves the assignment stage to build its own and the run to
// report the cancellation; if the run succeeds regardless, the bounds
// report has no census and the job fails with cerr.
func reportJob(ctx context.Context, f *tt.Function, n JobOptions, h Hooks, cs []*bitset.Census, cerr error) (*JobResult, error) {
	res, runErr := run(ctx, f, n, h, cs)
	if res == nil {
		return nil, runErr
	}
	jr := &JobResult{
		Spec: JobSpecInfo{
			Inputs:     f.NumIn,
			Outputs:    f.NumOut(),
			DCFraction: f.DCFraction(),
		},
		Degraded:  res.Degraded(),
		ElapsedMs: float64(res.Elapsed) / float64(time.Millisecond),
	}
	jr.Fallbacks, jr.Stages = wireTrail(res)
	if runErr != nil {
		return jr, runErr
	}
	if res.Assign != nil {
		jr.Assign = &JobAssignInfo{
			Method:   n.Method,
			Assigned: len(res.Assign.Assigned),
			TotalDCs: res.Assign.TotalDCs,
			Fraction: res.Assign.FractionAssigned(),
		}
	}
	m := res.Synth.Metrics
	jr.Metrics = JobMetrics{
		Area:     m.Area,
		DelayPs:  m.DelayPs,
		Power:    m.Power,
		Gates:    m.Gates,
		Literals: m.Literals,
		AIGNodes: m.AIGNodes,
		AIGDepth: m.AIGDepth,
	}
	jr.Verified, jr.VerifyMethod = res.Verified, res.VerifyMethod
	er, err := reliability.ErrorRateMeanCtx(ctx, f, res.Synth.Impl, n.Parallelism)
	if err != nil {
		return jr, fmt.Errorf("pipeline: error-rate report: %w", err)
	}
	jr.ErrorRate = er
	if cerr != nil {
		return jr, fmt.Errorf("pipeline: bounds report: %w", cerr)
	}
	lo, hi, err := reliability.BoundsMeanCensusCtx(ctx, f, cs, n.Parallelism)
	if err != nil {
		return jr, fmt.Errorf("pipeline: bounds report: %w", err)
	}
	jr.Bounds = JobBounds{Min: lo, Max: hi}
	return jr, nil
}
