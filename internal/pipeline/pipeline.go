// Package pipeline is the fault-tolerant staged runner for the full
// synthesis stack: reliability-driven DC assignment (internal/core), the
// synthesis flow (internal/synth), and independent verification of the
// mapped netlist by exhaustive simulation (internal/faultsim), all under
// one context.Context and the budgets of one JobOptions.
//
// The runner upholds three guarantees that the bare library calls do not:
//
//  1. No panics escape. Each stage attempt runs under panic recovery;
//     library panics surface as typed *StageError values.
//
//  2. Bounded effort. JobOptions caps wall-clock time (TimeoutMs), SAT
//     conflicts (MaxConflicts, network jobs), and AIG nodes
//     (MaxAIGNodes); every long-running loop
//     in the stack polls a context-derived interrupt, so cancelled runs
//     return promptly.
//
//  3. Degrade, don't die. When an attempt fails on a budget, a panic, or
//     an internal error, the runner walks an explicit degradation ladder
//     instead of failing the job:
//
//     synth: resyn flow -> sop flow
//
//     Assignment has one rung, assign/dense, which reads the shared
//     neighbor census. Verification has one rung, verify/netlist: it
//     simulates the mapped netlist over every input vector, so a failure
//     there is a wrong circuit, never a budget to degrade around. Every
//     fallback taken is recorded in Result.Fallbacks. JobOptions.Strict
//     disables the ladder: the first failure is returned as-is. A
//     cancelled context never degrades — the caller asked to stop.
//
// The paper's own framing motivates this: LCF assignment is a knob that
// trades reliability for cost under a budget, and the SAT-based complete
// don't-care literature (Mishchenko & Brayton) keeps complete DC
// computation tractable with exactly this kind of conflict/resource
// limiting. The pipeline generalizes that discipline to the whole flow.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"runtime/debug"
	"time"

	"relsyn/internal/bitset"
	"relsyn/internal/core"
	"relsyn/internal/faultsim"
	"relsyn/internal/mapper"
	"relsyn/internal/obs"
	"relsyn/internal/sat"
	"relsyn/internal/synth"
	"relsyn/internal/tt"
)

// init seeds the base observability series on the default registry so a
// freshly started service exposes the pipeline metric names (with zero
// values) before the first job runs — scrapers and the CI smoke test can
// rely on their presence.
func init() {
	obs.Default.SetHelp("relsyn_pipeline_runs_total", "Pipeline runs by terminal status.")
	obs.Default.SetHelp("relsyn_pipeline_fallbacks_total", "Degradation-ladder steps taken, by stage and rung.")
	obs.Default.SetHelp("relsyn_stage_attempts_total", "Stage-attempt executions, by stage and ladder rung.")
	obs.Default.SetHelp("relsyn_stage_failures_total", "Failed stage attempts, by stage, ladder rung, and reason class.")
	obs.Default.SetHelp("relsyn_stage_duration_seconds", "Per-stage-attempt wall-clock latency.")
	obs.Default.Counter("relsyn_pipeline_fallbacks_total")
	obs.Default.Counter("relsyn_pipeline_runs_total", obs.L("status", "ok"))
	obs.Default.Counter("relsyn_pipeline_runs_total", obs.L("status", "error"))
}

// Stage identifies one phase of the pipeline.
type Stage string

// Pipeline stages in execution order.
const (
	StageAssign Stage = "assign"
	StageSynth  Stage = "synth"
	StageVerify Stage = "verify"
)

// Reason classifies why a stage attempt failed.
type Reason string

// Failure reasons.
const (
	// ReasonPanic: a library panic was recovered at the stage boundary.
	ReasonPanic Reason = "panic"
	// ReasonBudget: a resource budget (SAT conflicts, AIG nodes, or an
	// injected budget) was exhausted.
	ReasonBudget Reason = "budget"
	// ReasonCancel: the context was cancelled or its deadline passed.
	ReasonCancel Reason = "cancel"
	// ReasonError: any other failure (invariant violation, verification
	// mismatch, I/O, ...).
	ReasonError Reason = "error"
)

// ErrBudget is a generic budget-exhaustion sentinel. The fault-injection
// harness returns errors wrapping it; libraries use their own typed
// budget errors (synth.ErrAIGBudget, sat.ErrBudget), which the runner
// classifies identically.
var ErrBudget = errors.New("pipeline: budget exhausted")

// StageError is the typed failure the pipeline returns instead of
// panicking or hanging.
type StageError struct {
	// Stage is the pipeline phase that failed.
	Stage Stage
	// Attempt names the ladder rung that failed, e.g. "synth/resyn".
	Attempt string
	// Reason classifies the failure.
	Reason Reason
	// Err is the underlying error (for ReasonPanic, a synthesized error
	// carrying the panic value).
	Err error
	// Stack holds the goroutine stack for recovered panics, nil otherwise.
	Stack []byte
}

func (e *StageError) Error() string {
	return fmt.Sprintf("pipeline: stage %s (%s) failed [%s]: %v", e.Stage, e.Attempt, e.Reason, e.Err)
}

// Unwrap exposes the underlying error to errors.Is / errors.As.
func (e *StageError) Unwrap() error { return e.Err }

// Retryable reports whether retrying with a larger budget (or without
// cancellation) could succeed. Panics and verification mismatches are
// not retryable; budget exhaustion and cancellation are.
func (e *StageError) Retryable() bool {
	return e.Reason == ReasonBudget || e.Reason == ReasonCancel
}

// Fallback records one degradation-ladder step the runner took.
type Fallback struct {
	Stage Stage
	// From and To name the failed and substituted attempts.
	From, To string
	// Cause is the failure that triggered the fallback.
	Cause *StageError
}

func (f Fallback) String() string {
	return fmt.Sprintf("%s: %s -> %s (%s)", f.Stage, f.From, f.To, f.Cause.Reason)
}

// Hooks is the runner's test seam. Production callers pass the zero
// value: the job's configuration is its JobOptions alone.
type Hooks struct {
	// Inject, when non-nil, is called at every stage-boundary attempt
	// with the attempt name ("assign/dense", "synth/sop", ...). It may
	// panic or return an error (e.g. wrapping ErrBudget) to simulate
	// faults; see internal/chaos.
	Inject func(point string) error
}

// StageReport records one executed stage for observability.
type StageReport struct {
	Stage Stage
	// Attempts lists the ladder rungs tried, in order.
	Attempts []string
	// Took is the stage's wall-clock duration.
	Took time.Duration
}

// Result is a successful pipeline run.
type Result struct {
	// Assign is the assignment-pass outcome (nil with MethodNone).
	Assign *core.Result
	// Synth is the synthesized implementation; Synth.Impl is consistent
	// with the input function's care set.
	Synth *synth.Result
	// Verified reports that the verify stage simulated Synth.Netlist over
	// every input vector and found it consistent with the spec's care
	// set and the assigned function's, and equal to Synth.Impl.
	Verified bool
	// VerifyMethod is "netlist" ("" when skipped).
	VerifyMethod string
	// Fallbacks lists every degradation-ladder step taken, in order.
	Fallbacks []Fallback
	// Stages reports per-stage attempts and timing.
	Stages []StageReport
	// Elapsed is the total wall-clock duration.
	Elapsed time.Duration
}

// Degraded reports whether any fallback fired.
func (r *Result) Degraded() bool { return len(r.Fallbacks) > 0 }

// runner threads shared state through the stages.
type runner struct {
	ctx   context.Context
	n     JobOptions // normalized and validated
	hooks Hooks
	res   *Result
	span  *obs.Span // run-level trace span (nil when tracing is off)
}

// newRunner starts a run of n: it layers n's wall-clock budget onto
// ctx and opens the run span name. The caller defers the returned
// cancel and ends the span.
func newRunner(ctx context.Context, name string, n JobOptions, h Hooks) (*runner, context.CancelFunc) {
	cancel := context.CancelFunc(func() {})
	if n.TimeoutMs > 0 {
		ctx, cancel = context.WithTimeout(ctx, time.Duration(n.TimeoutMs)*time.Millisecond)
	}
	ctx, span := obs.StartSpan(ctx, name)
	return &runner{ctx: ctx, n: n, hooks: h, res: &Result{}, span: span}, cancel
}

// finish records the run's outcome on the metrics and the run span and
// ends the span.
func (r *runner) finish(serr *StageError) {
	status := "ok"
	if serr != nil {
		status = "error"
		r.span.SetAttr("error", serr.Error())
	}
	obs.Default.Counter("relsyn_pipeline_runs_total", obs.L("status", status)).Inc()
	r.span.SetAttrf("fallbacks", "%d", len(r.res.Fallbacks))
	r.span.End()
}

// Run executes assignment, synthesis, and verification on f under jo,
// which it normalizes and validates. It returns the (possibly degraded)
// result, or the partial result plus a *StageError describing the first
// unrecoverable failure. It never panics on library faults and returns
// promptly once ctx is done. RunJob is the production entry point; Run
// exposes the rich Result and the Hooks test seam.
func Run(ctx context.Context, f *tt.Function, jo JobOptions, h Hooks) (*Result, error) {
	n := jo.Normalize()
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return run(ctx, f, n, h, nil)
}

// run is Run on the normalized, validated n. cs supplies the shared
// per-output neighbor censuses the assignment stage reads (RunJob
// passes the job's); outputs without one get a census built for the
// pass.
func run(ctx context.Context, f *tt.Function, n JobOptions, h Hooks, cs []*bitset.Census) (*Result, error) {
	if f == nil {
		return nil, fmt.Errorf("pipeline: nil function")
	}
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("pipeline: invalid input: %w", err)
	}
	start := time.Now()
	r, cancel := newRunner(ctx, "pipeline/run", n, h)
	defer cancel()
	r.span.SetAttr("method", n.Method)
	if n.TimeoutMs > 0 {
		r.span.SetAttrf("budget_timeout_ms", "%d", n.TimeoutMs)
	}
	defer func() { r.res.Elapsed = time.Since(start) }()
	serr := r.runStages(f, cs)
	r.finish(serr)
	if serr != nil {
		return r.res, serr
	}
	return r.res, nil
}

// runStages executes the three stages in order, stopping at the first
// unrecoverable failure.
func (r *runner) runStages(f *tt.Function, cs []*bitset.Census) *StageError {
	if serr := r.runAssign(f, cs); serr != nil {
		return serr
	}
	fa := f
	if r.res.Assign != nil {
		fa = r.res.Assign.Func
	}
	if serr := r.runSynth(fa); serr != nil {
		return serr
	}
	if !r.n.SkipVerify {
		if serr := r.runVerify(f, fa); serr != nil {
			return serr
		}
	}
	return nil
}

// interrupt returns a context-poll hook for the library Interrupt options.
func (r *runner) interrupt() error { return r.ctx.Err() }

// interruptBool adapts interrupt for the SAT solver's polling hook.
func (r *runner) interruptBool() bool { return r.ctx.Err() != nil }

// attempt runs fn for one ladder rung under panic recovery, firing the
// injection hook first, and classifies any failure into a *StageError.
// Every attempt is observable: one trace span ("stage/<rung>") plus a
// latency observation and attempt/failure counters labeled with the
// stage, the ladder rung, and (on failure) the StageError reason class.
func (r *runner) attempt(stage Stage, name string, fn func() error) (serr *StageError) {
	r.recordAttempt(stage, name)
	_, span := obs.StartSpan(r.ctx, "stage/"+name)
	began := time.Now()
	defer func() {
		if p := recover(); p != nil {
			serr = &StageError{
				Stage:   stage,
				Attempt: name,
				Reason:  ReasonPanic,
				Err:     fmt.Errorf("recovered panic: %v", p),
				Stack:   debug.Stack(),
			}
		}
		stageL, attemptL := obs.L("stage", string(stage)), obs.L("attempt", name)
		obs.Default.Histogram("relsyn_stage_duration_seconds", stageL, attemptL).
			Observe(time.Since(began).Seconds())
		obs.Default.Counter("relsyn_stage_attempts_total", stageL, attemptL).Inc()
		if serr != nil {
			obs.Default.Counter("relsyn_stage_failures_total", stageL, attemptL,
				obs.L("reason", string(serr.Reason))).Inc()
			span.SetAttr("reason", string(serr.Reason))
			span.SetAttr("error", serr.Err.Error())
		}
		span.End()
	}()
	if err := r.ctx.Err(); err != nil {
		return r.classify(stage, name, err)
	}
	if r.hooks.Inject != nil {
		if err := r.hooks.Inject(name); err != nil {
			return r.classify(stage, name, err)
		}
	}
	if err := fn(); err != nil {
		return r.classify(stage, name, err)
	}
	return nil
}

// classify maps an error to a StageError with the right Reason.
func (r *runner) classify(stage Stage, name string, err error) *StageError {
	reason := ReasonError
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		reason = ReasonCancel
	case errors.Is(err, ErrBudget),
		errors.Is(err, synth.ErrAIGBudget),
		errors.Is(err, sat.ErrBudget):
		reason = ReasonBudget
	}
	return &StageError{Stage: stage, Attempt: name, Reason: reason, Err: err}
}

// degrade decides whether cause may be absorbed by stepping down to the
// rung named to. It returns nil (and records the fallback) when
// degradation is allowed, or the terminal error otherwise.
func (r *runner) degrade(cause *StageError, to string) *StageError {
	if r.n.Strict || cause.Reason == ReasonCancel {
		return cause
	}
	r.res.Fallbacks = append(r.res.Fallbacks, Fallback{
		Stage: cause.Stage,
		From:  cause.Attempt,
		To:    to,
		Cause: cause,
	})
	obs.Default.Counter("relsyn_pipeline_fallbacks_total",
		obs.L("stage", string(cause.Stage)),
		obs.L("from", cause.Attempt),
		obs.L("to", to)).Inc()
	// Record the degradation event on the run span so -trace output shows
	// which rung replaced which.
	r.span.SetAttrf("fallback/"+cause.Attempt, "-> %s (%s)", to, cause.Reason)
	return nil
}

func (r *runner) recordAttempt(stage Stage, name string) {
	n := len(r.res.Stages)
	if n == 0 || r.res.Stages[n-1].Stage != stage {
		r.res.Stages = append(r.res.Stages, StageReport{Stage: stage})
		n++
	}
	r.res.Stages[n-1].Attempts = append(r.res.Stages[n-1].Attempts, name)
}

func (r *runner) finishStage(stage Stage, began time.Time) {
	for i := range r.res.Stages {
		if r.res.Stages[i].Stage == stage {
			r.res.Stages[i].Took = time.Since(began)
		}
	}
}

// --- assign stage ---

func (r *runner) runAssign(f *tt.Function, cs []*bitset.Census) *StageError {
	if r.n.Method == JobMethodNone {
		return nil
	}
	began := time.Now()
	defer r.finishStage(StageAssign, began)

	copt := core.Options{
		AssignTies:  r.n.AssignTies,
		Interrupt:   r.interrupt,
		Parallelism: r.n.Parallelism,
		Census:      cs,
	}
	return r.attempt(StageAssign, "assign/dense", func() error {
		var err error
		switch r.n.Method {
		case JobMethodRank:
			r.res.Assign, err = core.Ranking(f, r.n.Fraction, copt)
		case JobMethodLCF:
			r.res.Assign, err = core.LCF(f, r.n.Threshold, copt)
		case JobMethodComplete:
			r.res.Assign, err = core.CompleteCensus(f, cs)
		}
		return err
	})
}

// --- synth stage ---

// runSynth lowers the job's objective and budgets onto synth.Options and
// runs its flow: resyn degrades to sop, and sop has no rung below it.
func (r *runner) runSynth(fa *tt.Function) *StageError {
	began := time.Now()
	defer r.finishStage(StageSynth, began)

	sopt := synth.Options{
		Objective:   synth.OptimizePower,
		Interrupt:   r.interrupt,
		MaxAIGNodes: r.n.MaxAIGNodes,
		Parallelism: r.n.Parallelism,
	}
	if r.n.Objective == "delay" {
		sopt.Objective = synth.OptimizeDelay
	}
	runFlow := func(name string, flow synth.Flow) *StageError {
		return r.attempt(StageSynth, name, func() error {
			o := sopt
			o.Flow = flow
			res, err := synth.Synthesize(fa, o)
			if err != nil {
				return err
			}
			r.res.Synth = res
			return nil
		})
	}
	if r.n.Flow == "resyn" {
		serr := runFlow("synth/resyn", synth.FlowResyn)
		if serr == nil {
			return nil
		}
		if serr = r.degrade(serr, "synth/sop"); serr != nil {
			return serr
		}
	}
	return runFlow("synth/sop", synth.FlowSOP)
}

// --- verify stage ---

// runVerify simulates the mapped netlist — the circuit whose area,
// delay and power are reported — over all 2^n input vectors, reading
// only its gate list and the cells' truth tables (never the AIG it was
// mapped from), and checks every primary output against three things:
// the request spec f's on- and off-sets, the assigned function fa's care
// set, and Synth.Impl bit for bit, so the reported error rate is the
// netlist's own. A mismatch is terminal: there is no rung to degrade to.
func (r *runner) runVerify(f, fa *tt.Function) *StageError {
	began := time.Now()
	defer r.finishStage(StageVerify, began)
	return r.attempt(StageVerify, "verify/netlist", func() error {
		if err := checkNetlist(r.res.Synth.Netlist, f, fa, r.res.Synth.Impl, r.interrupt); err != nil {
			return err
		}
		r.res.Verified, r.res.VerifyMethod = true, "netlist"
		return nil
	})
}

// checkNetlist is the verify stage's check; poll runs between blocks.
func checkNetlist(nl *mapper.Result, f, fa, impl *tt.Function, poll func() error) error {
	sim, err := faultsim.NewSim(nl, f.NumIn)
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	if sim.NumPO() != f.NumOut() {
		return fmt.Errorf("verify: netlist has %d outputs, spec has %d", sim.NumPO(), f.NumOut())
	}
	return sim.Simulate(poll, func(w0 int, po [][]uint64) error {
		for o, v := range po {
			on, dc := f.Outs[o].On.Words()[w0:], f.Outs[o].DC.Words()[w0:]
			aon, adc := fa.Outs[o].On.Words()[w0:], fa.Outs[o].DC.Words()[w0:]
			im := impl.Outs[o].On.Words()[w0:]
			for w, x := range v {
				var what string
				var bad uint64
				switch {
				case on[w]&^x != 0:
					what, bad = "is 0 on an on-set minterm of the spec", on[w]&^x
				case x&^(on[w]|dc[w]) != 0:
					what, bad = "is 1 on an off-set minterm of the spec", x&^(on[w]|dc[w])
				case aon[w]&^x != 0:
					what, bad = "is 0 on an on-set minterm of the assigned function", aon[w]&^x
				case x&^(aon[w]|adc[w]) != 0:
					what, bad = "is 1 on an off-set minterm of the assigned function", x&^(aon[w]|adc[w])
				case x != im[w]:
					what, bad = "differs from the reported implementation", x^im[w]
				default:
					continue
				}
				return fmt.Errorf("verify: netlist output %d %s (minterm %d)",
					o, what, 64*(w0+w)+bits.TrailingZeros64(bad))
			}
		}
		return nil
	})
}
