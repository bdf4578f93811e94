// Command relsyn is the CLI front-end to the library: inspect .pla
// specifications, apply reliability-driven DC assignment, and run the
// synthesis flow.
//
// Usage:
//
//	relsyn stats  [-in spec.pla]
//	relsyn assign [-in spec.pla] [-out out.pla] -method rank|lcf|complete \
//	              [-fraction 0.5] [-threshold 0.55]
//	relsyn synth  [-in spec.pla] [-objective delay|power] [-flow sop|resyn]
//
// A benchmark name from the built-in suite (e.g. "ex1010") may be given
// via -bench instead of -in.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"relsyn"
	"relsyn/internal/census"
	"relsyn/internal/complexity"
	"relsyn/internal/estimate"
	"relsyn/internal/reliability"
)

// Exit codes (stable; documented in README):
//
//	0  success (including degraded runs — inspect stderr/-json for fallbacks)
//	1  hard failure: the run itself failed (I/O, spec, stage error)
//	2  usage: unknown subcommand/flag or invalid flag value
//	3  resource-limited: the run was stopped by a budget or timeout and
//	   could succeed with more resources (includes strict-mode refusals
//	   to degrade)
const (
	exitOK       = 0
	exitFailure  = 1
	exitUsage    = 2
	exitResource = 3
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(exitUsage)
	}
	var err error
	switch os.Args[1] {
	case "stats":
		err = runStats(os.Args[2:])
	case "assign":
		err = runAssign(os.Args[2:])
	case "synth":
		err = runSynth(os.Args[2:])
	case "verilog":
		err = runVerilog(os.Args[2:])
	case "decompose":
		err = runDecompose(os.Args[2:])
	case "resyn":
		err = runResyn(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "relsyn: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(exitUsage)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "relsyn: %v\n", err)
		os.Exit(exitCode(err))
	}
}

// usageError marks command-line mistakes (invalid flag values, unknown
// enum spellings) so main can exit 2, like flag-parse errors, instead of
// 1.
type usageError struct{ err error }

func (e usageError) Error() string { return e.err.Error() }
func (e usageError) Unwrap() error { return e.err }

func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

// exitCode classifies err per the table above.
func exitCode(err error) int {
	if err == nil {
		return exitOK
	}
	var ue usageError
	if errors.As(err, &ue) {
		return exitUsage
	}
	var se *relsyn.StageError
	if errors.As(err, &se) && se.Retryable() {
		return exitResource
	}
	return exitFailure
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  relsyn stats  [-in spec.pla | -bench name]
  relsyn assign [-in spec.pla | -bench name] [-out out.pla] -method rank|lcf|complete [-fraction F] [-threshold T]
  relsyn synth  [-in spec.pla | -bench name] [-objective delay|power] [-flow sop|resyn]
                [-method none|rank|lcf|complete] [-fraction F] [-threshold T]
                [-timeout D] [-max-aig-nodes N] [-strict] [-j N] [-json] [-trace]
  relsyn verilog [-in spec.pla | -bench name] [-module name] [-out file.v]
  relsyn decompose [-in spec.pla | -bench name] [-k 5] [-threshold 0.7] [-blif file.blif]
  relsyn resyn  [-in file.blif] [-out file.blif] [-threshold T]
                [-max-conflicts N] [-timeout D] [-strict] [-json]

exit codes: 0 ok, 1 failure, 2 usage, 3 resource-limited (budget/timeout)`)
}

// inputFlags registers the shared spec-source flags on fs.
func inputFlags(fs *flag.FlagSet) (in, bench *string) {
	in = fs.String("in", "", "input .pla file (default: stdin)")
	bench = fs.String("bench", "", "built-in benchmark name instead of -in")
	return in, bench
}

// checkFraction validates the -fraction flag: the assigned fraction of
// ranked DC minterms must lie in the closed interval [0, 1].
func checkFraction(v float64) error {
	if v < 0 || v > 1 {
		return usagef("-fraction must be in [0,1], got %g", v)
	}
	return nil
}

// checkThreshold validates the -threshold flag: LC^f thresholds are
// meaningful only strictly inside (0, 1).
func checkThreshold(v float64) error {
	if v <= 0 || v >= 1 {
		return usagef("-threshold must be in (0,1), got %g", v)
	}
	return nil
}

// checkK validates the -k flag: the node fanin bound must be at least 1.
func checkK(k int) error {
	if k < 1 {
		return usagef("-k must be >= 1, got %d", k)
	}
	return nil
}

func loadSpec(in, bench string) (*relsyn.Function, error) {
	if bench != "" {
		return relsyn.LoadBenchmark(bench)
	}
	var r io.Reader = os.Stdin
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return relsyn.ParsePLA(f)
	}
	return relsyn.ParsePLA(r)
}

func runStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	in, bench := inputFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	f, err := loadSpec(*in, *bench)
	if err != nil {
		return err
	}
	// One census per output feeds the bounds, the border estimate and
	// C^f alike.
	ctx := context.Background()
	fc, err := census.Compute(ctx, f, 0)
	if err != nil {
		return err
	}
	lo, hi, err := reliability.BoundsMeanCensusCtx(ctx, f, fc.Outs, 0)
	if err != nil {
		return err
	}
	sig, err := estimate.SignalBasedMean(f)
	if err != nil {
		return err
	}
	bor, err := estimate.BorderBasedMean(f, fc.Outs)
	if err != nil {
		return err
	}
	cf, err := complexity.FactorMean(fc.Outs)
	if err != nil {
		return err
	}
	ecf, err := complexity.ExpectedMean(f)
	if err != nil {
		return err
	}
	fmt.Printf("inputs            %d\n", f.NumIn)
	fmt.Printf("outputs           %d\n", f.NumOut())
	fmt.Printf("%%DC               %.1f\n", 100*f.DCFraction())
	fmt.Printf("C^f               %.3f\n", cf)
	fmt.Printf("E[C^f]            %.3f\n", ecf)
	fmt.Printf("exact bounds      [%.3f, %.3f]\n", lo, hi)
	fmt.Printf("signal estimate   [%.3f, %.3f]\n", sig.Min, sig.Max)
	fmt.Printf("border estimate   [%.3f, %.3f]\n", bor.Min, bor.Max)
	return nil
}

func runAssign(args []string) error {
	fs := flag.NewFlagSet("assign", flag.ExitOnError)
	in, bench := inputFlags(fs)
	out := fs.String("out", "", "output .pla file (default: stdout)")
	method := fs.String("method", "rank", "assignment method: rank, lcf, or complete")
	fraction := fs.Float64("fraction", 0.5, "fraction of ranked DCs to assign (rank)")
	threshold := fs.Float64("threshold", 0.55, "LC^f threshold (lcf)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkFraction(*fraction); err != nil {
		return err
	}
	if err := checkThreshold(*threshold); err != nil {
		return err
	}
	f, err := loadSpec(*in, *bench)
	if err != nil {
		return err
	}
	var res *relsyn.AssignResult
	switch *method {
	case "rank":
		res, err = relsyn.RankingAssign(f, *fraction)
	case "lcf":
		res, err = relsyn.LCFAssign(f, *threshold)
	case "complete":
		res = relsyn.CompleteAssign(f)
	default:
		return usagef("unknown method %q", *method)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "assigned %d of %d DC minterms (%.1f%%)\n",
		len(res.Assigned), res.TotalDCs, 100*res.FractionAssigned())
	w := os.Stdout
	if *out != "" {
		file, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer file.Close()
		w = file
	}
	return relsyn.WritePLA(w, res.Func)
}

// stageFailure renders a pipeline stage error in the CLI's message
// format while keeping the typed *StageError reachable for exit-code
// classification via errors.As.
type stageFailure struct{ se *relsyn.StageError }

func (e stageFailure) Error() string {
	return fmt.Sprintf("stage %s failed (%s, attempt %s): %v",
		e.se.Stage, e.se.Reason, e.se.Attempt, e.se.Err)
}

func (e stageFailure) Unwrap() error { return e.se }

// synthEnvelope is the machine-readable wrapper printed by `synth
// -json`: the same JobResult struct the relsynd HTTP API returns, plus
// the server's status vocabulary ("done" / "failed").
type synthEnvelope struct {
	Status string            `json:"status"`
	Result *relsyn.JobResult `json:"result,omitempty"`
	Error  string            `json:"error,omitempty"`
}

func runSynth(args []string) error {
	fs := flag.NewFlagSet("synth", flag.ExitOnError)
	in, bench := inputFlags(fs)
	objective := fs.String("objective", "power", "optimization objective: delay or power")
	flow := fs.String("flow", "sop", "synthesis flow: sop or resyn")
	method := fs.String("method", "none", "DC assignment before synthesis: none, rank, lcf, or complete")
	fraction := fs.Float64("fraction", 0.5, "fraction of ranked DCs to assign (rank)")
	threshold := fs.Float64("threshold", 0.55, "LC^f threshold (lcf)")
	timeout := fs.Duration("timeout", 0, "wall-clock budget for the whole run (0 = unlimited)")
	maxAIG := fs.Int("max-aig-nodes", 0, "AIG node budget for synthesis (0 = unlimited)")
	strict := fs.Bool("strict", false, "fail on budget exhaustion instead of degrading")
	jsonOut := fs.Bool("json", false, "print the result as JSON (the relsynd wire format)")
	trace := fs.Bool("trace", false, "print the span tree of the run to stderr")
	jobs := fs.Int("j", 0, "worker parallelism for per-output analysis (0 = GOMAXPROCS, 1 = sequential)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *jobs < 0 {
		return usagef("-j must be >= 0, got %d", *jobs)
	}
	if err := checkFraction(*fraction); err != nil {
		return err
	}
	if err := checkThreshold(*threshold); err != nil {
		return err
	}
	switch *method {
	case "none", "rank", "lcf", "complete":
	default:
		return usagef("unknown method %q", *method)
	}
	switch *objective {
	case "delay", "power":
	default:
		return usagef("unknown objective %q", *objective)
	}
	switch *flow {
	case "sop", "resyn":
	default:
		return usagef("unknown flow %q", *flow)
	}
	f, err := loadSpec(*in, *bench)
	if err != nil {
		return err
	}
	jo := relsyn.JobOptions{
		Method:      *method,
		Objective:   *objective,
		Flow:        *flow,
		Strict:      *strict,
		MaxAIGNodes: *maxAIG,
		Parallelism: *jobs,
	}
	switch *method {
	case "rank":
		jo.Fraction = *fraction
	case "lcf":
		jo.Threshold = *threshold
	}
	// The CLI enforces -timeout via a context deadline rather than the
	// wire field timeout_ms, preserving sub-millisecond budgets exactly.
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var root *relsyn.Span
	if *trace {
		ctx, root = relsyn.WithTrace(ctx, "cli/synth")
	}

	jr, err := relsyn.RunJob(ctx, f, jo)
	if root != nil {
		root.End()
		if rerr := root.Render(os.Stderr); rerr != nil {
			return rerr
		}
	}
	if *jsonOut {
		env := synthEnvelope{Status: "done", Result: jr}
		if err != nil {
			env.Status, env.Error = "failed", err.Error()
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if encErr := enc.Encode(env); encErr != nil {
			return encErr
		}
	}
	if err != nil {
		reportFallbacks(jr)
		var se *relsyn.StageError
		if errors.As(err, &se) {
			return stageFailure{se}
		}
		return err
	}
	if *jsonOut {
		return nil
	}
	m := jr.Metrics
	fmt.Printf("area        %.2f\n", m.Area)
	fmt.Printf("delay       %.1f ps\n", m.DelayPs)
	fmt.Printf("power       %.2f\n", m.Power)
	fmt.Printf("gates       %d\n", m.Gates)
	fmt.Printf("literals    %d\n", m.Literals)
	fmt.Printf("aig nodes   %d (depth %d)\n", m.AIGNodes, m.AIGDepth)
	fmt.Printf("error rate  %.4f\n", jr.ErrorRate)
	fmt.Printf("verified    %v (%s)\n", jr.Verified, jr.VerifyMethod)
	reportFallbacks(jr)
	return nil
}

// reportFallbacks prints each degradation-ladder step a pipeline run took
// to stderr, so scripted callers parsing stdout metrics stay unaffected.
func reportFallbacks(jr *relsyn.JobResult) {
	if jr == nil {
		return
	}
	for _, fb := range jr.Fallbacks {
		fmt.Fprintf(os.Stderr, "fallback    %s: %s -> %s (%s)\n",
			fb.Stage, fb.From, fb.To, fb.Reason)
	}
}

func runDecompose(args []string) error {
	fs := flag.NewFlagSet("decompose", flag.ExitOnError)
	in, bench := inputFlags(fs)
	k := fs.Int("k", 5, "node fanin bound (2..6)")
	threshold := fs.Float64("threshold", 0.7, "LC^f threshold for internal reassignment")
	blifOut := fs.String("blif", "", "write reassigned network as BLIF to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkK(*k); err != nil {
		return err
	}
	if err := checkThreshold(*threshold); err != nil {
		return err
	}
	f, err := loadSpec(*in, *bench)
	if err != nil {
		return err
	}
	res, err := relsyn.Synthesize(f, relsyn.SynthOptions{Objective: relsyn.OptimizePower})
	if err != nil {
		return err
	}
	conv, err := relsyn.Decompose(res.Graph, *k)
	if err != nil {
		return err
	}
	rel, err := relsyn.Decompose(res.Graph, *k)
	if err != nil {
		return err
	}
	if err := conv.CompleteConventionalAll(); err != nil {
		return err
	}
	assigned, err := rel.ReassignLCF(*threshold, nil)
	if err != nil {
		return err
	}
	fmt.Printf("nodes                %d (k=%d)\n", conv.NumNodes(), *k)
	fmt.Printf("internal DCs bound   %d\n", assigned)
	fmt.Printf("node-output err rate %.4f -> %.4f\n", conv.InternalErrorRate(), rel.InternalErrorRate())
	fmt.Printf("node-input err rate  %.4f -> %.4f\n", conv.InputErrorRate(), rel.InputErrorRate())
	fmt.Printf("SOP literals         %d -> %d\n", conv.TotalLiterals(), rel.TotalLiterals())
	if *blifOut != "" {
		file, err := os.Create(*blifOut)
		if err != nil {
			return err
		}
		defer file.Close()
		if err := relsyn.WriteBLIF(file, rel, "relsyn"); err != nil {
			return err
		}
		fmt.Printf("BLIF written to      %s\n", *blifOut)
	}
	return nil
}

// resynEnvelope is the machine-readable wrapper printed by `resyn
// -json`: the same NetworkJobResult struct the relsynd /v1/resyn
// endpoint returns, plus the server's status vocabulary.
type resynEnvelope struct {
	Status string                   `json:"status"`
	Result *relsyn.NetworkJobResult `json:"result,omitempty"`
	Error  string                   `json:"error,omitempty"`
}

// runResyn reassigns the internal don't-cares of a BLIF network: parse,
// extract per-node DCs (exhaustively up to tt.MaxInputs primary inputs,
// with windowed SAT above that), bind those below the LC^f threshold,
// and emit the rewritten — provably PO-equivalent — network as BLIF.
func runResyn(args []string) error {
	fs := flag.NewFlagSet("resyn", flag.ExitOnError)
	in := fs.String("in", "", "input .blif file (default: stdin)")
	out := fs.String("out", "", "output .blif file for the reassigned network")
	threshold := fs.Float64("threshold", 0.55, "LC^f threshold for internal reassignment")
	maxConflicts := fs.Int64("max-conflicts", 0, "per-node SAT conflict budget of the windowed DC extraction; bounds network (resyn) jobs only (0 = default)")
	timeout := fs.Duration("timeout", 0, "wall-clock budget for the whole run (0 = unlimited)")
	strict := fs.Bool("strict", false, "fail on budget exhaustion instead of degrading")
	jsonOut := fs.Bool("json", false, "print the result as JSON (the relsynd wire format)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkThreshold(*threshold); err != nil {
		return err
	}
	var r io.Reader = os.Stdin
	if *in != "" {
		file, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer file.Close()
		r = file
	}
	nw, err := relsyn.ParseBLIF(r)
	if err != nil {
		return err
	}
	jo := relsyn.JobOptions{
		Method:       "lcf",
		Threshold:    *threshold,
		MaxConflicts: *maxConflicts,
		Strict:       *strict,
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	jr, err := relsyn.RunNetworkJob(ctx, nw, jo)
	if *jsonOut {
		env := resynEnvelope{Status: "done", Result: jr}
		if err != nil {
			env.Status, env.Error = "failed", err.Error()
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if encErr := enc.Encode(env); encErr != nil {
			return encErr
		}
	}
	if err != nil {
		reportNetFallbacks(jr)
		var se *relsyn.StageError
		if errors.As(err, &se) {
			return stageFailure{se}
		}
		return err
	}
	if !*jsonOut {
		fmt.Printf("inputs           %d\n", jr.NumPI)
		fmt.Printf("outputs          %d\n", jr.NumPO)
		fmt.Printf("nodes            %d\n", jr.Nodes)
		fmt.Printf("dc mode          %s\n", jr.DCMode)
		fmt.Printf("DCs bound        %d\n", jr.Assigned)
		if jr.Windows > 0 {
			fmt.Printf("windows          %d (%d SAT calls, %d budget-exhausted)\n",
				jr.Windows, jr.SATCalls, jr.BudgetExhausted)
		}
		fmt.Printf("SOP literals     %d -> %d\n", jr.LiteralsBefore, jr.LiteralsAfter)
		fmt.Printf("PO-equivalent    %v (%s)\n", jr.Equivalent, jr.CECMethod)
	}
	reportNetFallbacks(jr)
	if *out != "" {
		file, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer file.Close()
		if err := relsyn.WriteBLIF(file, jr.Network, "relsyn"); err != nil {
			return err
		}
		if !*jsonOut {
			fmt.Printf("BLIF written to  %s\n", *out)
		}
	}
	return nil
}

// reportNetFallbacks mirrors reportFallbacks for network jobs.
func reportNetFallbacks(jr *relsyn.NetworkJobResult) {
	if jr == nil {
		return
	}
	for _, fb := range jr.Fallbacks {
		fmt.Fprintf(os.Stderr, "fallback    %s: %s -> %s (%s)\n",
			fb.Stage, fb.From, fb.To, fb.Reason)
	}
}

func runVerilog(args []string) error {
	fs := flag.NewFlagSet("verilog", flag.ExitOnError)
	in, bench := inputFlags(fs)
	module := fs.String("module", "top", "Verilog module name")
	out := fs.String("out", "", "output .v file (default: stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	f, err := loadSpec(*in, *bench)
	if err != nil {
		return err
	}
	res, err := relsyn.Synthesize(f, relsyn.SynthOptions{Objective: relsyn.OptimizePower})
	if err != nil {
		return err
	}
	w := os.Stdout
	if *out != "" {
		file, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer file.Close()
		w = file
	}
	return res.Netlist.WriteVerilog(w, *module, f.NumIn)
}
