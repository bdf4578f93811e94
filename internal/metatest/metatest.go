// Package metatest is a metamorphic test harness for the synthesis
// flow: instead of pinning exact outputs (which shift whenever a
// heuristic is tuned), it checks relations that must hold for every
// (benchmark, method) combination no matter how the heuristics evolve:
//
//  1. Care-set equivalence — the synthesized implementation agrees with
//     the specification on every care minterm (DC assignment may only
//     spend don't-cares, never flip specified behavior).
//  2. Exact-bound bracketing — the implementation's exact error rate
//     lies within the specification's analytically derived
//     [ErrorRateMin, ErrorRateMax] interval (paper §5): no DC
//     assignment can escape the bounds.
//  3. Ranking-fraction extremes — fraction 0 is a no-op (nothing
//     assigned, function unchanged) and fraction 1 leaves no
//     reliability-rankable DC unassigned.
//  4. Complexity-threshold monotonicity — raising the LC^f threshold
//     never assigns fewer DC minterms (the paper's Fig. 7 predicate is
//     "assign iff LC^f < threshold", so the assigned set grows with the
//     threshold).
//  5. Parallel ≡ sequential — every analysis and synthesis kernel that
//     fans per-output work through internal/par (for the spec-side
//     metrics, the census build they read) produces bit-identical
//     results (exact float equality, identical assignments, identical
//     netlist metrics) at every worker count. Parallelism is an
//     execution knob, never an answer knob.
//  6. Census ≡ scalar oracle — the one-pass fused neighbor census
//     (bitset.Census, shared through internal/census) serves every
//     spec-side quantity — exact pair counts and bounds, border counts,
//     C^f and the LC^f fold, the Poisson border estimate, and the
//     ranking, LC^f and complete assignment passes — bit for bit
//     against the scalar oracle in oracle.go, which shares no code
//     with it: identical integers, exact float equality (==),
//     identical assignments including ranking weights. ErrorRate's
//     fused popcount, the one analysis kernel outside the census (it
//     measures the implementation), is held to the same oracle.
//  7. Windowed ⊆ exhaustive don't-cares — for every node of a
//     k-feasible network, the per-node spec computed by the windowed
//     SAT engine (internal/network NewDCExtractor(...).LocalSpec) at
//     any window depth marks a subset of the don't-cares the
//     exhaustive whole-network simulation (LocalSpec) marks, never
//     flips a care phase, and at full window depth reproduces the
//     exhaustive spec exactly. The window is a soundness-preserving restriction, never
//     a different answer.
//
// The harness is a plain library (returning errors, not calling
// testing.T) so the same checks can back tests, fuzzing, and one-off
// audits. internal/metatest's own test file sweeps every
// internal/benchmarks circuit against every assignment method.
package metatest

import (
	"context"
	"fmt"

	"relsyn/internal/bitset"
	"relsyn/internal/census"
	"relsyn/internal/complexity"
	"relsyn/internal/core"
	"relsyn/internal/estimate"
	"relsyn/internal/network"
	"relsyn/internal/par"
	"relsyn/internal/reliability"
	"relsyn/internal/synth"
	"relsyn/internal/tt"
)

// Method is one named don't-care assignment strategy under test. Apply
// returns the (partially) bound function to hand to synthesis; it must
// not mutate its input.
type Method struct {
	Name  string
	Apply func(f *tt.Function) (*tt.Function, error)
}

// Methods returns the assignment strategies the sweep covers: the
// conventional baseline plus each of the paper's reliability-driven
// algorithms at a representative operating point.
func Methods() []Method {
	return []Method{
		{Name: "none", Apply: func(f *tt.Function) (*tt.Function, error) {
			return f.Clone(), nil
		}},
		{Name: "rank-0.5", Apply: func(f *tt.Function) (*tt.Function, error) {
			res, err := core.Ranking(f, 0.5, core.Options{})
			if err != nil {
				return nil, err
			}
			return res.Func, nil
		}},
		{Name: "lcf-0.55", Apply: func(f *tt.Function) (*tt.Function, error) {
			res, err := core.LCF(f, 0.55, core.Options{})
			if err != nil {
				return nil, err
			}
			return res.Func, nil
		}},
		{Name: "complete", Apply: func(f *tt.Function) (*tt.Function, error) {
			return core.Complete(f).Func, nil
		}},
	}
}

// Synthesize runs the full conventional flow on f (espresso, factoring,
// AIG optimization, mapping) and returns the completely specified
// function the netlist computes.
func Synthesize(f *tt.Function) (*tt.Function, error) {
	res, err := synth.Synthesize(f, synth.Options{})
	if err != nil {
		return nil, err
	}
	return res.Impl, nil
}

// CheckCareSet verifies property 1: impl matches spec on every care
// minterm of every output (combinational equivalence restricted to the
// care set; the DCs are the only freedom synthesis has).
func CheckCareSet(spec, impl *tt.Function) error {
	if spec.NumIn != impl.NumIn || spec.NumOut() != impl.NumOut() {
		return fmt.Errorf("dimension mismatch: spec %d/%d vs impl %d/%d",
			spec.NumIn, spec.NumOut(), impl.NumIn, impl.NumOut())
	}
	size := spec.Size()
	for o := 0; o < spec.NumOut(); o++ {
		for m := 0; m < size; m++ {
			want := spec.Phase(o, m)
			if want == tt.DC {
				continue
			}
			if got := impl.Phase(o, m); got != want {
				return fmt.Errorf("output %d minterm %d: spec %v, impl %v",
					o, m, want, got)
			}
		}
	}
	return nil
}

// boundsEps absorbs float summation order differences between the bound
// and error-rate computations; the quantities themselves are exact
// rationals over n·2^n events.
const boundsEps = 1e-9

// CheckErrorRateBounds verifies property 2: the exact error rate of
// impl against spec lies within spec's [min, max] achievable interval.
func CheckErrorRateBounds(spec, impl *tt.Function) error {
	ctx := context.Background()
	fc, err := census.Compute(ctx, spec, 0)
	if err != nil {
		return err
	}
	lo, hi, err := reliability.BoundsMeanCensusCtx(ctx, spec, fc.Outs, 0)
	if err != nil {
		return err
	}
	er, err := reliability.ErrorRateMeanCtx(ctx, spec, impl, 0)
	if err != nil {
		return err
	}
	if er < lo-boundsEps || er > hi+boundsEps {
		return fmt.Errorf("error rate %.12f outside exact bounds [%.12f, %.12f]", er, lo, hi)
	}
	return nil
}

// CheckRankingExtremes verifies property 3 on spec: fraction 0 assigns
// nothing and returns an identical function; fraction 1 assigns every
// rankable DC minterm (RankableCounts is the per-output census of DCs
// with at least one specified neighbor — the only ones ranking may
// bind).
func CheckRankingExtremes(spec *tt.Function) error {
	zero, err := core.Ranking(spec, 0, core.Options{})
	if err != nil {
		return err
	}
	if len(zero.Assigned) != 0 {
		return fmt.Errorf("fraction=0 assigned %d minterms, want 0", len(zero.Assigned))
	}
	if !zero.Func.Equal(spec) {
		return fmt.Errorf("fraction=0 modified the function")
	}

	one, err := core.Ranking(spec, 1, core.Options{})
	if err != nil {
		return err
	}
	counts, err := core.RankableCounts(spec, core.Options{})
	if err != nil {
		return err
	}
	rankable := 0
	for _, c := range counts {
		rankable += c
	}
	if len(one.Assigned) != rankable {
		return fmt.Errorf("fraction=1 assigned %d of %d rankable DC minterms",
			len(one.Assigned), rankable)
	}
	return nil
}

// CheckLCFMonotonic verifies property 4 on spec: sweeping the LC^f
// threshold upward through thresholds (which must be ascending, each in
// (0,1)) never decreases the number of assigned DC minterms.
// ParallelReference bundles the sequential (parallelism 1) results of
// every kernel CheckParallelEquivalence compares, so one reference can
// be reused across worker counts.
type ParallelReference struct {
	BoundsLo, BoundsHi float64
	Cf                 float64
	Signal, Border     estimate.Bounds
	Rank               *core.Result
	LCF                *core.Result
	Impl               *tt.Function
	Metrics            synth.Metrics
	ErrorRate          float64
}

// parallelOperatingPoint pins the assignment knobs the equivalence sweep
// exercises (representative mid-range values, same as Methods()).
const (
	parEquivFraction  = 0.5
	parEquivThreshold = 0.55
)

// ParallelBaseline computes the sequential reference for property 5 on
// spec.
func ParallelBaseline(spec *tt.Function) (*ParallelReference, error) {
	ref := &ParallelReference{}
	ctx := context.Background()
	fc, err := census.Compute(ctx, spec, 1)
	if err != nil {
		return nil, err
	}
	if ref.BoundsLo, ref.BoundsHi, err = reliability.BoundsMeanCensusCtx(ctx, spec, fc.Outs, 1); err != nil {
		return nil, err
	}
	if ref.Cf, err = complexity.FactorMean(fc.Outs); err != nil {
		return nil, err
	}
	if ref.Signal, err = estimate.SignalBasedMean(spec); err != nil {
		return nil, err
	}
	if ref.Border, err = estimate.BorderBasedMean(spec, fc.Outs); err != nil {
		return nil, err
	}
	if ref.Rank, err = core.Ranking(spec, parEquivFraction, core.Options{Parallelism: 1}); err != nil {
		return nil, err
	}
	if ref.LCF, err = core.LCF(spec, parEquivThreshold, core.Options{Parallelism: 1}); err != nil {
		return nil, err
	}
	res, err := synth.Synthesize(spec, synth.Options{Parallelism: 1})
	if err != nil {
		return nil, err
	}
	ref.Impl, ref.Metrics = res.Impl, res.Metrics
	ref.ErrorRate, err = reliability.ErrorRateMeanCtx(ctx, spec, res.Impl, 1)
	if err != nil {
		return nil, err
	}
	return ref, nil
}

// CheckParallelEquivalence verifies property 5 on spec at worker count
// p: every parallelized kernel reproduces the sequential reference ref
// bit for bit. The spec-side metrics read a census built at p workers
// (census.Compute is where their worker count applies). Float
// comparisons are exact (==), not within an epsilon: the pool writes
// results into index-addressed slots and reduces them in index order,
// so summation order — and therefore every bit of the result — is
// independent of the worker count.
func CheckParallelEquivalence(spec *tt.Function, ref *ParallelReference, p int) error {
	ctx := context.Background()
	fc, err := census.Compute(ctx, spec, p)
	if err != nil {
		return err
	}
	lo, hi, err := reliability.BoundsMeanCensusCtx(ctx, spec, fc.Outs, p)
	if err != nil {
		return err
	}
	if lo != ref.BoundsLo || hi != ref.BoundsHi {
		return fmt.Errorf("BoundsMean(p=%d) = [%v, %v], sequential [%v, %v]",
			p, lo, hi, ref.BoundsLo, ref.BoundsHi)
	}
	cf, err := complexity.FactorMean(fc.Outs)
	if err != nil {
		return err
	}
	if cf != ref.Cf {
		return fmt.Errorf("FactorMean(p=%d) = %v, sequential %v", p, cf, ref.Cf)
	}
	sig, err := estimate.SignalBasedMean(spec)
	if err != nil {
		return err
	}
	if sig != ref.Signal {
		return fmt.Errorf("SignalBasedMean(p=%d) = %+v, sequential %+v", p, sig, ref.Signal)
	}
	bor, err := estimate.BorderBasedMean(spec, fc.Outs)
	if err != nil {
		return err
	}
	if bor != ref.Border {
		return fmt.Errorf("BorderBasedMean(p=%d) = %+v, sequential %+v", p, bor, ref.Border)
	}
	rank, err := core.Ranking(spec, parEquivFraction, core.Options{Parallelism: p})
	if err != nil {
		return err
	}
	if !rank.Func.Equal(ref.Rank.Func) || len(rank.Assigned) != len(ref.Rank.Assigned) {
		return fmt.Errorf("Ranking(p=%d) diverged from sequential (assigned %d vs %d)",
			p, len(rank.Assigned), len(ref.Rank.Assigned))
	}
	lcf, err := core.LCF(spec, parEquivThreshold, core.Options{Parallelism: p})
	if err != nil {
		return err
	}
	if !lcf.Func.Equal(ref.LCF.Func) || len(lcf.Assigned) != len(ref.LCF.Assigned) {
		return fmt.Errorf("LCF(p=%d) diverged from sequential (assigned %d vs %d)",
			p, len(lcf.Assigned), len(ref.LCF.Assigned))
	}
	res, err := synth.Synthesize(spec, synth.Options{Parallelism: p})
	if err != nil {
		return err
	}
	if !res.Impl.Equal(ref.Impl) {
		return fmt.Errorf("Synthesize(p=%d) produced a different implementation", p)
	}
	if res.Metrics != ref.Metrics {
		return fmt.Errorf("Synthesize(p=%d) metrics %+v, sequential %+v", p, res.Metrics, ref.Metrics)
	}
	er, err := reliability.ErrorRateMeanCtx(ctx, spec, res.Impl, p)
	if err != nil {
		return err
	}
	if er != ref.ErrorRate {
		return fmt.Errorf("ErrorRateMean(p=%d) = %v, sequential %v", p, er, ref.ErrorRate)
	}
	return nil
}

// OracleReference bundles the scalar-oracle results (oracle.go) of
// every quantity property 6 checks, so one baseline can be reused
// across worker counts.
type OracleReference struct {
	Counts    []reliability.Counts  // exact pair counts per output
	BoundsLo  []float64             // exact min error rate per output
	BoundsHi  []float64             // exact max error rate per output
	Borders   []reliability.Borders // border counts per output
	Factor    []float64             // C^f per output
	Border    []estimate.Bounds     // Poisson border estimate per output
	Local     [][]float64           // LC^f per output per minterm
	ErrorRate []float64             // impl-vs-spec error rate per output
	SelfRate  []float64             // impl self error rate per output
	Rank      *core.Result          // ranking at parEquivFraction
	LCF       *core.Result          // LC^f assignment at parEquivThreshold
	Complete  *core.Result          // complete assignment
	Impl      *tt.Function          // synthesized implementation measured above
}

// OracleBaseline computes the scalar reference for property 6 on spec.
func OracleBaseline(spec *tt.Function) (*OracleReference, error) {
	impl, err := Synthesize(spec)
	if err != nil {
		return nil, err
	}
	nOut := spec.NumOut()
	ref := &OracleReference{
		Counts:    make([]reliability.Counts, nOut),
		BoundsLo:  make([]float64, nOut),
		BoundsHi:  make([]float64, nOut),
		Borders:   make([]reliability.Borders, nOut),
		Factor:    make([]float64, nOut),
		Border:    make([]estimate.Bounds, nOut),
		Local:     make([][]float64, nOut),
		ErrorRate: make([]float64, nOut),
		SelfRate:  make([]float64, nOut),
		Rank:      RankingScalar(spec, parEquivFraction, false),
		LCF:       LCFScalar(spec, parEquivThreshold, false),
		Complete:  CompleteScalar(spec),
		Impl:      impl,
	}
	for o := 0; o < nOut; o++ {
		ref.Counts[o] = ExactCountsScalar(spec, o)
		ref.BoundsLo[o], ref.BoundsHi[o] = BoundsScalar(spec, o)
		ref.Borders[o] = CountBordersScalar(spec, o)
		ref.Factor[o] = FactorScalar(spec, o)
		ref.Border[o] = BorderBasedScalar(spec, o)
		ref.Local[o] = LocalAllScalar(spec, o)
		ref.ErrorRate[o] = ErrorRateScalar(spec, impl, o)
		ref.SelfRate[o] = ErrorRateScalar(impl, impl, o)
	}
	return ref, nil
}

// sameAssignments compares two assignment passes decision for decision,
// including the ranking weights recorded at decision time.
func sameAssignments(what string, got, want *core.Result) error {
	if !got.Func.Equal(want.Func) {
		return fmt.Errorf("%s: bound different minterms than the oracle", what)
	}
	if got.TotalDCs != want.TotalDCs {
		return fmt.Errorf("%s: counted %d DCs, oracle %d", what, got.TotalDCs, want.TotalDCs)
	}
	if len(got.Assigned) != len(want.Assigned) {
		return fmt.Errorf("%s: assigned %d minterms, oracle %d",
			what, len(got.Assigned), len(want.Assigned))
	}
	for i := range got.Assigned {
		if got.Assigned[i] != want.Assigned[i] {
			return fmt.Errorf("%s: assignment %d diverged: got %+v, oracle %+v",
				what, i, got.Assigned[i], want.Assigned[i])
		}
	}
	return nil
}

// CheckCensusEquivalence verifies property 6 on spec at worker count p:
// the fused neighbor census reproduces the scalar reference ref bit for
// bit through every consumer — exact pair counts, bounds, border
// counts, C^f, the LC^f fold, the Poisson border estimate, and the
// ranking, LC^f and complete assignment passes including recorded
// weights. The assignment passes are checked twice: served from the
// census computed here (as RunJob serves it) and with none supplied,
// when they build their own. All float comparisons are exact (==): the
// census carries the same integer event counts the oracle accumulates,
// divided once at the end. The censuses are computed fresh per call,
// never through the process-global census engine, so the sweep is
// deterministic and race-free under t.Parallel.
func CheckCensusEquivalence(spec *tt.Function, ref *OracleReference, p int) error {
	ctx := context.Background()
	fc, err := census.Compute(ctx, spec, p)
	if err != nil {
		return err
	}
	err = par.Do(ctx, p, spec.NumOut(), func(o int) error {
		c := fc.Outs[o]
		if got := reliability.ExactCounts(c); got != ref.Counts[o] {
			return fmt.Errorf("output %d: ExactCounts %+v, oracle %+v", o, got, ref.Counts[o])
		}
		if lo, hi := reliability.Bounds(c); lo != ref.BoundsLo[o] || hi != ref.BoundsHi[o] {
			return fmt.Errorf("output %d: Bounds [%v, %v], oracle [%v, %v]",
				o, lo, hi, ref.BoundsLo[o], ref.BoundsHi[o])
		}
		if b := reliability.CountBorders(c); b != ref.Borders[o] {
			return fmt.Errorf("output %d: CountBorders %+v, oracle %+v", o, b, ref.Borders[o])
		}
		if cf := complexity.Factor(c); cf != ref.Factor[o] {
			return fmt.Errorf("output %d: Factor %v, oracle %v", o, cf, ref.Factor[o])
		}
		if eb := estimate.BorderBased(spec, o, c); eb != ref.Border[o] {
			return fmt.Errorf("output %d: BorderBased %+v, oracle %+v", o, eb, ref.Border[o])
		}
		local := complexity.LocalAll(c)
		if len(local) != len(ref.Local[o]) {
			return fmt.Errorf("output %d: LocalAll length %d, oracle %d",
				o, len(local), len(ref.Local[o]))
		}
		for m := range local {
			if local[m] != ref.Local[o][m] {
				return fmt.Errorf("output %d minterm %d: LC^f %v, oracle %v",
					o, m, local[m], ref.Local[o][m])
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, cs := range [][]*bitset.Census{fc.Outs, nil} {
		lane := "census"
		if cs == nil {
			lane = "per call"
		}
		opt := core.Options{Census: cs, Parallelism: p}
		rank, err := core.Ranking(spec, parEquivFraction, opt)
		if err != nil {
			return err
		}
		if err := sameAssignments(fmt.Sprintf("Ranking(%s, p=%d)", lane, p), rank, ref.Rank); err != nil {
			return err
		}
		lcf, err := core.LCF(spec, parEquivThreshold, opt)
		if err != nil {
			return err
		}
		if err := sameAssignments(fmt.Sprintf("LCF(%s, p=%d)", lane, p), lcf, ref.LCF); err != nil {
			return err
		}
		comp, err := core.CompleteCensus(spec, cs)
		if err != nil {
			return err
		}
		if err := sameAssignments("Complete("+lane+")", comp, ref.Complete); err != nil {
			return err
		}
	}
	return nil
}

// CheckKernelEquivalence verifies the other half of property 6 on spec
// at worker count p: ErrorRate's fused-popcount kernel, the one
// analysis body with no census (it measures the implementation),
// reproduces the scalar reference ref bit for bit, against the spec's
// care set and against the implementation's own. The per-output scans
// run through internal/par at parallelism p, so under -race this also
// proves the kernel is safe to fan out.
func CheckKernelEquivalence(spec *tt.Function, ref *OracleReference, p int) error {
	return par.Do(context.Background(), p, spec.NumOut(), func(o int) error {
		er, err := reliability.ErrorRate(spec, ref.Impl, o)
		if err != nil {
			return err
		}
		if er != ref.ErrorRate[o] {
			return fmt.Errorf("output %d: ErrorRate %v, oracle %v", o, er, ref.ErrorRate[o])
		}
		sr, err := reliability.ErrorRate(ref.Impl, ref.Impl, o)
		if err != nil {
			return err
		}
		if sr != ref.SelfRate[o] {
			return fmt.Errorf("output %d: self ErrorRate %v, oracle %v", o, sr, ref.SelfRate[o])
		}
		return nil
	})
}

// BuildNetwork lowers spec into a k-feasible multi-level network via the
// conventional synthesis flow — the network form property 7 ranges
// over.
func BuildNetwork(spec *tt.Function, k int) (*network.Network, error) {
	res, err := synth.Synthesize(spec, synth.Options{})
	if err != nil {
		return nil, err
	}
	return network.FromAIG(res.Graph, k)
}

// CheckWindowedDCSubset verifies property 7 on nw at window depths opt:
// for every checked node, the windowed SAT spec (a) agrees with the
// exhaustive whole-network simulation spec on every minterm the window
// marks as care, (b) marks don't-care only where the exhaustive spec
// does, and (c) at full window depth equals the exhaustive spec exactly
// — the containment collapses to equality when the window covers the
// cone.
//
// maxNodes bounds how many nodes are checked (0 = every node): the two
// oracle passes each cost O(network) per node — exhaustive simulation
// of 2^NumPI vectors and a full-depth CNF — so sweeping every node of a
// multi-thousand-node network is quadratic in circuit size. Over-budget
// networks are sampled at a uniform stride from node 0, which keeps the
// check suite-wide (every benchmark, every circuit shape) at bounded
// per-benchmark cost. The property is per-node local, so a strided
// sample loses breadth, not soundness of what it does check.
func CheckWindowedDCSubset(nw *network.Network, opt network.WindowOptions, maxNodes int) error {
	stride := 1
	if n := len(nw.Nodes); maxNodes > 0 && n > maxNodes {
		stride = (n + maxNodes - 1) / maxNodes
	}
	shallow := nw.NewDCExtractor(network.SatDCOptions{Window: opt})
	fullDepth := nw.NewDCExtractor(network.SatDCOptions{Window: network.FullDepth()})
	for ni := 0; ni < len(nw.Nodes); ni += stride {
		exact := nw.LocalSpec(ni)
		win, err := shallow.LocalSpec(ni)
		if err != nil {
			return fmt.Errorf("node %d: windowed spec: %w", ni, err)
		}
		size := exact.Size()
		if win.NumIn != exact.NumIn || win.Size() != size {
			return fmt.Errorf("node %d: windowed spec has %d inputs, exhaustive %d",
				ni, win.NumIn, exact.NumIn)
		}
		for v := 0; v < size; v++ {
			wp, ep := win.Phase(0, v), exact.Phase(0, v)
			if wp == tt.DC && ep != tt.DC {
				return fmt.Errorf("node %d pattern %d: windowed spec marked DC where the exhaustive spec is care (%v)",
					ni, v, ep)
			}
			if wp != tt.DC && ep != tt.DC && wp != ep {
				return fmt.Errorf("node %d pattern %d: care phase flipped (windowed %v, exhaustive %v)",
					ni, v, wp, ep)
			}
		}
		full, err := fullDepth.LocalSpec(ni)
		if err != nil {
			return fmt.Errorf("node %d: full-depth spec: %w", ni, err)
		}
		if !full.Equal(exact) {
			return fmt.Errorf("node %d: full-depth windowed spec differs from the exhaustive spec", ni)
		}
	}
	return nil
}

// CheckLCFMonotonic verifies property 4 on spec: sweeping the LC^f
// threshold upward through thresholds (which must be ascending, each in
// (0,1)) never decreases the number of assigned DC minterms.
func CheckLCFMonotonic(spec *tt.Function, thresholds []float64) error {
	prev := -1
	prevT := 0.0
	for _, th := range thresholds {
		res, err := core.LCF(spec, th, core.Options{})
		if err != nil {
			return err
		}
		if n := len(res.Assigned); n < prev {
			return fmt.Errorf("threshold %.3f assigned %d minterms, fewer than %d at %.3f",
				th, n, prev, prevT)
		} else {
			prev, prevT = n, th
		}
	}
	return nil
}
