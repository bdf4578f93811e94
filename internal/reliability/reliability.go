// Package reliability computes exact input-error propagation metrics over
// incompletely specified functions (paper §2 and §5).
//
// Error model (paper §2): single-bit input errors on otherwise-correct
// input vectors; errors on different pins are uncorrelated and rare, so
// multi-bit errors are ignored. A correct input vector is always a *care*
// minterm of the original specification — minterms in the DC-set "can
// never occur in practice" (paper §2.1) — while the erroneous vector may
// land anywhere. The error propagates iff the implementation's value
// differs between the two vectors.
//
// All rates are normalized by n·2^n, the number of ordered
// (minterm, flipped-bit) events, so that rates are directly comparable
// across functions and with the paper's analytical estimates. Rates for a
// multi-output function are the per-output mean.
package reliability

import (
	"context"
	"fmt"

	"relsyn/internal/bitset"
	"relsyn/internal/census"
	"relsyn/internal/par"
	"relsyn/internal/tt"
)

// checkOutputs rejects zero-output functions at the API boundary with
// the typed tt.ErrZeroOutputs sentinel: a per-output mean over zero
// outputs has no value (historically these helpers divided by zero and
// silently returned NaN).
func checkOutputs(f *tt.Function) error {
	if f.NumOut() == 0 {
		return fmt.Errorf("reliability: %w", tt.ErrZeroOutputs)
	}
	return nil
}

// Counts holds the raw exact pair counts for one output of a
// specification (paper §5 formulas).
type Counts struct {
	// BasePairs is 2·|{(xi,xj) : xi∈on, xj∈off, D_H=1}| — the ordered
	// care-to-care pairs whose error propagation is fixed regardless of DC
	// assignment.
	BasePairs int
	// MinDCPairs is Σ over DC minterms of min(on-neighbors, off-neighbors):
	// the fewest additional propagating events any DC assignment can incur.
	MinDCPairs int
	// MaxDCPairs is the analogous worst case.
	MaxDCPairs int
}

// NormMin returns the exact minimum error rate, (base + min-dc)/(n·2^n).
func (c Counts) NormMin(n, size int) float64 {
	return float64(c.BasePairs+c.MinDCPairs) / float64(n*size)
}

// NormMax returns the exact maximum error rate, (base + max-dc)/(n·2^n).
func (c Counts) NormMax(n, size int) float64 {
	return float64(c.BasePairs+c.MaxDCPairs) / float64(n*size)
}

// ExactCounts recovers one output's pair counts from its fused neighbor
// census: base pairs are one masked plane sum, and the DC min/max read
// the same census the ranking oracle shares.
func ExactCounts(c *bitset.Census) Counts {
	minDC, maxDC := c.DCPairBounds()
	return Counts{BasePairs: c.BasePairs(), MinDCPairs: minDC, MaxDCPairs: maxDC}
}

// Bounds returns the exact minimum and maximum error rates any DC
// assignment of one output can achieve, read from that output's census
// (which carries its own dimensions).
func Bounds(c *bitset.Census) (lo, hi float64) {
	counts := ExactCounts(c)
	return counts.NormMin(c.K(), c.Len()), counts.NormMax(c.K(), c.Len())
}

// BoundsMeanCensusCtx returns Bounds averaged over all outputs of f,
// read from cs, f's censuses indexed by output. A cs that is not one
// census per output of f's minterm space is an error, as is a
// zero-output f (wrapping tt.ErrZeroOutputs). The per-output bounds
// are read under ctx and the parallelism cap (0 = GOMAXPROCS, 1 =
// sequential) but accumulated in output order, so the result is
// bit-identical at every parallelism level.
func BoundsMeanCensusCtx(ctx context.Context, f *tt.Function, cs []*bitset.Census, parallelism int) (lo, hi float64, err error) {
	if err := checkOutputs(f); err != nil {
		return 0, 0, err
	}
	if err := census.Check(f, cs); err != nil {
		return 0, 0, fmt.Errorf("reliability: %w", err)
	}
	los := make([]float64, f.NumOut())
	his := make([]float64, f.NumOut())
	err = par.Do(ctx, parallelism, f.NumOut(), func(o int) error {
		los[o], his[o] = Bounds(cs[o])
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	for o := range los {
		lo += los[o]
		hi += his[o]
	}
	m := float64(f.NumOut())
	return lo / m, hi / m, nil
}

// checkPair validates the public-API boundary: spec and impl must have
// identical dimensions and o must be a valid output index. Violations are
// returned as errors (not panics) so that a serving process can reject a
// bad request instead of crashing.
func checkPair(spec, impl *tt.Function, o int) error {
	if spec.NumIn != impl.NumIn {
		return fmt.Errorf("reliability: input count mismatch %d vs %d", spec.NumIn, impl.NumIn)
	}
	if spec.NumOut() != impl.NumOut() {
		return fmt.Errorf("reliability: output count mismatch %d vs %d", spec.NumOut(), impl.NumOut())
	}
	if o < 0 || o >= spec.NumOut() {
		return fmt.Errorf("reliability: output %d outside [0,%d)", o, spec.NumOut())
	}
	return nil
}

// ErrorRate returns the exact single-bit input error rate of output o of
// implementation impl, evaluated against the care set of specification
// spec: the fraction of (care minterm, bit) events whose flip changes
// impl's output value. impl must be completely specified on the care set
// of spec and is typically a fully specified function. The two functions
// must have the same dimensions; mismatches are reported as errors.
func ErrorRate(spec, impl *tt.Function, o int) (float64, error) {
	if err := checkPair(spec, impl, o); err != nil {
		return 0, err
	}
	// One fused pass per input bit: the shift, the value comparison and
	// the care masking (the complement of the DC set) never materialize.
	errs := impl.Outs[o].On.NeighborDiffAndNotPopcountAll(spec.Outs[o].DC)
	return float64(errs) / float64(spec.NumIn*spec.Size()), nil
}

// implValue returns impl's output-o value vector. DC minterms of impl are
// taken at value 0; callers measuring implementations should pass fully
// specified functions (a synthesized circuit always is).
func implValue(impl *tt.Function, o int) *bitset.Set {
	return impl.Outs[o].On.Clone()
}

// ErrorRateMeanCtx returns ErrorRate averaged over all outputs — the
// per-benchmark reliability number used throughout the paper's plots —
// under ctx and an explicit parallelism cap (0 = GOMAXPROCS, 1 =
// sequential); results are bit-identical at every parallelism level.
// Zero-output functions are rejected with an error wrapping
// tt.ErrZeroOutputs.
func ErrorRateMeanCtx(ctx context.Context, spec, impl *tt.Function, parallelism int) (float64, error) {
	if err := checkOutputs(spec); err != nil {
		return 0, err
	}
	rates := make([]float64, spec.NumOut())
	err := par.Do(ctx, parallelism, spec.NumOut(), func(o int) error {
		r, err := ErrorRate(spec, impl, o)
		if err != nil {
			return err
		}
		rates[o] = r
		return nil
	})
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for _, r := range rates {
		sum += r
	}
	return sum / float64(spec.NumOut()), nil
}

// multiCancelStride is how many k-subsets ErrorRateMulti enumerates
// between context polls. The enumeration is C(n,k) and can run for
// minutes on hostile inputs; polling every ~1k subsets keeps the
// cancellation latency in the microsecond range without measurable
// overhead.
const multiCancelStride = 1024

// ErrorRateMulti generalizes ErrorRate to simultaneous k-bit input
// errors: the fraction of (care minterm, k-subset of input bits) events
// whose joint flip changes output o of impl. k = 1 reproduces ErrorRate.
// The paper argues single-bit errors dominate when pin errors are rare
// and uncorrelated (§2); this extension quantifies the k ≥ 2 tail.
//
// The C(n,k) subset enumeration polls ctx every ~1k subsets and aborts
// with ctx.Err() once the context is done, so a request budget
// (internal/pipeline) bounds even adversarially large (n, k) choices.
func ErrorRateMulti(ctx context.Context, spec, impl *tt.Function, o, k int) (float64, error) {
	if err := checkPair(spec, impl, o); err != nil {
		return 0, err
	}
	n := spec.NumIn
	if k < 1 || k > n {
		return 0, fmt.Errorf("reliability: error multiplicity %d outside [1,%d]", k, n)
	}
	care := spec.Outs[o].DC.Complement()
	val := implValue(impl, o)
	errs, events := 0, 0
	err := forEachSubset(n, k, func(mask uint) error {
		if events%multiCancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		events++
		valSh := val
		for b := 0; b < n; b++ {
			if mask>>uint(b)&1 == 1 {
				valSh = valSh.ShiftXor(b)
			}
		}
		diff := val.Clone()
		diff.InPlaceSymDiff(valSh)
		errs += diff.IntersectionCount(care)
		return nil
	})
	if err != nil {
		return 0, err
	}
	return float64(errs) / float64(events*spec.Size()), nil
}

// ErrorRateMultiMean averages ErrorRateMulti over all outputs with full
// machine parallelism; results are bit-identical at every parallelism
// level. Zero-output functions are rejected with an error wrapping
// tt.ErrZeroOutputs.
func ErrorRateMultiMean(ctx context.Context, spec, impl *tt.Function, k int) (float64, error) {
	if err := checkOutputs(spec); err != nil {
		return 0, err
	}
	rates := make([]float64, spec.NumOut())
	err := par.Do(ctx, 0, spec.NumOut(), func(o int) error {
		r, err := ErrorRateMulti(ctx, spec, impl, o, k)
		if err != nil {
			return err
		}
		rates[o] = r
		return nil
	})
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for _, r := range rates {
		sum += r
	}
	return sum / float64(spec.NumOut()), nil
}

// forEachSubset enumerates the C(n,k) bit masks with exactly k of n bits
// set, in ascending order, stopping at the first error fn returns.
func forEachSubset(n, k int, fn func(mask uint) error) error {
	var rec func(start int, mask uint, left int) error
	rec = func(start int, mask uint, left int) error {
		if left == 0 {
			return fn(mask)
		}
		for b := start; b <= n-left; b++ {
			if err := rec(b+1, mask|1<<uint(b), left-1); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(0, 0, k)
}

// Borders holds the border counts of paper §5: ordered pairs of 1-Hamming
// neighbors whose first element is in the named set and whose second is
// outside it.
type Borders struct {
	B0  int // first ∈ off-set
	B1  int // first ∈ on-set
	BDC int // first ∈ DC-set
}

// CountBorders recovers one output's border counts from its fused
// census: a minterm's out-of-region neighbor count is its input count
// minus its same-region census, so each border is one masked plane sum.
func CountBorders(c *bitset.Census) Borders {
	b0, b1, bdc := c.Borders()
	return Borders{B0: b0, B1: b1, BDC: bdc}
}
