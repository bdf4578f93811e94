// Package complexity implements the Boolean complexity-factor metrics of
// the paper (§2.2 and §4).
//
// The (normalized) complexity factor of an n-input function f is
//
//	C^f = |{(x1,x2) : f(x1)=f(x2), D_H(x1,x2)=1}| / (n·2^n)
//
// counting ordered pairs of 1-Hamming neighbors that share a phase
// (on/off/DC). It is the probability that a random neighbor of a random
// minterm shares its phase; high C^f means a "simpler" function with a
// smaller minimal SOP (the counter-intuitive historical definition the
// paper inherits from Hurst/Miller/Muzio).
//
// The local complexity factor of a minterm x (paper §4) looks one more
// step out:
//
//	LC^f(x) = |{(xj,xk) : D_H(x,xj)=1, D_H(xj,xk)=1, f(xj)=f(xk)}| / n²
package complexity

import (
	"context"
	"fmt"

	"relsyn/internal/bitset"
	"relsyn/internal/census"
	"relsyn/internal/par"
	"relsyn/internal/tt"
)

// checkOutputs rejects zero-output functions at the API boundary with
// the typed tt.ErrZeroOutputs sentinel (per-output means over zero
// outputs used to silently divide by zero and return NaN).
func checkOutputs(f *tt.Function) error {
	if f.NumOut() == 0 {
		return fmt.Errorf("complexity: %w", tt.ErrZeroOutputs)
	}
	return nil
}

// Factor returns C^f for output o from a fused neighbor census of that
// output built for the call.
func Factor(f *tt.Function, o int) float64 {
	return FactorCensus(census.Output(f, o))
}

// FactorCensus is Factor served from a fused neighbor census
// (internal/census): the same-phase pair total is three masked plane
// sums over the census that ranking, bounds and borders share.
func FactorCensus(c *bitset.Census) float64 {
	return float64(c.SamePhasePairs()) / float64(c.K()*c.Len())
}

// FactorMean returns the mean C^f across all outputs — the per-benchmark
// figure reported in paper Table 1 — computed with full machine
// parallelism. Zero-output functions are rejected with an error wrapping
// tt.ErrZeroOutputs.
func FactorMean(f *tt.Function) (float64, error) {
	return FactorMeanCtx(context.Background(), f, 0)
}

// FactorMeanCtx is FactorMean with cooperative cancellation and an
// explicit parallelism cap (0 = GOMAXPROCS, 1 = sequential). Per-output
// factors are computed concurrently but accumulated in output order, so
// the result is bit-identical at every parallelism level.
func FactorMeanCtx(ctx context.Context, f *tt.Function, parallelism int) (float64, error) {
	if err := checkOutputs(f); err != nil {
		return 0, err
	}
	factors := make([]float64, f.NumOut())
	if err := par.Do(ctx, parallelism, f.NumOut(), func(o int) error {
		factors[o] = Factor(f, o)
		return nil
	}); err != nil {
		return 0, err
	}
	sum := 0.0
	for _, v := range factors {
		sum += v
	}
	return sum / float64(f.NumOut()), nil
}

// Expected returns E[C^f] for output o: the complexity factor a random
// function with the same signal probabilities would have,
// f0² + f1² + fDC² (paper §3.1).
func Expected(f *tt.Function, o int) float64 {
	f0, f1, fdc := f.SignalProbabilities(o)
	return f0*f0 + f1*f1 + fdc*fdc
}

// ExpectedMean returns the mean E[C^f] across outputs. Zero-output
// functions are rejected with an error wrapping tt.ErrZeroOutputs.
func ExpectedMean(f *tt.Function) (float64, error) {
	if err := checkOutputs(f); err != nil {
		return 0, err
	}
	sum := 0.0
	for o := range f.Outs {
		sum += Expected(f, o)
	}
	return sum / float64(f.NumOut()), nil
}

// Local returns LC^f for minterm m of output o.
func Local(f *tt.Function, o, m int) float64 {
	return float64(census.Output(f, o).SamePhaseFold()[m]) / float64(f.NumIn*f.NumIn)
}

// LocalAll returns LC^f for every minterm of output o in one pass —
// used by the complexity-factor-based assignment algorithm, which needs
// the value for every DC minterm.
func LocalAll(f *tt.Function, o int) []float64 {
	out, _ := LocalAllCtx(context.Background(), f, o, 1)
	return out
}

// localAllChunk is the minimum minterm-chunk size LocalAllCtx hands to
// one worker; below this the per-chunk dispatch overhead dominates the
// O(n) work per minterm.
const localAllChunk = 1024

// LocalAllCtx is LocalAll with cooperative cancellation and an explicit
// parallelism cap (0 = GOMAXPROCS, 1 = sequential). The minterm space is
// split into contiguous chunks and each worker writes only its own
// index range, so the result is bit-identical at every parallelism
// level.
func LocalAllCtx(ctx context.Context, f *tt.Function, o, parallelism int) ([]float64, error) {
	return LocalAllCensusCtx(ctx, f, o, nil, parallelism)
}

// LocalAllCensusCtx is LocalAllCtx served from a fused neighbor
// census: the census carries the two-step same-phase fold precomputed
// (bitset.Census.SamePhaseFold), so all that remains per call is the
// normalize. A nil census builds output o's census for the call.
func LocalAllCensusCtx(ctx context.Context, f *tt.Function, o int, c *bitset.Census, parallelism int) ([]float64, error) {
	if c == nil {
		c = census.Output(f, o)
	}
	size := f.Size()
	vals := c.SamePhaseFold()
	out := make([]float64, size)
	norm := float64(f.NumIn * f.NumIn)
	err := par.DoRange(ctx, parallelism, size, localAllChunk, func(lo, hi int) error {
		for m := lo; m < hi; m++ {
			out[m] = float64(vals[m]) / norm
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
