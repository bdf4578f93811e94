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
	"fmt"

	"relsyn/internal/bitset"
	"relsyn/internal/tt"
)

// Factor returns C^f for one output from its fused neighbor census
// (internal/census): the same-phase pair total is three masked plane
// sums over the census that ranking, bounds and borders share.
func Factor(c *bitset.Census) float64 {
	return float64(c.SamePhasePairs()) / float64(c.K()*c.Len())
}

// FactorMean returns the mean C^f over cs, one function's censuses
// indexed by output — the per-benchmark figure reported in paper
// Table 1. An empty cs is rejected with an error wrapping
// tt.ErrZeroOutputs; a nil entry, or censuses of differing minterm
// spaces, cannot be one function's and are errors too.
func FactorMean(cs []*bitset.Census) (float64, error) {
	if len(cs) == 0 {
		return 0, fmt.Errorf("complexity: %w", tt.ErrZeroOutputs)
	}
	sum := 0.0
	for o, c := range cs {
		if c == nil {
			return 0, fmt.Errorf("complexity: output %d has no census", o)
		}
		if c.Len() != cs[0].Len() {
			return 0, fmt.Errorf("complexity: output %d census spans %d minterms, output 0 %d", o, c.Len(), cs[0].Len())
		}
		sum += Factor(c)
	}
	return sum / float64(len(cs)), nil
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
	if f.NumOut() == 0 {
		return 0, fmt.Errorf("complexity: %w", tt.ErrZeroOutputs)
	}
	sum := 0.0
	for o := range f.Outs {
		sum += Expected(f, o)
	}
	return sum / float64(f.NumOut()), nil
}

// LocalAll returns LC^f for every minterm of one output, read from its
// fused neighbor census — used by the complexity-factor-based
// assignment algorithm, which needs the value for every DC minterm. The
// census carries the two-step same-phase fold precomputed
// (bitset.Census.SamePhaseFold), so all that remains is the normalize.
func LocalAll(c *bitset.Census) []float64 {
	vals := c.SamePhaseFold()
	out := make([]float64, c.Len())
	norm := float64(c.K() * c.K())
	for m := range out {
		out[m] = float64(vals[m]) / norm
	}
	return out
}
