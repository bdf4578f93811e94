// Package estimate derives the paper's §5 analytical min-max reliability
// estimates, which bracket a specification's achievable error rates
// without the minterm-enumerative computation of the exact bounds:
//
//   - Signal-probability-based: models the neighbor-phase balance
//     Y = Σ Xj of each DC minterm as a Gaussian with moments derived from
//     (f0, f1, fDC) alone, and uses the exact expectation of min/max of
//     the (perfectly anticorrelated) neighbor counts (n∓Y)/2. These
//     estimates "consistently overshoot" the exact rates (paper Table 3)
//     because they ignore the clustering of real functions.
//
//   - Border-based: additionally measures the border counts b0, b1, bDC
//     (ordered mixed-phase adjacencies), models each DC minterm's on-set
//     border count as Poisson with mean N_on, and produces bounds that
//     bracket the exact values.
//
// All rates use the same normalization as package reliability: fraction
// of the n·2^n ordered (minterm, flipped-bit) events.
package estimate

import (
	"fmt"
	"math"

	"relsyn/internal/bitset"
	"relsyn/internal/census"
	"relsyn/internal/reliability"
	"relsyn/internal/tt"
)

// Bounds is an estimated [Min, Max] error-rate interval.
type Bounds struct {
	Min float64
	Max float64
}

// SignalBased computes the Gaussian signal-probability estimate for
// output o.
func SignalBased(f *tt.Function, o int) Bounds {
	n := float64(f.NumIn)
	f0, f1, fdc := f.SignalProbabilities(o)
	base := 2 * f0 * f1

	// Y = Σ Xj with Xj ∈ {-1, 0, +1} carrying probabilities f0, fDC, f1:
	// μ = n(f1−f0), σ² = n(f1+f0−(f1−f0)²).
	mu := n * (f1 - f0)
	variance := n * (f1 + f0 - (f1-f0)*(f1-f0))
	eAbsY := meanAbsGaussian(mu, variance)

	// min((n−Y)/2, (n+Y)/2) = (n−|Y|)/2 and max = (n+|Y|)/2.
	minPer := (n - eAbsY) / 2
	maxPer := (n + eAbsY) / 2
	return Bounds{
		Min: base + fdc*minPer/n,
		Max: base + fdc*maxPer/n,
	}
}

// meanAbsGaussian returns E|Y| for Y ~ N(mu, variance): the folded
// normal mean σ√(2/π)·exp(−μ²/2σ²) + μ·erf(μ/(σ√2)).
func meanAbsGaussian(mu, variance float64) float64 {
	if variance <= 0 {
		return math.Abs(mu)
	}
	sigma := math.Sqrt(variance)
	return sigma*math.Sqrt(2/math.Pi)*math.Exp(-mu*mu/(2*variance)) +
		mu*math.Erf(mu/(sigma*math.Sqrt2))
}

// BorderBased computes the Poisson border-count estimate for output o,
// measuring the border counts on c, that output's fused neighbor census
// (three masked plane sums).
func BorderBased(f *tt.Function, o int, c *bitset.Census) Bounds {
	return BorderModel(f, o, reliability.CountBorders(c))
}

// BorderModel evaluates the Poisson model on measured border counts b
// of output o. It is pure float arithmetic on the three integers, so
// any two measurements of the same borders give the identical estimate.
func BorderModel(f *tt.Function, o int, b reliability.Borders) Bounds {
	n := float64(f.NumIn)
	size := float64(f.Size())
	f0, f1, fdc := f.SignalProbabilities(o)

	base := 0.0
	if f0+fdc > 0 {
		base += float64(b.B1) / size * f0 / (f0 + fdc)
	}
	if f1+fdc > 0 {
		base += float64(b.B0) / size * f1 / (f1 + fdc)
	}
	base /= n // per-(minterm,bit) normalization

	if fdc == 0 || b.BDC == 0 {
		return Bounds{Min: base, Max: base}
	}

	// Expected borders per DC minterm and expected on-set borders.
	nb := float64(b.BDC) / (fdc * size)
	var non float64
	if b.B0+b.B1 > 0 {
		non = nb * float64(b.B1) / float64(b.B0+b.B1)
	}

	nbi := int(math.Round(nb))
	minPer, maxPer := 0.0, 0.0
	half := nbi / 2
	for i := 0; i <= nbi; i++ {
		p := poisson(i, non)
		if i <= half {
			minPer += float64(i) * p
			maxPer += float64(nbi-i) * p
		} else {
			minPer += float64(nbi-i) * p
			maxPer += float64(i) * p
		}
	}
	return Bounds{
		Min: base + fdc*minPer/n,
		Max: base + fdc*maxPer/n,
	}
}

// poisson returns the pmf λ^k e^{−λ}/k!.
func poisson(k int, lambda float64) float64 {
	if lambda == 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	// Compute iteratively in log-free form to avoid overflow for the small
	// k (≤ n) used here.
	p := math.Exp(-lambda)
	for i := 1; i <= k; i++ {
		p *= lambda / float64(i)
	}
	return p
}

// SignalBasedMean averages SignalBased over all outputs. Zero-output
// functions are rejected with an error wrapping tt.ErrZeroOutputs.
func SignalBasedMean(f *tt.Function) (Bounds, error) {
	return meanOver(f, func(o int) Bounds { return SignalBased(f, o) })
}

// BorderBasedMean averages BorderBased over all outputs of f, reading
// cs, f's censuses indexed by output. A cs that is not one census per
// output of f's minterm space is an error, as is a zero-output f
// (wrapping tt.ErrZeroOutputs).
func BorderBasedMean(f *tt.Function, cs []*bitset.Census) (Bounds, error) {
	if err := census.Check(f, cs); err != nil {
		return Bounds{}, fmt.Errorf("estimate: %w", err)
	}
	return meanOver(f, func(o int) Bounds { return BorderBased(f, o, cs[o]) })
}

// meanOver averages per-output bounds in output order. Zero-output
// functions are rejected with the typed tt.ErrZeroOutputs sentinel
// (historically this divided by zero and returned NaN bounds).
func meanOver(f *tt.Function, fn func(o int) Bounds) (Bounds, error) {
	if f.NumOut() == 0 {
		return Bounds{}, fmt.Errorf("estimate: %w", tt.ErrZeroOutputs)
	}
	var acc Bounds
	for o := range f.Outs {
		b := fn(o)
		acc.Min += b.Min
		acc.Max += b.Max
	}
	m := float64(f.NumOut())
	return Bounds{Min: acc.Min / m, Max: acc.Max / m}, nil
}
