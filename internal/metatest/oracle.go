package metatest

import (
	"math"
	"math/bits"
	"sort"

	"relsyn/internal/core"
	"relsyn/internal/estimate"
	"relsyn/internal/reliability"
	"relsyn/internal/tt"
)

// The scalar oracle. Every function below recomputes a quantity the
// production code serves from the fused neighbor census
// (bitset.Census), or from ErrorRate's fused popcount, the slow and
// obvious way: per-bit shifted-set intersections and per-minterm
// neighbor walks over phase lookups. None of it shares code with the
// census, so property 6 holding the production paths to these bodies
// bit for bit is an independent check, not a tautology.

// ExactCountsScalar is the oracle for reliability.ExactCounts: base
// pairs by per-bit set intersection, DC pair bounds by a per-minterm
// neighbor walk.
func ExactCountsScalar(f *tt.Function, o int) reliability.Counts {
	var c reliability.Counts
	out := f.Outs[o]
	off := f.OffSet(o)
	for b := 0; b < f.NumIn; b++ {
		c.BasePairs += 2 * out.On.IntersectionCount(off.ShiftXor(b))
	}
	out.DC.ForEach(func(m int) {
		on, offN := f.OnNeighbors(o, m), f.OffNeighbors(o, m)
		c.MinDCPairs += min(on, offN)
		c.MaxDCPairs += max(on, offN)
	})
	return c
}

// BoundsScalar is the oracle for reliability.Bounds.
func BoundsScalar(f *tt.Function, o int) (lo, hi float64) {
	c := ExactCountsScalar(f, o)
	return c.NormMin(f.NumIn, f.Size()), c.NormMax(f.NumIn, f.Size())
}

// ErrorRateScalar is the oracle for reliability.ErrorRate: per input
// bit it materializes the shifted value vector and the symmetric
// difference, and intersects it with spec's care set. impl's DC
// minterms count as 0, as in ErrorRate.
func ErrorRateScalar(spec, impl *tt.Function, o int) float64 {
	n := spec.NumIn
	care := spec.Outs[o].DC.Complement()
	val := impl.Outs[o].On.Clone()
	errs := 0
	for b := 0; b < n; b++ {
		diff := val.Clone()
		diff.InPlaceSymDiff(val.ShiftXor(b))
		errs += diff.IntersectionCount(care)
	}
	return float64(errs) / float64(n*spec.Size())
}

// CountBordersScalar is the oracle for reliability.CountBorders: three
// shifted sets per input bit.
func CountBordersScalar(f *tt.Function, o int) reliability.Borders {
	out := f.Outs[o]
	off := f.OffSet(o)
	var b reliability.Borders
	for bit := 0; bit < f.NumIn; bit++ {
		onSh := out.On.ShiftXor(bit)
		dcSh := out.DC.ShiftXor(bit)
		offSh := off.ShiftXor(bit)
		b.B1 += out.On.IntersectionCount(offSh) + out.On.IntersectionCount(dcSh)
		b.B0 += off.IntersectionCount(onSh) + off.IntersectionCount(dcSh)
		b.BDC += out.DC.IntersectionCount(onSh) + out.DC.IntersectionCount(offSh)
	}
	return b
}

// BorderBasedScalar is the oracle for estimate.BorderBased: the Poisson
// model evaluated on the oracle's border counts.
func BorderBasedScalar(f *tt.Function, o int) estimate.Bounds {
	return estimate.BorderModel(f, o, CountBordersScalar(f, o))
}

// SamePhaseNeighbors returns, for every minterm m, how many of m's n
// 1-Hamming neighbors share m's phase in output o.
func SamePhaseNeighbors(f *tt.Function, o int) []int {
	size := f.Size()
	on, dc := f.Outs[o].On, f.Outs[o].DC
	same := make([]int, size)
	for b := 0; b < f.NumIn; b++ {
		onW, dcW := on.Words(), dc.Words()
		onShW, dcShW := on.ShiftXor(b).Words(), dc.ShiftXor(b).Words()
		for wi := range onW {
			// A pair (m, m^2^b) shares phase iff both on, both dc, or both off.
			bothOn := onW[wi] & onShW[wi]
			bothDC := dcW[wi] & dcShW[wi]
			bothOff := ^(onW[wi] | dcW[wi]) & ^(onShW[wi] | dcShW[wi])
			match := bothOn | bothDC | bothOff
			for match != 0 {
				if idx := wi*64 + bits.TrailingZeros64(match); idx < size {
					same[idx]++
				}
				match &= match - 1
			}
		}
	}
	return same
}

// FactorScalar is the oracle for complexity.Factor.
func FactorScalar(f *tt.Function, o int) float64 {
	total := 0
	for _, s := range SamePhaseNeighbors(f, o) {
		total += s
	}
	return float64(total) / float64(f.NumIn*f.Size())
}

// LocalAllScalar is the oracle for complexity.LocalAll: LC^f of every
// minterm, summing the same-phase neighbor counts of its n neighbors.
func LocalAllScalar(f *tt.Function, o int) []float64 {
	n := f.NumIn
	same := SamePhaseNeighbors(f, o)
	out := make([]float64, f.Size())
	for m := range out {
		total := 0
		for b := 0; b < n; b++ {
			total += same[m^(1<<uint(b))]
		}
		out[m] = float64(total) / float64(n*n)
	}
	return out
}

// RankingScalar is the oracle for core.Ranking: each output's rankable
// DC minterms sorted by (weight desc, minterm asc) with a comparison
// sort, and the top fraction bound.
func RankingScalar(f *tt.Function, fraction float64, assignTies bool) *core.Result {
	return assignScalar(f, assignTies, func(_ int, cands []core.Assignment) []core.Assignment {
		sort.SliceStable(cands, func(i, j int) bool { return cands[i].Weight > cands[j].Weight })
		return cands[:int(math.Round(fraction*float64(len(cands))))]
	})
}

// LCFScalar is the oracle for core.LCF: the DC minterms whose LC^f is
// below threshold are bound to their majority neighbor phase.
func LCFScalar(f *tt.Function, threshold float64, assignTies bool) *core.Result {
	return assignScalar(f, assignTies, func(o int, cands []core.Assignment) []core.Assignment {
		local := LocalAllScalar(f, o)
		var sel []core.Assignment
		for _, a := range cands {
			if local[a.Minterm] < threshold {
				sel = append(sel, a)
			}
		}
		return sel
	})
}

// CompleteScalar is the oracle for core.Complete: every DC minterm
// bound, ties to the off-set.
func CompleteScalar(f *tt.Function) *core.Result {
	return assignScalar(f, true, func(_ int, cands []core.Assignment) []core.Assignment { return cands })
}

// assignScalar runs one assignment pass: per output, every DC minterm
// (ascending) gets its majority-phase decision from neighbor lookups on
// the unmodified spec, pick chooses which to bind, and the bindings are
// applied to a clone in output order.
func assignScalar(f *tt.Function, assignTies bool, pick func(o int, cands []core.Assignment) []core.Assignment) *core.Result {
	res := &core.Result{Func: f.Clone(), PerOutputFraction: make([]float64, f.NumOut())}
	for o := range f.Outs {
		dcs := f.Outs[o].DC.Count()
		res.TotalDCs += dcs
		var cands []core.Assignment
		f.Outs[o].DC.ForEach(func(m int) {
			on, off := f.OnNeighbors(o, m), f.OffNeighbors(o, m)
			a := core.Assignment{Output: o, Minterm: m, Weight: on - off, Value: tt.On}
			switch {
			case on < off:
				a.Weight, a.Value = off-on, tt.Off
			case on == off && !assignTies:
				return
			case on == off:
				a.Value = tt.Off
			}
			cands = append(cands, a)
		})
		sel := pick(o, cands)
		for _, a := range sel {
			res.Func.SetPhase(o, a.Minterm, a.Value)
		}
		res.Assigned = append(res.Assigned, sel...)
		if dcs > 0 {
			res.PerOutputFraction[o] = float64(len(sel)) / float64(dcs)
		}
	}
	return res
}
