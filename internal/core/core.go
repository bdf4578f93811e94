// Package core implements the paper's contribution: reliability-driven
// selective assignment of input don't-cares.
//
// Both algorithms decide, per DC minterm of each output, whether to bind
// the minterm to the on- or off-set so that single-bit input errors from
// neighboring specified minterms are masked, or to leave it don't-care for
// the downstream (conventional, area-driven) optimizer:
//
//   - Ranking-based assignment (paper Fig. 3) ranks DC minterms by
//     w = |#on-neighbors − #off-neighbors| and assigns the top fraction of
//     the ranked list to the majority phase.
//   - Complexity-factor-based assignment (paper Fig. 7) assigns a DC
//     minterm iff its local complexity factor LC^f is below a threshold;
//     low-LC^f neighborhoods are the ones where reliability can be bought
//     without an area penalty (paper §3.1, Fig. 6).
//
// Neighbor counts and LC^f are computed once against the original
// specification, matching the paper's algorithms (they are one-shot, not
// iterated after each assignment).
package core

import (
	"context"
	"fmt"
	"math"

	"relsyn/internal/bitset"
	"relsyn/internal/census"
	"relsyn/internal/complexity"
	"relsyn/internal/par"
	"relsyn/internal/tt"
)

// Assignment records one DC minterm decision.
type Assignment struct {
	Output  int
	Minterm int
	Value   tt.Phase // On or Off
	Weight  int      // |on-neighbors − off-neighbors| at decision time
}

// Result is the outcome of an assignment pass.
type Result struct {
	// Func is a deep copy of the input with the selected DC minterms bound;
	// unselected DCs remain don't-care for later conventional optimization.
	Func *tt.Function
	// Assigned lists every binding made, in application order.
	Assigned []Assignment
	// TotalDCs is the number of DC (output, minterm) pairs in the input.
	TotalDCs int
	// PerOutputFraction[o] is assigned-DCs / total-DCs for output o
	// (0 when output o had no DCs).
	PerOutputFraction []float64
}

// FractionAssigned returns assigned / total DCs over the whole function.
func (r *Result) FractionAssigned() float64 {
	if r.TotalDCs == 0 {
		return 0
	}
	return float64(len(r.Assigned)) / float64(r.TotalDCs)
}

// Options tunes the assignment algorithms.
type Options struct {
	// AssignTies also binds DC minterms whose on- and off-neighbor counts
	// are equal (to the off-set, following the `else` arm of paper Fig. 7).
	// The default (false) leaves ties don't-care: a tie contributes nothing
	// to error masking, so retaining flexibility is never worse. The paper's
	// Fig. 3 excludes ties from the ranked list; its Fig. 7 pseudocode
	// assigns them — set AssignTies to reproduce that literal behaviour.
	AssignTies bool

	// Interrupt, when non-nil, is polled at least once per output; a
	// non-nil return aborts the pass with that error. Wire a
	// context-derived check here for cooperative cancellation.
	Interrupt func() error

	// Parallelism caps the worker count for the per-output candidate
	// selection fan-out (0 = GOMAXPROCS, 1 = sequential). It never
	// changes the computed assignment: selections land in
	// index-addressed slots and are applied sequentially in output
	// order, so it is deliberately NOT part of Canonical().
	Parallelism int

	// Census, when non-nil, supplies precomputed fused neighbor
	// censuses (internal/bitset.Census), one per output, and must pass
	// census.Check against the function: a census of another minterm
	// space is an error, never silently rebuilt. When nil, each output
	// gets one built for the pass. The census
	// is a spec-time snapshot of the counts every consumer reads, so,
	// like Parallelism, Census is an operational knob and deliberately
	// NOT part of Canonical().
	Census []*bitset.Census
}

// checkCensus rejects a supplied census that does not belong to f's
// minterm space (see census.Check). Every entry point calls it before
// censusFor.
func (o Options) checkCensus(f *tt.Function) error {
	if o.Census == nil {
		return nil
	}
	return census.Check(f, o.Census)
}

// censusFor returns the fused census of output idx: the supplied one,
// or one built for the call when none was supplied.
func (o Options) censusFor(f *tt.Function, idx int) *bitset.Census {
	if o.Census != nil {
		return o.Census[idx]
	}
	return census.Output(f, idx)
}

// check polls the Interrupt hook.
func (o Options) check() error {
	if o.Interrupt == nil {
		return nil
	}
	return o.Interrupt()
}

// Canonical returns o reduced to the fields that determine the computed
// assignment, with every operational knob (cancellation hooks, resource
// budgets, parallelism caps) cleared. Two Options values with equal Canonical() forms
// produce bit-identical results on the same input, so cache keys and
// request-coalescing identities (internal/server) must be derived from
// the canonical form — deriving them from the raw struct would split
// identical work across cache entries.
func (o Options) Canonical() Options {
	return Options{AssignTies: o.AssignTies}
}

// Ranking runs the ranking-based algorithm of paper Fig. 3, binding the
// given fraction (in [0,1]) of each output's rankable DC minterms.
func Ranking(f *tt.Function, fraction float64, opt Options) (*Result, error) {
	if fraction < 0 || fraction > 1 {
		return nil, fmt.Errorf("core: fraction %v outside [0,1]", fraction)
	}
	fractions := make([]float64, f.NumOut())
	for o := range fractions {
		fractions[o] = fraction
	}
	return rankingWith(f, fractions, opt)
}

// RankingPerOutput is Ranking with an independent fraction per output,
// used to compare against an LC^f run at matched fractions (paper Table 2
// keeps "the fraction of DCs assigned the same in both cases").
func RankingPerOutput(f *tt.Function, fractions []float64, opt Options) (*Result, error) {
	if len(fractions) != f.NumOut() {
		return nil, fmt.Errorf("core: %d fractions for %d outputs", len(fractions), f.NumOut())
	}
	for _, fr := range fractions {
		if fr < 0 || fr > 1 {
			return nil, fmt.Errorf("core: fraction %v outside [0,1]", fr)
		}
	}
	return rankingWith(f, fractions, opt)
}

// rankingWith is the shared body of Ranking and RankingPerOutput: the
// per-output candidate ranking fans out through the work pool into
// index-addressed slots, and the selections are applied sequentially in
// output order — the computed assignment is bit-identical at every
// parallelism level.
func rankingWith(f *tt.Function, fractions []float64, opt Options) (*Result, error) {
	if err := opt.checkCensus(f); err != nil {
		return nil, err
	}
	res := newResult(f)
	sels := make([][]Assignment, f.NumOut())
	err := par.Do(context.Background(), opt.Parallelism, f.NumOut(), func(o int) error {
		if err := opt.check(); err != nil {
			return err
		}
		cands := rankCandidates(f, o, opt)
		// Decreasing weight; ties broken by minterm index. Weights are
		// bounded by the input count, so a two-pass stable counting sort
		// over the inverted weight replaces a comparator sort — cands
		// arrives in increasing minterm order, and stable placement
		// preserves that order within each weight bucket, so the result
		// is exactly the (weight desc, minterm asc) order of paper Fig. 5
		// at O(cands) instead of O(cands·log). On large DC sets the sort
		// was the single hottest slice of the ranking pass.
		offs := make([]int, f.NumIn+2)
		for _, a := range cands {
			offs[f.NumIn-a.Weight+1]++
		}
		for i := 1; i < len(offs); i++ {
			offs[i] += offs[i-1]
		}
		ordered := make([]Assignment, len(cands))
		for _, a := range cands {
			w := f.NumIn - a.Weight
			ordered[offs[w]] = a
			offs[w]++
		}
		k := int(math.Round(fractions[o] * float64(len(cands))))
		sels[o] = ordered[:k]
		return nil
	})
	if err != nil {
		return nil, err
	}
	for o, sel := range sels {
		res.apply(o, sel)
	}
	return res, nil
}

// LCF runs the complexity-factor-based algorithm of paper Fig. 7: a DC
// minterm is bound to its majority neighbor phase iff its local
// complexity factor is strictly below threshold. Thresholds in 0.45–0.65
// trade performance (low) against reliability (high) per the paper §4.
func LCF(f *tt.Function, threshold float64, opt Options) (*Result, error) {
	if threshold < 0 || threshold > 1 {
		return nil, fmt.Errorf("core: threshold %v outside [0,1]", threshold)
	}
	if err := opt.checkCensus(f); err != nil {
		return nil, err
	}
	res := newResult(f)
	sels := make([][]Assignment, f.NumOut())
	err := par.Do(context.Background(), opt.Parallelism, f.NumOut(), func(o int) error {
		if err := opt.check(); err != nil {
			return err
		}
		if !f.Outs[o].DC.Any() {
			return nil
		}
		c := opt.censusFor(f, o)
		local := complexity.LocalAll(c)
		no := newNeighborOracle(o, c)
		var sel []Assignment
		f.Outs[o].DC.ForEach(func(m int) {
			if local[m] >= threshold {
				return
			}
			if a, ok := no.decide(m, opt); ok {
				sel = append(sel, a)
			}
		})
		sels[o] = sel
		return nil
	})
	if err != nil {
		return nil, err
	}
	for o, sel := range sels {
		res.apply(o, sel)
	}
	return res, nil
}

// Complete binds every DC minterm to its majority neighbor phase — the
// "Complete" column of paper Table 2 (full reliability-driven assignment,
// maximal error masking, typically large area overhead). Ties are bound
// to the off-set so that the result is completely specified.
func Complete(f *tt.Function) *Result {
	res, _ := CompleteCensus(f, nil) // no census supplied: nothing to reject
	return res
}

// CompleteCensus is Complete reading the neighbor counts from
// precomputed fused censuses, one per output; a nil slice builds each
// output's census for the call, and a census that fails census.Check
// is an error.
func CompleteCensus(f *tt.Function, cs []*bitset.Census) (*Result, error) {
	opt := Options{Census: cs}
	if err := opt.checkCensus(f); err != nil {
		return nil, err
	}
	res := newResult(f)
	for o := range f.Outs {
		if !f.Outs[o].DC.Any() {
			continue
		}
		no := newNeighborOracle(o, opt.censusFor(f, o))
		var sel []Assignment
		f.Outs[o].DC.ForEach(func(m int) {
			a, ok := no.decide(m, Options{AssignTies: true})
			if !ok {
				panic("core: Complete decide must always assign")
			}
			sel = append(sel, a)
		})
		res.apply(o, sel)
	}
	return res, nil
}

func newResult(f *tt.Function) *Result {
	total := 0
	for _, o := range f.Outs {
		total += o.DC.Count()
	}
	return &Result{
		Func:              f.Clone(),
		TotalDCs:          total,
		PerOutputFraction: make([]float64, f.NumOut()),
	}
}

// RankableCounts returns, per output, how many DC minterms are eligible
// for ranking (non-tied under opt) — the denominator for matching an
// LC^f run's per-output assignment fractions in a Ranking run. A
// supplied census that fails census.Check is an error.
func RankableCounts(f *tt.Function, opt Options) ([]int, error) {
	if err := opt.checkCensus(f); err != nil {
		return nil, err
	}
	out := make([]int, f.NumOut())
	for o := range f.Outs {
		out[o] = len(rankCandidates(f, o, opt))
	}
	return out, nil
}

// neighborOracle answers per-minterm on/off neighbor-count queries for
// one output from the decoded arrays of its fused census.
type neighborOracle struct {
	o              int
	onVals, offVal []uint8
}

func newNeighborOracle(o int, c *bitset.Census) *neighborOracle {
	return &neighborOracle{o: o, onVals: c.OnValues(), offVal: c.OffValues()}
}

// rankCandidates lists output o's DC minterms eligible for ranking.
func rankCandidates(f *tt.Function, o int, opt Options) []Assignment {
	if !f.Outs[o].DC.Any() {
		return nil
	}
	no := newNeighborOracle(o, opt.censusFor(f, o))
	cands := make([]Assignment, 0, f.Outs[o].DC.Count())
	f.Outs[o].DC.ForEach(func(m int) {
		if a, ok := no.decide(m, opt); ok {
			cands = append(cands, a)
		}
	})
	return cands
}

// decide computes the majority-phase binding for DC minterm m of the
// oracle's output. It returns ok=false for a tie unless opt.AssignTies
// is set.
func (no *neighborOracle) decide(m int, opt Options) (Assignment, bool) {
	on, off := int(no.onVals[m]), int(no.offVal[m])
	w := on - off
	if w < 0 {
		w = -w
	}
	a := Assignment{Output: no.o, Minterm: m, Weight: w}
	switch {
	case on > off:
		a.Value = tt.On
	case off > on:
		a.Value = tt.Off
	default:
		if !opt.AssignTies {
			return Assignment{}, false
		}
		a.Value = tt.Off
	}
	return a, true
}

// apply binds the selected minterms on res.Func and updates bookkeeping.
func (res *Result) apply(o int, sel []Assignment) {
	dcs := res.Func.Outs[o].DC.Count()
	for _, a := range sel {
		res.Func.SetPhase(a.Output, a.Minterm, a.Value)
	}
	res.Assigned = append(res.Assigned, sel...)
	if dcs > 0 {
		res.PerOutputFraction[o] = float64(len(sel)) / float64(dcs)
	}
}
