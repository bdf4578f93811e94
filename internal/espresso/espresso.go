// Package espresso is a two-level logic minimizer in the ESPRESSO
// tradition: EXPAND / IRREDUNDANT / REDUCE passes with a last-gasp
// pass, run in cube space against the fixed on/off minterm sets of a
// function of at most tt.MaxInputs inputs (dense.go).
//
// It stands in for the ESPRESSO binary the paper uses to size minimal
// SOPs (Fig. 2) and for the DC-consuming "conventional assignment" step
// of the synthesis flow: minimizing the on-set against the remaining
// DC-set is exactly how a conventional optimizer spends don't-cares.
//
// The minimizer is heuristic (like ESPRESSO itself): results are valid
// irredundant covers, not guaranteed minimum. Determinism is guaranteed —
// cube orderings are fixed — so experiments are reproducible.
package espresso

import (
	"fmt"

	"relsyn/internal/bitset"
	"relsyn/internal/cube"
	"relsyn/internal/tt"
)

// Cost is the two-level cost of a cover, ordered lexicographically:
// fewer cubes first, then fewer literals.
type Cost struct {
	Cubes    int
	Literals int
}

// CostOf measures a cover.
func CostOf(f *cube.Cover) Cost {
	return Cost{Cubes: f.Len(), Literals: f.LiteralCount()}
}

// Less reports whether c is strictly cheaper than o.
func (c Cost) Less(o Cost) bool {
	if c.Cubes != o.Cubes {
		return c.Cubes < o.Cubes
	}
	return c.Literals < o.Literals
}

// Minimize computes an irredundant prime cover of the incompletely
// specified single-output function with on-set cover `on` and don't-care
// cover `dc` (either may be nil for empty). The returned cover covers
// every on-set minterm, lies within on ∪ dc, and consists of prime
// implicants of on ∪ dc. It panics on a function wider than
// tt.MaxInputs; MinimizeInterruptible reports that as an error.
func Minimize(on, dc *cube.Cover) *cube.Cover {
	cov, err := MinimizeInterruptible(on, dc, nil)
	if err != nil {
		panic(err)
	}
	return cov
}

// interrupted carries the poll error out of the deep minimization loops.
type interrupted struct{ err error }

// MinimizeInterruptible is Minimize with a cooperative cancellation hook:
// poll (nil = never interrupt) is checked at cube granularity inside the
// EXPAND / IRREDUNDANT / REDUCE passes, and a non-nil return aborts the
// run with that error. The successful result is identical to Minimize's.
// A function wider than tt.MaxInputs is refused with an error wrapping
// tt.ErrTooWide.
func MinimizeInterruptible(on, dc *cube.Cover, poll func() error) (cov *cube.Cover, err error) {
	n := on.NumVars()
	if err := checkWidth(n); err != nil {
		return nil, err
	}
	if on.Len() == 0 {
		return cube.NewCover(n), nil
	}
	if dc == nil {
		dc = cube.NewCover(n)
	}
	defer recoverInterrupt(poll, &err)
	return minimizeDense(n, coverSet(n, on), coverSet(n, dc), on, poll), nil
}

// MinimizeSets is MinimizeInterruptible for a function given as minterm
// sets over n inputs (dc may be nil): the answer is identical to
// MinimizeInterruptible on the covers of on's and dc's minterms, but the
// sets are used as they are, without building covers.
func MinimizeSets(n int, on, dc *bitset.Set, poll func() error) (cov *cube.Cover, err error) {
	if err := checkWidth(n); err != nil {
		return nil, err
	}
	if on.None() {
		return cube.NewCover(n), nil
	}
	defer recoverInterrupt(poll, &err)
	return minimizeDense(n, on, dc, nil, poll), nil
}

// checkWidth refuses functions the dense engine does not admit.
func checkWidth(n int) error {
	if n > tt.MaxInputs {
		return fmt.Errorf("espresso: %d inputs: %w", n, tt.ErrTooWide)
	}
	return nil
}

// recoverInterrupt, deferred by the entry points, turns the panic check
// raises into the poll error; other panics propagate.
func recoverInterrupt(poll func() error, err *error) {
	if poll == nil {
		return
	}
	if r := recover(); r != nil {
		ie, ok := r.(interrupted)
		if !ok {
			panic(r)
		}
		*err = ie.err
	}
}

// check aborts the minimization via panic when poll reports an error; the
// panic is recovered at the entry point's recoverInterrupt.
func check(poll func() error) {
	if poll == nil {
		return
	}
	if err := poll(); err != nil {
		panic(interrupted{err})
	}
}
