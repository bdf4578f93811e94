// Package exact is a Quine-McCluskey / branch-and-bound two-level
// minimizer: it computes all prime implicants of on∪dc and solves the
// covering problem exactly (minimum cube count, literal count as the
// tiebreak). It is exponential and intended for small functions
// (n ≲ 10); the repository uses it as a quality oracle for the heuristic
// espresso engine and for exact minimal-SOP data in the Fig. 2
// reproduction.
package exact

import (
	"context"
	"fmt"
	"sort"

	"relsyn/internal/bitset"
	"relsyn/internal/cube"
	"relsyn/internal/par"
	"relsyn/internal/tt"
)

// Limits bound the search so callers get an error instead of a hang.
type Limits struct {
	MaxPrimes int // abort prime generation beyond this many (default 20000)
	MaxNodes  int // abort branch & bound beyond this many nodes (default 1 << 22)
	// Parallelism caps the worker count of the prime-generation adjacency
	// merge (0 = GOMAXPROCS, 1 = sequential). It never changes results:
	// the merge is a set union folded in deterministic group order.
	Parallelism int
}

func (l *Limits) defaults() {
	if l.MaxPrimes == 0 {
		l.MaxPrimes = 20000
	}
	if l.MaxNodes == 0 {
		l.MaxNodes = 1 << 22
	}
}

// implicant is a (values, dcMask) pair: bit i of dcMask set means
// variable i is unbound; otherwise bit i of values gives the literal.
type implicant struct {
	values, mask uint32
}

func (im implicant) covers(m uint32) bool {
	return (m &^ im.mask) == im.values
}

func (im implicant) toCube(n int) cube.Cube {
	c := cube.New(n)
	for v := 0; v < n; v++ {
		if im.mask>>uint(v)&1 == 1 {
			continue
		}
		if im.values>>uint(v)&1 == 1 {
			c = c.SetVal(v, cube.One)
		} else {
			c = c.SetVal(v, cube.Zero)
		}
	}
	return c
}

// Primes returns every prime implicant of the function on∪dc, for a
// function given as a dense spec output, with full machine parallelism.
func Primes(f *tt.Function, o int, lim Limits) ([]cube.Cube, error) {
	return PrimesCtx(context.Background(), f, o, lim)
}

// PrimesCtx is Primes with cooperative cancellation and the parallelism
// cap taken from lim.Parallelism. A function wider than tt.MaxInputs is
// refused with an error wrapping tt.ErrTooWide.
func PrimesCtx(ctx context.Context, f *tt.Function, o int, lim Limits) ([]cube.Cube, error) {
	lim.defaults()
	if f.NumIn > tt.MaxInputs {
		return nil, fmt.Errorf("exact: %d inputs: %w", f.NumIn, tt.ErrTooWide)
	}
	return primesKernel(ctx, f, o, lim)
}

// sortedCubes canonicalizes a prime list: sorted by (mask, values) so
// the output is identical regardless of which merge produced it.
func sortedCubes(primes []implicant, n int, lim Limits) ([]cube.Cube, error) {
	if len(primes) > lim.MaxPrimes {
		return nil, fmt.Errorf("exact: more than %d primes", lim.MaxPrimes)
	}
	sort.Slice(primes, func(i, j int) bool {
		if primes[i].mask != primes[j].mask {
			return primes[i].mask < primes[j].mask
		}
		return primes[i].values < primes[j].values
	})
	cubes := make([]cube.Cube, len(primes))
	for i, im := range primes {
		cubes[i] = im.toCube(n)
	}
	return cubes, nil
}

// maskedSet carries the merge output for one (source mask, merge bit)
// pair: the set of lower-endpoint values that merged, tagged with the
// widened mask they produce.
type maskedSet struct {
	mask uint32
	set  *bitset.Set
}

// maskMergeResult is one mask group's merge output: the merged
// lower-endpoint sets per widened mask and the union of every value
// consumed by at least one merge.
type maskMergeResult struct {
	merged []maskedSet
	used   *bitset.Set
}

// primesKernel is the word-parallel Quine-McCluskey merge. Implicants
// sharing a DC mask form one dense bitset S over the 2^n value space,
// and the classic adjacency merge along variable b becomes pure set
// algebra:
//
//	mergeable_b = S ∩ shift_b(S) ∩ {values with bit b = 0}
//	used_b      = mergeable_b ∪ shift_b(mergeable_b)
//
// — every (v, v|2^b) pair in S merges, 64 candidates per word op,
// instead of the scalar cross-product over popcount groups. Mask groups
// are independent, so they fan out through the shared work pool; the
// fold into the next level's groups runs sequentially in ascending mask
// order, and the final (mask, values) sort makes the output identical
// to the scalar merge (the oracle in exact_test.go) at every parallelism
// level.
func primesKernel(ctx context.Context, f *tt.Function, o int, lim Limits) ([]cube.Cube, error) {
	n := f.NumIn
	size := f.Size()
	out := f.Outs[o]

	// Level 0: all care-1 minterms (on ∪ dc) under the empty mask.
	care := out.On.Union(out.DC)
	cur := map[uint32]*bitset.Set{}
	if care.Any() {
		cur[0] = care
	}
	// Half-plane masks: varPat[b] selects values whose bit b is 1.
	varPat := make([]*bitset.Set, n)
	for b := range varPat {
		varPat[b] = bitset.VarPattern(size, b)
	}

	var primes []implicant
	for len(cur) > 0 {
		masks := make([]uint32, 0, len(cur))
		for mask := range cur {
			masks = append(masks, mask)
		}
		sort.Slice(masks, func(i, j int) bool { return masks[i] < masks[j] })

		results := make([]maskMergeResult, len(masks))
		err := par.Do(ctx, lim.Parallelism, len(masks), func(i int) error {
			mask := masks[i]
			s := cur[mask]
			res := maskMergeResult{used: bitset.New(size)}
			for b := 0; b < n; b++ {
				if mask>>uint(b)&1 == 1 {
					continue
				}
				lower := s.Intersect(s.ShiftNeighbor(b))
				lower.InPlaceDifference(varPat[b])
				if lower.None() {
					continue
				}
				res.used.InPlaceUnion(lower)
				res.used.InPlaceUnion(lower.ShiftNeighbor(b))
				res.merged = append(res.merged, maskedSet{mask: mask | 1<<uint(b), set: lower})
			}
			results[i] = res
			return nil
		})
		if err != nil {
			return nil, err
		}

		next := map[uint32]*bitset.Set{}
		for i, mask := range masks {
			res := results[i]
			// Implicants untouched by any merge are prime at this level.
			rem := cur[mask].Difference(res.used)
			overflow := false
			rem.ForEach(func(v int) {
				primes = append(primes, implicant{values: uint32(v), mask: mask})
				if len(primes) > lim.MaxPrimes {
					overflow = true
				}
			})
			if overflow {
				return nil, fmt.Errorf("exact: more than %d primes", lim.MaxPrimes)
			}
			for _, ms := range res.merged {
				if ex, ok := next[ms.mask]; ok {
					ex.InPlaceUnion(ms.set)
				} else {
					next[ms.mask] = ms.set
				}
			}
		}
		cur = next
	}
	return sortedCubes(primes, n, lim)
}

// Minimize returns a minimum-cube-count cover of output o of f (ties
// broken toward fewer literals), using all primes of on∪dc and exact
// branch-and-bound covering of the on-set.
func Minimize(f *tt.Function, o int, lim Limits) (*cube.Cover, error) {
	lim.defaults()
	n := f.NumIn
	primeCubes, err := Primes(f, o, lim)
	if err != nil {
		return nil, err
	}
	onMin := f.Outs[o].On.Indices()
	if len(onMin) == 0 {
		return cube.NewCover(n), nil
	}

	// Covering matrix: rows = on-set minterms, cols = primes.
	rows := len(onMin)
	cols := len(primeCubes)
	coverRows := make([][]int, rows) // prime indices covering each minterm
	coveredBy := make([][]int, cols) // minterm row indices per prime
	for r, m := range onMin {
		for c, p := range primeCubes {
			if p.ContainsMinterm(uint(m)) {
				coverRows[r] = append(coverRows[r], c)
				coveredBy[c] = append(coveredBy[c], r)
			}
		}
		if len(coverRows[r]) == 0 {
			return nil, fmt.Errorf("exact: on-set minterm %d uncovered by primes", onMin[r])
		}
	}

	solver := &bnb{
		rows: rows, cols: cols,
		coverRows: coverRows, coveredBy: coveredBy,
		lits:     make([]int, cols),
		maxNodes: lim.MaxNodes,
	}
	for c, p := range primeCubes {
		solver.lits[c] = p.NumLiterals()
	}
	sel, err := solver.solve()
	if err != nil {
		return nil, err
	}
	cv := cube.NewCover(n)
	for _, c := range sel {
		cv.Add(primeCubes[c])
	}
	cv.Sort()
	return cv, nil
}

// bnb is an exact set-cover solver: essential extraction, greedy upper
// bound, and depth-first branch and bound with an independent-row lower
// bound. Cost order: (cube count, literal count).
type bnb struct {
	rows, cols int
	coverRows  [][]int
	coveredBy  [][]int
	lits       []int
	maxNodes   int
	nodes      int

	bestSel  []int
	bestCost [2]int // cubes, literals
}

func (s *bnb) solve() ([]int, error) {
	// Greedy initial solution for the upper bound.
	s.bestSel = s.greedy()
	s.bestCost = s.costOf(s.bestSel)

	uncovered := make([]bool, s.rows)
	for i := range uncovered {
		uncovered[i] = true
	}
	if err := s.search(nil, uncovered, s.rows); err != nil {
		return nil, err
	}
	sort.Ints(s.bestSel)
	return s.bestSel, nil
}

func (s *bnb) costOf(sel []int) [2]int {
	l := 0
	for _, c := range sel {
		l += s.lits[c]
	}
	return [2]int{len(sel), l}
}

func less(a, b [2]int) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}

func (s *bnb) greedy() []int {
	covered := make([]bool, s.rows)
	remaining := s.rows
	var sel []int
	for remaining > 0 {
		best, bestGain, bestLits := -1, -1, 0
		for c := 0; c < s.cols; c++ {
			gain := 0
			for _, r := range s.coveredBy[c] {
				if !covered[r] {
					gain++
				}
			}
			if gain > bestGain || (gain == bestGain && s.lits[c] < bestLits) {
				best, bestGain, bestLits = c, gain, s.lits[c]
			}
		}
		if bestGain <= 0 {
			break
		}
		sel = append(sel, best)
		for _, r := range s.coveredBy[best] {
			if !covered[r] {
				covered[r] = true
				remaining--
			}
		}
	}
	return sel
}

// lowerBound counts a set of pairwise "independent" uncovered rows (no
// shared covering prime): each needs its own cube.
func (s *bnb) lowerBound(uncovered []bool) int {
	blocked := make([]bool, s.cols)
	lb := 0
	for r := 0; r < s.rows; r++ {
		if !uncovered[r] {
			continue
		}
		free := true
		for _, c := range s.coverRows[r] {
			if blocked[c] {
				free = false
				break
			}
		}
		if free {
			lb++
			for _, c := range s.coverRows[r] {
				blocked[c] = true
			}
		}
	}
	return lb
}

func (s *bnb) search(sel []int, uncovered []bool, remaining int) error {
	s.nodes++
	if s.nodes > s.maxNodes {
		return fmt.Errorf("exact: branch-and-bound exceeded %d nodes", s.maxNodes)
	}
	if remaining == 0 {
		cost := s.costOf(sel)
		if less(cost, s.bestCost) {
			s.bestCost = cost
			s.bestSel = append([]int(nil), sel...)
		}
		return nil
	}
	if len(sel)+s.lowerBound(uncovered) > s.bestCost[0] {
		return nil
	}
	// Branch on the uncovered row with the fewest covering primes.
	bestRow, bestLen := -1, 1<<30
	for r := 0; r < s.rows; r++ {
		if uncovered[r] && len(s.coverRows[r]) < bestLen {
			bestRow, bestLen = r, len(s.coverRows[r])
		}
	}
	for _, c := range s.coverRows[bestRow] {
		var newly []int
		for _, r := range s.coveredBy[c] {
			if uncovered[r] {
				uncovered[r] = false
				newly = append(newly, r)
			}
		}
		if err := s.search(append(sel, c), uncovered, remaining-len(newly)); err != nil {
			return err
		}
		for _, r := range newly {
			uncovered[r] = true
		}
	}
	return nil
}
