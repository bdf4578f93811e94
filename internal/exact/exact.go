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
	"math/bits"
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

// mergeResult is the output of one popcount-group adjacency-merge task:
// the implicants produced by merging group pc with group pc+1 and the
// inputs consumed by at least one merge. Tasks write only their own
// slot; the fold into sets happens sequentially in group order, so the
// (sorted) prime list is identical at every parallelism level.
type mergeResult struct {
	merged []implicant
	used   []implicant
}

// kernelMaxInputs bounds the word-parallel merge: it represents each
// mask group as a dense 2^n-bit set, which is the winning trade for the
// small functions exact minimization targets (n ≲ 10) but would cost
// 2^n bits per live mask on adversarially large inputs. Above the bound
// PrimesCtx uses the scalar merge.
const kernelMaxInputs = 16

// PrimesCtx is Primes with cooperative cancellation and the parallelism
// cap taken from lim.Parallelism. It picks the word-parallel mask-group
// merge up to kernelMaxInputs inputs and the scalar popcount-group
// merge above; both produce the identical sorted prime list.
func PrimesCtx(ctx context.Context, f *tt.Function, o int, lim Limits) ([]cube.Cube, error) {
	lim.defaults()
	n := f.NumIn
	if n > 20 {
		return nil, fmt.Errorf("exact: %d inputs too large", n)
	}
	if n <= kernelMaxInputs {
		return primesKernel(ctx, f, o, lim)
	}
	return primesScalar(ctx, f, o, lim)
}

// PrimesScalarCtx is PrimesCtx pinned to the scalar popcount-group
// merge, for differential tests that cross-check the kernel path.
func PrimesScalarCtx(ctx context.Context, f *tt.Function, o int, lim Limits) ([]cube.Cube, error) {
	lim.defaults()
	n := f.NumIn
	if n > 20 {
		return nil, fmt.Errorf("exact: %d inputs too large", n)
	}
	return primesScalar(ctx, f, o, lim)
}

// primesScalar is the pre-kernel Quine-McCluskey merge: each level
// groups implicants by popcount of values and merges the per-popcount
// group pairs (pc, pc+1) concurrently — the pairs are independent, so
// they fan out through the shared work pool while the union of their
// results is folded deterministically.
func primesScalar(ctx context.Context, f *tt.Function, o int, lim Limits) ([]cube.Cube, error) {
	n := f.NumIn
	// Level 0: all care-1 minterms (on ∪ dc).
	cur := map[implicant]bool{}
	out := f.Outs[o]
	for m := 0; m < f.Size(); m++ {
		if out.On.Test(m) || out.DC.Test(m) {
			cur[implicant{values: uint32(m)}] = true
		}
	}
	var primes []implicant
	for len(cur) > 0 {
		// Group by popcount of values for the classic adjacency merge.
		groups := map[int][]implicant{}
		for im := range cur {
			groups[bits.OnesCount32(im.values)] = append(groups[bits.OnesCount32(im.values)], im)
		}
		// The (pc, pc+1) group pairs are independent merge tasks; run
		// them concurrently, each writing only results[i]. groups is
		// read-only during the fan-out.
		pcs := make([]int, 0, len(groups))
		for pc := range groups {
			pcs = append(pcs, pc)
		}
		sort.Ints(pcs)
		results := make([]mergeResult, len(pcs))
		err := par.Do(ctx, lim.Parallelism, len(pcs), func(i int) error {
			g, next := groups[pcs[i]], groups[pcs[i]+1]
			var res mergeResult
			for _, a := range g {
				for _, b := range next {
					if a.mask != b.mask {
						continue
					}
					diff := a.values ^ b.values
					if bits.OnesCount32(diff) != 1 {
						continue
					}
					nm := implicant{values: a.values &^ diff, mask: a.mask | diff}
					res.merged = append(res.merged, nm)
					res.used = append(res.used, a, b)
				}
			}
			results[i] = res
			return nil
		})
		if err != nil {
			return nil, err
		}
		merged := map[implicant]bool{}
		used := map[implicant]bool{}
		for _, res := range results {
			for _, im := range res.merged {
				merged[im] = true
			}
			for _, im := range res.used {
				used[im] = true
			}
		}
		for im := range cur {
			if !used[im] {
				primes = append(primes, im)
				if len(primes) > lim.MaxPrimes {
					return nil, fmt.Errorf("exact: more than %d primes", lim.MaxPrimes)
				}
			}
		}
		cur = merged
	}
	return sortedCubes(primes, n, lim)
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
// to the scalar merge at every parallelism level.
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
