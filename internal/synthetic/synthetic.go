// Package synthetic generates benchmark functions with designated
// structure, reproducing the paper's §2.2 methodology: completely random
// functions ("flipping a three-sided coin for each minterm") bear little
// resemblance to published benchmarks, so functions are instead generated
// to a target complexity factor C^f by seeded local search, which lets
// the experiments sweep functionality from XOR-like (C^f→0) to
// constant-like (C^f→1) at a fixed DC density.
package synthetic

import (
	"fmt"
	"math"
	"math/rand"

	"relsyn/internal/census"
	"relsyn/internal/tt"
)

// Params configures Generate.
type Params struct {
	Inputs     int
	Outputs    int
	DCFraction float64 // fraction of each output's minterms that are DC
	TargetCf   float64 // per-output complexity factor to steer toward
	// OnFraction, when positive, fixes the on-set to this fraction of the
	// whole minterm space (it must leave room for the DC set); the search
	// then uses only count-preserving swap moves, so all three signal
	// probabilities are exact. Zero means "balanced care set, free to
	// drift", which lets the search also flip care minterms.
	OnFraction float64
	Tolerance  float64 // acceptable |C^f−target| (default 0.01)
	Seed       int64
	MaxIters   int // local-search move budget per output (default 60·2^n)
	// BestEffort returns the closest function found instead of an error
	// when the target C^f is not reached within tolerance (useful when
	// sweeping targets toward the feasibility boundary, e.g. Fig. 2).
	BestEffort bool
}

// Random generates a function by independent per-minterm sampling with
// the given phase probabilities (the paper's "three-sided coin").
func Random(n, m int, p0, p1, pdc float64, seed int64) (*tt.Function, error) {
	if err := checkProbs(p0, p1, pdc); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	f := tt.New(n, m)
	for o := 0; o < m; o++ {
		for mm := 0; mm < f.Size(); mm++ {
			r := rng.Float64()
			switch {
			case r < p1:
				f.SetPhase(o, mm, tt.On)
			case r < p1+pdc:
				f.SetPhase(o, mm, tt.DC)
			}
		}
	}
	return f, nil
}

func checkProbs(p0, p1, pdc float64) error {
	for _, p := range []float64{p0, p1, pdc} {
		if p < 0 || p > 1 {
			return fmt.Errorf("synthetic: probability %v outside [0,1]", p)
		}
	}
	if s := p0 + p1 + pdc; math.Abs(s-1) > 1e-9 {
		return fmt.Errorf("synthetic: probabilities sum to %v, want 1", s)
	}
	return nil
}

// Generate produces a function whose per-output complexity factor is
// steered to Params.TargetCf by local search over phase flips and
// DC-position swaps, at exactly the requested DC density.
func Generate(p Params) (*tt.Function, error) {
	if p.Inputs < 1 || p.Inputs > tt.MaxInputs {
		return nil, fmt.Errorf("synthetic: inputs %d outside [1,%d]", p.Inputs, tt.MaxInputs)
	}
	if p.Outputs < 1 {
		return nil, fmt.Errorf("synthetic: need at least one output")
	}
	if p.DCFraction < 0 || p.DCFraction > 1 {
		return nil, fmt.Errorf("synthetic: DC fraction %v outside [0,1]", p.DCFraction)
	}
	if p.TargetCf < 0 || p.TargetCf > 1 {
		return nil, fmt.Errorf("synthetic: target C^f %v outside [0,1]", p.TargetCf)
	}
	if p.OnFraction < 0 || p.OnFraction+p.DCFraction > 1 {
		return nil, fmt.Errorf("synthetic: on fraction %v incompatible with DC fraction %v",
			p.OnFraction, p.DCFraction)
	}
	tol := p.Tolerance
	if tol <= 0 {
		tol = 0.01
	}
	size := 1 << uint(p.Inputs)
	iters := p.MaxIters
	if iters <= 0 {
		iters = 60 * size
	}
	rng := rand.New(rand.NewSource(p.Seed))
	f := tt.New(p.Inputs, p.Outputs)
	for o := 0; o < p.Outputs; o++ {
		if err := generateOutput(f, o, p, tol, iters, rng); err != nil {
			return nil, err
		}
	}
	return f, nil
}

func generateOutput(f *tt.Function, o int, p Params, tol float64, iters int, rng *rand.Rand) error {
	n, size := p.Inputs, f.Size()
	// Initial layout: exact DC count at random positions; care minterms
	// split per OnFraction (default: evenly).
	dcCount := int(math.Round(p.DCFraction * float64(size)))
	lockBalance := p.OnFraction > 0
	onCount := (size - dcCount + 1) / 2
	if lockBalance {
		onCount = int(math.Round(p.OnFraction * float64(size)))
		if onCount > size-dcCount {
			onCount = size - dcCount
		}
	}
	perm := rng.Perm(size)
	for i, m := range perm {
		switch {
		case i < dcCount:
			f.SetPhase(o, m, tt.DC)
		case i < dcCount+onCount:
			f.SetPhase(o, m, tt.On)
		default:
			f.SetPhase(o, m, tt.Off)
		}
	}

	totalPairs := n * size // normalization denominator
	target := int(math.Round(p.TargetCf * float64(totalPairs)))
	tolPairs := int(math.Ceil(tol * float64(totalPairs)))
	cur := samePairs(f, o)

	// Hill climbing descends easily (disordering) but ascends poorly
	// (coarsening). Pick a start on the easy side of the target:
	// for very low targets on fully specified functions, start from a
	// k-variable parity (C^f = (n−k)/n ≤ target) and ascend locally;
	// for targets above the random start, restart from a "blocky" layout
	// — phases assigned to natural-index prefixes, which are unions of
	// subcubes and hence near-maximal C^f — and descend.
	if !lockBalance && dcCount == 0 && float64(target) < float64(cur) && p.TargetCf < 0.45 {
		// Start one parity order below the target so the search must mix in
		// random flips on the way up — landing exactly on a pure k-parity
		// would yield a degenerate (reduced-support) function.
		k := int(math.Ceil(float64(n)*(1-p.TargetCf))) + 1
		if k < 1 {
			k = 1
		}
		if k > n {
			k = n
		}
		mask := (1 << uint(k)) - 1 // parity over the low k variables
		for m := 0; m < size; m++ {
			if parity(m & mask) {
				f.SetPhase(o, m, tt.On)
			} else {
				f.SetPhase(o, m, tt.Off)
			}
		}
		cur = samePairs(f, o)
	}
	if target > cur {
		for m := 0; m < size; m++ {
			switch {
			case m < dcCount:
				f.SetPhase(o, m, tt.DC)
			case m < dcCount+onCount:
				f.SetPhase(o, m, tt.On)
			default:
				f.SetPhase(o, m, tt.Off)
			}
		}
		cur = samePairs(f, o)
	}

	dist := func(v int) int {
		d := v - target
		if d < 0 {
			return -d
		}
		return d
	}

	// If the blocky start already sits inside the tolerance band, the
	// search would return it untouched — a degenerate prefix-of-subcubes
	// layout (in the fully specified balanced case, a single literal).
	// Apply a small swap perturbation, sized so annealing can recover the
	// target, to give the function realistic texture.
	if dist(cur) <= tolPairs {
		swaps := tolPairs / (8 * n)
		if swaps < 3 {
			swaps = 3
		}
		cur = perturb(f, o, rng, swaps)
	}

	snapshot := func() (*tt.Function, int) {
		g := tt.New(n, 1)
		g.Outs[0].On.Copy(f.Outs[o].On)
		g.Outs[0].DC.Copy(f.Outs[o].DC)
		return g, cur
	}
	restore := func(g *tt.Function) {
		f.Outs[o].On.Copy(g.Outs[0].On)
		f.Outs[o].DC.Copy(g.Outs[0].DC)
	}
	best, bestCur := snapshot()

	// Simulated annealing: plateaus are common when coarsening toward
	// high C^f, so worsening moves are accepted with a decaying
	// temperature; the best-seen state is kept.
	t0, tEnd := float64(2*n), 0.05
	for it := 0; it < iters && dist(bestCur) > tolPairs; it++ {
		temp := t0 * math.Pow(tEnd/t0, float64(it)/float64(iters))
		var delta int
		var apply func()
		if lockBalance || rng.Intn(3) == 0 {
			// Swap the phases of a random pair of minterms (keeps all three
			// set sizes, can relocate DCs).
			a, b := rng.Intn(size), rng.Intn(size)
			pa, pb := f.Phase(o, a), f.Phase(o, b)
			if a == b || pa == pb {
				continue
			}
			delta = swapDelta(f, o, a, b)
			apply = func() {
				f.SetPhase(o, a, pb)
				f.SetPhase(o, b, pa)
			}
		} else {
			// Flip a care minterm between on and off (keeps DC density).
			m := rng.Intn(size)
			ph := f.Phase(o, m)
			if ph == tt.DC {
				continue
			}
			q := tt.On
			if ph == tt.On {
				q = tt.Off
			}
			delta = flipDelta(f, o, m, q)
			mm, qq := m, q
			apply = func() { f.SetPhase(o, mm, qq) }
		}
		next := cur + delta
		worse := dist(next) - dist(cur)
		if worse <= 0 || rng.Float64() < math.Exp(-float64(worse)/temp) {
			apply()
			cur = next
			if dist(cur) < dist(bestCur) {
				best, bestCur = snapshot()
			}
		}
	}
	restore(best)
	if dist(bestCur) > tolPairs && !p.BestEffort {
		return fmt.Errorf("synthetic: output %d stuck at C^f=%.3f (target %.3f)",
			o, float64(bestCur)/float64(totalPairs), p.TargetCf)
	}
	return nil
}

// perturb swaps the phases of `swaps` random minterm pairs and returns
// the recounted pair total.
func perturb(f *tt.Function, o int, rng *rand.Rand, swaps int) int {
	size := f.Size()
	for i := 0; i < swaps; i++ {
		a, b := rng.Intn(size), rng.Intn(size)
		pa, pb := f.Phase(o, a), f.Phase(o, b)
		f.SetPhase(o, a, pb)
		f.SetPhase(o, b, pa)
	}
	return samePairs(f, o)
}

func parity(x int) bool {
	p := false
	for x != 0 {
		p = !p
		x &= x - 1
	}
	return p
}

// samePairs counts ordered same-phase neighbor pairs for output o.
func samePairs(f *tt.Function, o int) int {
	return census.Output(f, o).SamePhasePairs()
}

// flipDelta returns the change in ordered same-phase pair count if
// minterm m's phase becomes q.
func flipDelta(f *tt.Function, o, m int, q tt.Phase) int {
	p := f.Phase(o, m)
	d := 0
	for b := 0; b < f.NumIn; b++ {
		nb := f.Phase(o, m^(1<<uint(b)))
		if nb == q {
			d++
		}
		if nb == p {
			d--
		}
	}
	return 2 * d // both pair orientations
}

// swapDelta returns the pair-count change for exchanging the phases of
// minterms a and b, by applying the swap, re-counting the affected local
// pairs, and reverting. Correctly handles a and b being 1-Hamming
// neighbors of each other.
func swapDelta(f *tt.Function, o, a, b int) int {
	pa, pb := f.Phase(o, a), f.Phase(o, b)
	before := localOrderedPairs(f, o, a, b)
	f.SetPhase(o, a, pb)
	f.SetPhase(o, b, pa)
	after := localOrderedPairs(f, o, a, b)
	f.SetPhase(o, a, pa)
	f.SetPhase(o, b, pb)
	return after - before
}

// localOrderedPairs counts the ordered same-phase neighbor pairs that
// involve minterm a or b, counting the (a,b) pair itself exactly twice
// (once per orientation) like the global tally does.
func localOrderedPairs(f *tt.Function, o, a, b int) int {
	s := 0
	for _, m := range [2]int{a, b} {
		pm := f.Phase(o, m)
		for bit := 0; bit < f.NumIn; bit++ {
			nb := m ^ (1 << uint(bit))
			if (nb == a || nb == b) && m > nb {
				continue // partner pair: count from the lower side only
			}
			if pm == f.Phase(o, nb) {
				s += 2 // both orientations of the (m, nb) pair
			}
		}
	}
	return s
}
