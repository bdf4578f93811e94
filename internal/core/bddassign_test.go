package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"relsyn/internal/bdd"
	"relsyn/internal/tt"
)

// An independent oracle for the census-backed assignment passes: the
// same algorithms run over BDD set representations, the way the
// paper's tool does with CUDD (§3: "the on-set, off-set, and DC-set
// are independently maintained and manipulated using the CUDD BDD
// package"). Neighbor membership tests use per-variable set flips
// (Manager.FlipVar); DC minterms are enumerated straight off the
// DC-set BDD. The dense passes must be bit-identical to it: same
// function, same assignment list, same order.

// outSets holds one output's three sets and their per-variable flips.
type outSets struct {
	man     *bdd.Manager
	on, off bdd.Ref
	dc      bdd.Ref
	onFlip  []bdd.Ref // onFlip[b] = {x : x⊕e_b ∈ on}
	offFlip []bdd.Ref
	dcFlip  []bdd.Ref
}

func newOutSets(f *tt.Function, o int) *outSets {
	n := f.NumIn
	man := bdd.New(n)
	s := &outSets{man: man}
	s.on = man.FromBitset(f.Outs[o].On)
	s.dc = man.FromBitset(f.Outs[o].DC)
	s.off = man.And(man.Not(s.on), man.Not(s.dc))
	for b := 0; b < n; b++ {
		s.onFlip = append(s.onFlip, man.FlipVar(s.on, b))
		s.offFlip = append(s.offFlip, man.FlipVar(s.off, b))
		s.dcFlip = append(s.dcFlip, man.FlipVar(s.dc, b))
	}
	return s
}

// neighborCounts returns minterm m's on- and off-neighbor counts using
// only BDD membership queries.
func (s *outSets) neighborCounts(m uint) (on, off int) {
	for b := range s.onFlip {
		if s.man.Eval(s.onFlip[b], m) {
			on++
		}
		if s.man.Eval(s.offFlip[b], m) {
			off++
		}
	}
	return on, off
}

// phase classifies minterm m from the set BDDs.
func (s *outSets) phase(m uint) tt.Phase {
	switch {
	case s.man.Eval(s.dc, m):
		return tt.DC
	case s.man.Eval(s.on, m):
		return tt.On
	default:
		return tt.Off
	}
}

// decideBDD mirrors decide using BDD queries.
func (s *outSets) decideBDD(o int, m uint, opt Options) (Assignment, bool) {
	on, off := s.neighborCounts(m)
	w := on - off
	if w < 0 {
		w = -w
	}
	a := Assignment{Output: o, Minterm: int(m), Weight: w}
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

// rankingBDD is Ranking computed over BDD set representations.
func rankingBDD(f *tt.Function, fraction float64, opt Options) (*Result, error) {
	if fraction < 0 || fraction > 1 {
		return nil, fmt.Errorf("core: fraction %v outside [0,1]", fraction)
	}
	res := newResult(f)
	for o := range f.Outs {
		if err := opt.check(); err != nil {
			return nil, err
		}
		s := newOutSets(f, o)
		var cands []Assignment
		s.man.ForEachMinterm(s.dc, func(m uint) bool {
			if a, ok := s.decideBDD(o, m, opt); ok {
				cands = append(cands, a)
			}
			return true
		})
		sort.SliceStable(cands, func(i, j int) bool {
			if cands[i].Weight != cands[j].Weight {
				return cands[i].Weight > cands[j].Weight
			}
			return cands[i].Minterm < cands[j].Minterm
		})
		k := int(math.Round(fraction * float64(len(cands))))
		res.apply(o, cands[:k])
	}
	return res, nil
}

// lcfBDD is LCF computed over BDD set representations. The local
// complexity factor of a DC minterm x sums, over x's neighbors y, the
// number of y's neighbors sharing y's phase — all via flipped-set
// membership queries.
func lcfBDD(f *tt.Function, threshold float64, opt Options) (*Result, error) {
	if threshold < 0 || threshold > 1 {
		return nil, fmt.Errorf("core: threshold %v outside [0,1]", threshold)
	}
	n := f.NumIn
	res := newResult(f)
	for o := range f.Outs {
		if err := opt.check(); err != nil {
			return nil, err
		}
		s := newOutSets(f, o)
		samePhaseNeighbors := func(y uint) int {
			var flips []bdd.Ref
			switch s.phase(y) {
			case tt.On:
				flips = s.onFlip
			case tt.Off:
				flips = s.offFlip
			default:
				flips = s.dcFlip
			}
			c := 0
			for b := 0; b < n; b++ {
				if s.man.Eval(flips[b], y) {
					c++
				}
			}
			return c
		}
		var sel []Assignment
		s.man.ForEachMinterm(s.dc, func(m uint) bool {
			total := 0
			for b := 0; b < n; b++ {
				total += samePhaseNeighbors(m ^ 1<<uint(b))
			}
			if float64(total)/float64(n*n) >= threshold {
				return true
			}
			if a, ok := s.decideBDD(o, m, opt); ok {
				sel = append(sel, a)
			}
			return true
		})
		// ForEachMinterm enumerates in bit-reversed order; the dense path
		// visits minterms in ascending order. Normalize for bit-identical
		// results.
		sort.Slice(sel, func(i, j int) bool { return sel[i].Minterm < sel[j].Minterm })
		res.apply(o, sel)
	}
	return res, nil
}

func resultsEqual(a, b *Result) bool {
	if !a.Func.Equal(b.Func) || len(a.Assigned) != len(b.Assigned) || a.TotalDCs != b.TotalDCs {
		return false
	}
	for i := range a.Assigned {
		if a.Assigned[i] != b.Assigned[i] {
			return false
		}
	}
	return true
}

func TestRankingBDDMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	for trial := 0; trial < 20; trial++ {
		f := randomFunction(rng, 3+rng.Intn(5), 1+rng.Intn(2), 0.5)
		for _, fr := range []float64{0, 0.3, 0.7, 1} {
			for _, opt := range []Options{{}, {AssignTies: true}} {
				dense, err := Ranking(f, fr, opt)
				if err != nil {
					t.Fatal(err)
				}
				viaBDD, err := rankingBDD(f, fr, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !resultsEqual(dense, viaBDD) {
					t.Fatalf("trial %d fr=%v opt=%+v: BDD ranking diverges from dense",
						trial, fr, opt)
				}
			}
		}
	}
}

func TestLCFBDDMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(152))
	for trial := 0; trial < 20; trial++ {
		f := randomFunction(rng, 3+rng.Intn(5), 1+rng.Intn(2), 0.5)
		for _, th := range []float64{0, 0.4, 0.6, 1} {
			dense, err := LCF(f, th, Options{})
			if err != nil {
				t.Fatal(err)
			}
			viaBDD, err := lcfBDD(f, th, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !resultsEqual(dense, viaBDD) {
				t.Fatalf("trial %d th=%v: BDD LCF diverges from dense", trial, th)
			}
		}
	}
}

func TestBDDVariantsValidateParameters(t *testing.T) {
	f := tt.New(3, 1)
	if _, err := rankingBDD(f, -0.5, Options{}); err == nil {
		t.Fatal("negative fraction accepted")
	}
	if _, err := lcfBDD(f, 2, Options{}); err == nil {
		t.Fatal("threshold > 1 accepted")
	}
}

// quick-check style property: for random seeds, the two paths agree on
// the count of assignments at a random threshold.
func TestBDDLCFCountProperty(t *testing.T) {
	f := func(seed int64, thRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		fn := randomFunction(rng, 5, 1, 0.6)
		th := float64(thRaw%100) / 100
		a, err1 := LCF(fn, th, Options{})
		b, err2 := lcfBDD(fn, th, Options{})
		if err1 != nil || err2 != nil {
			return false
		}
		return len(a.Assigned) == len(b.Assigned)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRankingDense8(b *testing.B) {
	rng := rand.New(rand.NewSource(153))
	f := randomFunction(rng, 8, 2, 0.6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Ranking(f, 1, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRankingBDD8(b *testing.B) {
	rng := rand.New(rand.NewSource(153))
	f := randomFunction(rng, 8, 2, 0.6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rankingBDD(f, 1, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
