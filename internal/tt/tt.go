// Package tt represents incompletely specified multi-output Boolean
// functions as dense truth tables.
//
// Every output is a partition of the 2^n minterm space into on-set,
// off-set, and DC-set, stored as two bitsets (on, dc); the off-set is
// implicit. All of the paper's metrics — complexity factor, error rates,
// border counts — are Θ(n·2^n) bulk scans over this representation, which
// is exact and fast for the spec sizes admitted (n ≤ MaxInputs).
package tt

import (
	"errors"
	"fmt"

	"relsyn/internal/bitset"
	"relsyn/internal/cube"
)

// ErrZeroOutputs is returned (wrapped) wherever a zero-output function
// is rejected: by Validate, by the .pla boundary (pla.File.ToFunction),
// and by every per-output mean metric in internal/{reliability,
// complexity, estimate}. A function with no outputs has no per-output
// mean — before this sentinel existed the mean helpers silently divided
// by zero and returned NaN.
var ErrZeroOutputs = errors.New("tt: function has zero outputs")

// MaxInputs is the widest function the dense engine admits: every
// two-level minimization, census and assignment runs over 2^n-minterm
// bitsets, which stay cache-resident and bounded in cost up to here.
// Specs enter through the .pla boundary (pla.Parse, pla.File.ToFunction),
// which refuses anything wider with ErrTooWide (and anything with more
// than MaxCells cells with ErrTooLarge). Wider logic is a network
// (BLIF) job, which never builds a dense table of its primary inputs.
const MaxInputs = 16

// ErrTooWide is returned (wrapped) wherever a spec wider than MaxInputs
// is refused: by the .pla boundary, and by the dense entry points of
// internal/espresso and internal/exact.
var ErrTooWide = fmt.Errorf("tt: spec wider than %d inputs", MaxInputs)

// MaxCells bounds the dense table of an admitted spec: NumOut·2^NumIn,
// the (output, minterm) cells its bitsets hold. Width alone does not
// bound a spec's cost, which is linear in its output count: a 16-input
// header with 200 outputs asks for 13M cells before any row is read.
// The bound is 85× the largest suite spec (random1–3, 49,152 cells).
const MaxCells = 1 << 22

// ErrTooLarge is returned (wrapped) wherever a spec with more than
// MaxCells cells is refused: by the .pla boundary, as soon as both its
// .i and .o headers are known.
var ErrTooLarge = fmt.Errorf("tt: spec larger than %d output-minterm cells", MaxCells)

// Phase classifies a minterm with respect to one output.
type Phase uint8

// Minterm phases.
const (
	Off Phase = iota
	On
	DC
)

func (p Phase) String() string {
	switch p {
	case Off:
		return "off"
	case On:
		return "on"
	case DC:
		return "dc"
	default:
		return fmt.Sprintf("Phase(%d)", uint8(p))
	}
}

// Output is one output column of a function: the sets of minterms mapped
// to 1 (On) and to don't-care (DC). Minterms in neither set are 0.
// On and DC must stay disjoint; mutating methods preserve this.
type Output struct {
	On *bitset.Set
	DC *bitset.Set
}

// Function is an incompletely specified function of NumIn inputs with one
// Output per element of Outs.
type Function struct {
	Name  string
	NumIn int
	Outs  []Output
}

// New returns an all-zero (fully specified) function with n inputs and m
// outputs.
func New(n, m int) *Function {
	if n < 0 || n > 30 {
		panic(fmt.Sprintf("tt: unsupported input count %d", n))
	}
	f := &Function{NumIn: n, Outs: make([]Output, m)}
	for i := range f.Outs {
		f.Outs[i] = Output{On: bitset.New(1 << uint(n)), DC: bitset.New(1 << uint(n))}
	}
	return f
}

// Size returns the number of minterms, 2^NumIn.
func (f *Function) Size() int { return 1 << uint(f.NumIn) }

// NumOut returns the number of outputs.
func (f *Function) NumOut() int { return len(f.Outs) }

// Clone returns a deep copy.
func (f *Function) Clone() *Function {
	g := &Function{Name: f.Name, NumIn: f.NumIn, Outs: make([]Output, len(f.Outs))}
	for i, o := range f.Outs {
		g.Outs[i] = Output{On: o.On.Clone(), DC: o.DC.Clone()}
	}
	return g
}

// Phase returns the phase of minterm m for output o.
func (f *Function) Phase(o, m int) Phase {
	out := f.Outs[o]
	switch {
	case out.DC.Test(m):
		return DC
	case out.On.Test(m):
		return On
	default:
		return Off
	}
}

// SetPhase sets the phase of minterm m for output o.
func (f *Function) SetPhase(o, m int, p Phase) {
	out := f.Outs[o]
	out.On.SetTo(m, p == On)
	out.DC.SetTo(m, p == DC)
}

// Validate checks the representation invariant: the function has at
// least one output, and for every output the on-set and DC-set are
// disjoint and sized to 2^NumIn.
func (f *Function) Validate() error {
	if len(f.Outs) == 0 {
		return ErrZeroOutputs
	}
	for i, o := range f.Outs {
		if o.On.Len() != f.Size() || o.DC.Len() != f.Size() {
			return fmt.Errorf("tt: output %d sets sized %d/%d, want %d", i, o.On.Len(), o.DC.Len(), f.Size())
		}
		if o.On.IntersectsWith(o.DC) {
			return fmt.Errorf("tt: output %d has minterms both on and DC", i)
		}
	}
	return nil
}

// Equal reports whether two functions have identical phase assignments.
func (f *Function) Equal(g *Function) bool {
	if f.NumIn != g.NumIn || len(f.Outs) != len(g.Outs) {
		return false
	}
	for i := range f.Outs {
		if !f.Outs[i].On.Equal(g.Outs[i].On) || !f.Outs[i].DC.Equal(g.Outs[i].DC) {
			return false
		}
	}
	return true
}

// OffSet returns output o's off-set as a freshly allocated bitset.
func (f *Function) OffSet(o int) *bitset.Set {
	out := f.Outs[o]
	off := out.On.Union(out.DC)
	return off.Complement()
}

// SignalProbabilities returns (f0, f1, fDC) for output o: the fractions of
// the minterm space in the off-, on-, and DC-sets (paper §3.1).
func (f *Function) SignalProbabilities(o int) (f0, f1, fdc float64) {
	total := float64(f.Size())
	on := float64(f.Outs[o].On.Count())
	dc := float64(f.Outs[o].DC.Count())
	return (total - on - dc) / total, on / total, dc / total
}

// DCFraction returns the fraction of all (minterm, output) pairs that are
// don't-care — the "%DC" column of paper Table 1.
func (f *Function) DCFraction() float64 {
	total := 0
	for _, o := range f.Outs {
		total += o.DC.Count()
	}
	return float64(total) / float64(f.Size()*len(f.Outs))
}

// CompletelySpecified reports whether no output has any DC minterm.
func (f *Function) CompletelySpecified() bool {
	for _, o := range f.Outs {
		if o.DC.Any() {
			return false
		}
	}
	return true
}

// OnNeighbors returns how many of minterm m's NumIn 1-Hamming neighbors
// are in output o's on-set.
func (f *Function) OnNeighbors(o, m int) int {
	c := 0
	for b := 0; b < f.NumIn; b++ {
		if f.Outs[o].On.Test(m ^ 1<<uint(b)) {
			c++
		}
	}
	return c
}

// OffNeighbors returns how many of minterm m's neighbors are in the off-set.
func (f *Function) OffNeighbors(o, m int) int {
	c := 0
	out := f.Outs[o]
	for b := 0; b < f.NumIn; b++ {
		nb := m ^ 1<<uint(b)
		if !out.On.Test(nb) && !out.DC.Test(nb) {
			c++
		}
	}
	return c
}

// OnCover returns output o's on-set as a cover of minterm cubes.
func (f *Function) OnCover(o int) *cube.Cover {
	return setToCover(f.NumIn, f.Outs[o].On)
}

// DCCover returns output o's DC-set as a cover of minterm cubes.
func (f *Function) DCCover(o int) *cube.Cover {
	return setToCover(f.NumIn, f.Outs[o].DC)
}

func setToCover(n int, s *bitset.Set) *cube.Cover {
	cv := cube.NewCover(n)
	s.ForEach(func(m int) {
		cv.Add(cube.FromMinterm(n, uint(m)))
	})
	return cv
}

// SetFromCover overwrites output o from an on-set cover and a DC cover.
// Minterms covered by both are treated as don't-care (the .pla "fd"
// convention, where the D part wins ties).
func (f *Function) SetFromCover(o int, on, dc *cube.Cover) {
	out := f.Outs[o]
	out.On.Reset()
	out.DC.Reset()
	if on != nil {
		for _, c := range on.Cubes {
			c.Minterms(func(m uint) { out.On.Set(int(m)) })
		}
	}
	if dc != nil {
		for _, c := range dc.Cubes {
			c.Minterms(func(m uint) { out.DC.Set(int(m)) })
		}
	}
	out.On.InPlaceDifference(out.DC)
}

// EvalCover checks a completely specified single-output implementation
// (given as an on-set cover) for consistency with output o of the spec:
// the cover must contain every on-set minterm and avoid every off-set
// minterm; DC minterms are unconstrained. It returns the first offending
// minterm and false on violation.
func (f *Function) EvalCover(o int, impl *cube.Cover) (int, bool) {
	out := f.Outs[o]
	for m := 0; m < f.Size(); m++ {
		if out.DC.Test(m) {
			continue
		}
		has := impl.ContainsMinterm(uint(m))
		if has != out.On.Test(m) {
			return m, false
		}
	}
	return -1, true
}
