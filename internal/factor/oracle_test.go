package factor

import (
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"relsyn/internal/benchmarks"
	"relsyn/internal/cube"
	"relsyn/internal/espresso"
)

// The oracle: Brayton's kernel recursion without pruning, kernel
// scoring by building q and r for every kernel, and division by
// cube.Compare binary search. The production code must agree with it
// exactly — same kernel sequence, same factored String.

func oracleLargestCommonCube(f *cube.Cover) cube.Cube {
	common := cube.New(f.NumVars())
	if f.Len() == 0 {
		return common
	}
	ones, zeros := f.Cubes[0].Masks()
	for _, c := range f.Cubes[1:] {
		o, z := c.Masks()
		ones, zeros = ones&o, zeros&z
	}
	for ; ones != 0; ones &= ones - 1 {
		common = common.SetVal(bits.TrailingZeros32(ones), cube.One)
	}
	for ; zeros != 0; zeros &= zeros - 1 {
		common = common.SetVal(bits.TrailingZeros32(zeros), cube.Zero)
	}
	return common
}

func oracleMakeCubeFree(f *cube.Cover) *cube.Cover {
	cc := oracleLargestCommonCube(f)
	if cc.NumLiterals() == 0 {
		return f
	}
	out := cube.NewCover(f.NumVars())
	out.Cubes = make([]cube.Cube, len(f.Cubes))
	for i, c := range f.Cubes {
		out.Cubes[i] = c.Quotient(cc)
	}
	return out
}

func oracleIsCubeFree(f *cube.Cover) bool {
	return f.Len() > 0 && oracleLargestCommonCube(f).NumLiterals() == 0
}

func oracleDivideByLit(f *cube.Cover, l int) *cube.Cover {
	v, val := litVal(l)
	q := cube.NewCover(f.NumVars())
	for _, c := range f.Cubes {
		if c.Val(v) == val {
			q.Add(c.SetVal(v, cube.Full))
		}
	}
	return q
}

func oracleMergeCubes(a, b cube.Cube) cube.Cube {
	r, ok := a.Intersect(b)
	if !ok {
		panic("factor oracle: merging conflicting cubes")
	}
	return r
}

func oracleKernels(f *cube.Cover, limit int) []*cube.Cover {
	var out []*cube.Cover
	add := func(k *cube.Cover) bool {
		kk := k.Clone()
		kk.Sort()
		for _, o := range out {
			if slices.Equal(o.Cubes, kk.Cubes) {
				return true
			}
		}
		out = append(out, kk)
		return limit == 0 || len(out) < limit
	}
	var rec func(j int, g *cube.Cover) bool
	rec = func(j int, g *cube.Cover) bool {
		if oracleIsCubeFree(g) && g.Len() >= 2 {
			if !add(g) {
				return false
			}
		}
		counts := litCounts(g)
		for l := j; l < len(counts); l++ {
			if counts[l] < 2 {
				continue
			}
			if !rec(l+1, oracleMakeCubeFree(oracleDivideByLit(g, l))) {
				return false
			}
		}
		return true
	}
	rec(0, oracleMakeCubeFree(f))
	return out
}

func oracleDivide(f, d *cube.Cover) (q, r *cube.Cover) {
	n := f.NumVars()
	if d.Len() == 0 {
		return cube.NewCover(n), f.Clone()
	}
	sorted := slices.Clone(f.Cubes)
	slices.SortFunc(sorted, cube.Compare)
	has := func(c cube.Cube) bool {
		_, ok := slices.BinarySearchFunc(sorted, c, cube.Compare)
		return ok
	}
	q = cube.NewCover(n)
	for _, c := range f.Cubes {
		if c.DivisibleBy(d.Cubes[0]) {
			q.Cubes = append(q.Cubes, c.Quotient(d.Cubes[0]))
		}
	}
	slices.SortFunc(q.Cubes, cube.Compare)
	q.Cubes = slices.Compact(q.Cubes)
	q.Cubes = slices.DeleteFunc(q.Cubes, func(k cube.Cube) bool {
		for _, dc := range d.Cubes[1:] {
			if k.Quotient(dc) != k || !has(oracleMergeCubes(k, dc)) {
				return true
			}
		}
		return false
	})
	produced := make([]cube.Cube, 0, q.Len()*d.Len())
	for _, qc := range q.Cubes {
		for _, dc := range d.Cubes {
			produced = append(produced, oracleMergeCubes(qc, dc))
		}
	}
	slices.SortFunc(produced, cube.Compare)
	r = cube.NewCover(n)
	for _, c := range f.Cubes {
		if _, ok := slices.BinarySearchFunc(produced, c, cube.Compare); !ok {
			r.Add(c)
		}
	}
	return q, r
}

func oracleGoodFactor(f *cube.Cover) *Expr {
	switch {
	case f.Len() == 0:
		return NewConst(false)
	case f.Len() == 1:
		return FromCube(f.Cubes[0])
	}
	for _, c := range f.Cubes {
		if c.NumLiterals() == 0 {
			return NewConst(true)
		}
	}
	if e := oracleBestKernelFactor(f); e != nil {
		return e
	}
	counts := litCounts(f)
	bestLit, bestCount := -1, 1
	for l, c := range counts {
		if c > bestCount {
			bestLit, bestCount = l, c
		}
	}
	if bestLit >= 0 {
		v, val := litVal(bestLit)
		d := cube.CoverOf(f.NumVars(), cube.New(f.NumVars()).SetVal(v, val))
		q, r := oracleDivide(f, d)
		if q.Len() > 0 {
			lit := NewLit(v, val == cube.Zero)
			return NewOr(NewAnd(lit, oracleGoodFactor(q)), oracleGoodFactor(r))
		}
	}
	return SOP(f)
}

func oracleBestKernelFactor(f *cube.Cover) *Expr {
	var bestK, bestQ, bestR *cube.Cover
	bestValue := 0
	flatCost := f.LiteralCount()
	for _, k := range oracleKernels(f, kernelCap) {
		if k.Len() < 2 {
			continue
		}
		q, r := oracleDivide(f, k)
		if q.Len() == 0 || (q.Len() == 1 && q.Cubes[0].NumLiterals() == 0) {
			continue
		}
		value := flatCost - (q.LiteralCount() + k.LiteralCount() + r.LiteralCount())
		if value > bestValue {
			bestK, bestQ, bestR, bestValue = k, q, r, value
		}
	}
	if bestK == nil {
		return nil
	}
	return NewOr(NewAnd(oracleGoodFactor(bestQ), oracleGoodFactor(bestK)), oracleGoodFactor(bestR))
}

// removeContained deletes every cube of cv contained in another single
// cube of it (single-cube containment); of identical cubes it keeps the
// first. The test covers are built with it.
func removeContained(cv *cube.Cover) {
	keep := cv.Cubes[:0]
	for i, c := range cv.Cubes {
		contained := false
		for j, d := range cv.Cubes {
			if i != j && d.Contains(c) && !(c.Contains(d) && j > i) {
				contained = true
				break
			}
		}
		if !contained {
			keep = append(keep, c)
		}
	}
	cv.Cubes = keep
}

func TestCoverRemoveContained(t *testing.T) {
	cv := coverFrom(t, 3,
		"01-",
		"010", // contained in 01-
		"1--",
		"1--", // duplicate
	)
	removeContained(cv)
	if cv.Len() != 2 {
		t.Fatalf("removeContained left %d cubes, want 2:\n%s", cv.Len(), cv)
	}
}

// removeContainedSnapshot is removeContained's scan run over an
// unaliased snapshot of the input, where the in-place filter reads a
// slice it is overwriting.
func removeContainedSnapshot(in []cube.Cube) []cube.Cube {
	var keep []cube.Cube
	for i, c := range in {
		contained := false
		for j, d := range in {
			if i != j && d.Contains(c) && !(c.Contains(d) && j > i) {
				contained = true
				break
			}
		}
		if !contained {
			keep = append(keep, c)
		}
	}
	return keep
}

// removeContained filters in place while its inner loop still reads the
// slice, so later cubes are compared against a partly overwritten array.
// That cannot change the output: a dropped cube's container, or that
// container's own container, is always still readable. Pin it against
// the snapshot scan on random covers seeded with duplicates.
func TestCoverRemoveContainedMatchesSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(308))
	for trial := 0; trial < 20000; trial++ {
		n := 1 + rng.Intn(5)
		cv := cube.NewCover(n)
		for k := rng.Intn(11); k > 0; k-- {
			if cv.Len() > 0 && rng.Intn(4) == 0 {
				cv.Add(cv.Cubes[rng.Intn(cv.Len())])
				continue
			}
			c := cube.New(n)
			for v := range n {
				switch rng.Intn(3) {
				case 0:
					c = c.SetVal(v, cube.Zero)
				case 1:
					c = c.SetVal(v, cube.One)
				}
			}
			cv.Add(c)
		}
		in := cv.String()
		want := removeContainedSnapshot(slices.Clone(cv.Cubes))
		removeContained(cv)
		if !slices.Equal(cv.Cubes, want) {
			t.Fatalf("trial %d: kept\n%s\nsnapshot %v\n%s", trial, cv, want, in)
		}
	}
}

// randomOracleCover returns a single-cube-containment-free cover of
// 2–49 cubes over 4–13 variables, each variable bound in a cube with
// probability 1/2, so most covers have dozens of kernels. With repeats,
// one to three of its cubes are inserted again: the one input shape
// espresso never emits.
func randomOracleCover(rng *rand.Rand, repeats bool) *cube.Cover {
	n := 4 + rng.Intn(10)
	cv := cube.NewCover(n)
	for range 2 + rng.Intn(48) {
		c := cube.New(n)
		for v := range n {
			switch rng.Intn(4) {
			case 0:
				c = c.SetVal(v, cube.One)
			case 1:
				c = c.SetVal(v, cube.Zero)
			}
		}
		cv.Add(c)
	}
	removeContained(cv)
	if repeats {
		for range 1 + rng.Intn(3) {
			c := cv.Cubes[rng.Intn(cv.Len())]
			cv.Cubes = slices.Insert(cv.Cubes, rng.Intn(cv.Len()+1), c)
		}
	}
	return cv
}

func kernelStrings(ks []*cube.Cover) string {
	var b strings.Builder
	for _, k := range ks {
		b.WriteString(k.String())
		b.WriteString("\n;\n")
	}
	return b.String()
}

// checkAgainstOracle compares Kernels at each limit, Divide by every
// kernel of the first limit, and GoodFactor's String with the oracle on
// one cover. It reports whether the kernel count reached kernelCap.
func checkAgainstOracle(t *testing.T, f *cube.Cover, limits ...int) (capped bool) {
	t.Helper()
	for i, limit := range limits {
		got, want := Kernels(f, limit), oracleKernels(f, limit)
		if kernelStrings(got) != kernelStrings(want) {
			t.Fatalf("Kernels(limit %d) differ on\n%s\ngot:\n%s\nwant:\n%s",
				limit, f, kernelStrings(got), kernelStrings(want))
		}
		capped = capped || len(want) >= kernelCap
		if i != 0 {
			continue
		}
		for _, k := range want {
			gq, gr := Divide(f, k)
			wq, wr := oracleDivide(f, k)
			if gq.String() != wq.String() || gr.String() != wr.String() {
				t.Fatalf("Divide differs on\n%s\nby\n%s\ngot q:\n%s\nr:\n%s\nwant q:\n%s\nr:\n%s",
					f, k, gq, gr, wq, wr)
			}
		}
	}
	if got, want := GoodFactor(f).String(), oracleGoodFactor(f).String(); got != want {
		t.Fatalf("GoodFactor differs on\n%s\ngot:  %s\nwant: %s", f, got, want)
	}
	return capped
}

// oracleLimits are the kernel limits random covers are checked at.
var oracleLimits = []int{0, 3, 8, kernelCap}

// TestFactorMatchesOracle runs the production factoring against the
// oracle on seeded duplicate-free covers, covers with repeated cubes,
// and every espresso cover of the Table 1 suite stand-ins.
func TestFactorMatchesOracle(t *testing.T) {
	trials := 1000
	if testing.Short() {
		trials = 150
	}
	rng := rand.New(rand.NewSource(87))
	for _, tc := range []struct {
		name    string
		repeats bool
	}{
		{"duplicate-free", false},
		{"repeated-cubes", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			capped := 0
			for range trials {
				if checkAgainstOracle(t, randomOracleCover(rng, tc.repeats), oracleLimits...) {
					capped++
				}
			}
			if capped == 0 {
				t.Fatal("no cover reached the kernel cap")
			}
			t.Logf("%d of %d covers reached the %d-kernel cap", capped, trials, kernelCap)
		})
	}
	t.Run("suite", func(t *testing.T) {
		for _, s := range benchmarks.Specs() {
			if testing.Short() && (s.Name == "random1" || s.Name == "random2") {
				continue
			}
			fn, err := benchmarks.Load(s.Name)
			if err != nil {
				t.Fatal(err)
			}
			for o := range fn.Outs {
				cov, err := espresso.MinimizeSets(fn.NumIn, fn.Outs[o].On, fn.Outs[o].DC, nil)
				if err != nil {
					t.Fatal(err)
				}
				// Unlimited enumeration of the largest suite covers
				// takes the oracle seconds; the cap is what factoring uses.
				checkAgainstOracle(t, cov, kernelCap, 3, 8)
			}
		}
	})
}

// FuzzGoodFactorOracle decodes a cover from the fuzz bytes (a variable
// count, then two bytes per literal pair of each cube) and requires
// Kernels, Divide and GoodFactor to match the oracle.
func FuzzGoodFactorOracle(f *testing.F) {
	f.Add([]byte{5, 0x12, 0x40, 0x21, 0x04, 0x12, 0x40})
	f.Add([]byte{7, 0xa5, 0x01, 0x5a, 0x10, 0xa5, 0x01, 0x33, 0x03})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 1 + int(data[0])%10
		cv := cube.NewCover(n)
		for data = data[1:]; len(data) >= 2 && cv.Len() < 32; data = data[2:] {
			c := cube.New(n)
			bound, pos := uint(data[0]), uint(data[1])
			for v := 0; v < n; v++ {
				if bound>>(uint(v)%8)&1 == 0 {
					continue
				}
				if pos>>(uint(v)%8)&1 == 1 {
					c = c.SetVal(v, cube.One)
				} else {
					c = c.SetVal(v, cube.Zero)
				}
			}
			cv.Add(c)
		}
		checkAgainstOracle(t, cv, oracleLimits...)
	})
}
