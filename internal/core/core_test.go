package core

import (
	"context"
	"math"
	"runtime"
	"testing"

	"math/rand"
	"relsyn/internal/bitset"
	"relsyn/internal/census"
	"relsyn/internal/reliability"
	"relsyn/internal/tt"
)

func randomFunction(rng *rand.Rand, n, m int, dcFrac float64) *tt.Function {
	f := tt.New(n, m)
	for o := 0; o < m; o++ {
		for mm := 0; mm < f.Size(); mm++ {
			r := rng.Float64()
			switch {
			case r < dcFrac:
				f.SetPhase(o, mm, tt.DC)
			case r < dcFrac+(1-dcFrac)/2:
				f.SetPhase(o, mm, tt.On)
			}
		}
	}
	return f
}

// Paper Fig. 1's motivating example: three DC minterms on a 4-variable map.
// x1 has two on-neighbors and one off-neighbor (assign on), x2 has two
// off-neighbors and one on-neighbor (assign off), x3 is balanced (leave DC).
func motivatingExample() (f *tt.Function, x1, x2, x3 int) {
	f = tt.New(4, 1)
	// Choose concrete minterms that realize the neighbor structure:
	// x1 = 0b0000 with neighbors 0b0001 (on), 0b0010 (on), 0b0100 (off),
	// 0b1000 (DC = x2).
	// x2 = 0b1000 with neighbors 0b1001 (off), 0b1010 (off), 0b1100 (on),
	// 0b0000 (DC = x1).
	// x3 = 0b0111 with neighbors 0b0110 (on), 0b0101 (on), 0b0011 (off),
	// 0b1111 (off).
	x1, x2, x3 = 0b0000, 0b1000, 0b0111
	for _, m := range []int{0b0001, 0b0010, 0b1100, 0b0110, 0b0101} {
		f.SetPhase(0, m, tt.On)
	}
	for _, m := range []int{x1, x2, x3} {
		f.SetPhase(0, m, tt.DC)
	}
	// All remaining minterms are off.
	return f, x1, x2, x3
}

func TestRankingMotivatingExample(t *testing.T) {
	f, x1, x2, x3 := motivatingExample()
	res, err := Ranking(f, 1.0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Func.Phase(0, x1); got != tt.On {
		t.Errorf("x1 assigned %v, want on", got)
	}
	if got := res.Func.Phase(0, x2); got != tt.Off {
		t.Errorf("x2 assigned %v, want off", got)
	}
	if got := res.Func.Phase(0, x3); got != tt.DC {
		t.Errorf("x3 assigned %v, want left DC", got)
	}
	if len(res.Assigned) != 2 || res.TotalDCs != 3 {
		t.Errorf("assigned %d of %d, want 2 of 3", len(res.Assigned), res.TotalDCs)
	}
}

func TestRankingFractionZeroIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	f := randomFunction(rng, 6, 2, 0.5)
	res, err := Ranking(f, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Func.Equal(f) {
		t.Fatal("fraction 0 modified the function")
	}
	if len(res.Assigned) != 0 {
		t.Fatal("fraction 0 made assignments")
	}
}

func TestRankingDoesNotMutateInput(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	f := randomFunction(rng, 5, 1, 0.5)
	g := f.Clone()
	if _, err := Ranking(f, 1.0, Options{}); err != nil {
		t.Fatal(err)
	}
	if !f.Equal(g) {
		t.Fatal("Ranking mutated its input")
	}
}

func TestRankingFractionMonotoneInAssignments(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	f := randomFunction(rng, 7, 1, 0.6)
	prev := -1
	for _, fr := range []float64{0, 0.25, 0.5, 0.75, 1} {
		res, err := Ranking(f, fr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Assigned) < prev {
			t.Fatalf("assignments not monotone in fraction at %v", fr)
		}
		prev = len(res.Assigned)
		if err := res.Func.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// The paper's key claim for Fig. 4: more ranking-based assignment gives
// monotonically non-increasing minimum achievable error rate, because each
// assignment binds the majority phase. At fraction 1 the exact lower bound
// (restricted to non-tied DCs) is achieved.
func TestRankingReducesErrorRateMonotonically(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for trial := 0; trial < 10; trial++ {
		f := randomFunction(rng, 6, 1, 0.5)
		// Measure error rate with remaining DCs adversarially assigned by a
		// conventional-like completion (here: all to off) against the spec.
		measure := func(g *tt.Function) float64 {
			impl := g.Clone()
			g.Outs[0].DC.ForEach(func(m int) { impl.SetPhase(0, m, tt.Off) })
			r, err := reliability.ErrorRate(f, impl, 0)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		prev := math.Inf(1)
		_ = prev
		rates := make([]float64, 0, 5)
		for _, fr := range []float64{0, 0.25, 0.5, 0.75, 1} {
			res, err := Ranking(f, fr, Options{})
			if err != nil {
				t.Fatal(err)
			}
			rates = append(rates, measure(res.Func))
		}
		// Not strictly monotone pointwise for arbitrary completions, but the
		// fully assigned case must not exceed the unassigned case.
		if rates[len(rates)-1] > rates[0]+1e-12 {
			t.Fatalf("full ranking assignment worsened error rate: %v -> %v",
				rates[0], rates[len(rates)-1])
		}
	}
}

// With ties excluded, assigning 100% of ranked DCs and then binding the
// leftover tied DCs arbitrarily still achieves the exact minimum bound:
// tied DCs contribute min(on,off) either way.
func TestRankingFullAchievesExactMin(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 10; trial++ {
		f := randomFunction(rng, 6, 1, 0.5)
		lo, _ := reliability.Bounds(census.Output(f, 0))
		res, err := Ranking(f, 1.0, Options{})
		if err != nil {
			t.Fatal(err)
		}
		impl := res.Func.Clone()
		res.Func.Outs[0].DC.ForEach(func(m int) {
			// Remaining DCs are ties: on-neighbors == off-neighbors in the
			// original spec. Bind randomly; the achieved rate must equal lo.
			if rng.Intn(2) == 0 {
				impl.SetPhase(0, m, tt.On)
			} else {
				impl.SetPhase(0, m, tt.Off)
			}
		})
		got, err := reliability.ErrorRate(f, impl, 0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-lo) > 1e-12 {
			t.Fatalf("full ranking + arbitrary ties = %v, want exact min %v", got, lo)
		}
	}
}

func TestCompleteSpecifiesEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	f := randomFunction(rng, 5, 3, 0.7)
	res := Complete(f)
	if !res.Func.CompletelySpecified() {
		t.Fatal("Complete left DCs")
	}
	if len(res.Assigned) != res.TotalDCs {
		t.Fatalf("assigned %d of %d", len(res.Assigned), res.TotalDCs)
	}
	fc, err := census.Compute(context.Background(), f, 0)
	if err != nil {
		t.Fatal(err)
	}
	lo, _, err := reliability.BoundsMeanCensusCtx(context.Background(), f, fc.Outs, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := reliability.ErrorRateMeanCtx(context.Background(), f, res.Func, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-lo) > 1e-12 {
		t.Fatalf("Complete error rate %v != exact min %v", got, lo)
	}
}

func TestLCFThresholdZeroAssignsNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	f := randomFunction(rng, 6, 1, 0.5)
	res, err := LCF(f, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assigned) != 0 {
		t.Fatal("threshold 0 should assign nothing (LC^f >= 0 always)")
	}
}

func TestLCFThresholdMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	f := randomFunction(rng, 7, 1, 0.6)
	prev := -1
	for _, th := range []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0} {
		res, err := LCF(f, th, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Assigned) < prev {
			t.Fatalf("LCF assignments not monotone in threshold at %v", th)
		}
		prev = len(res.Assigned)
	}
}

// LCF assignments must be a subset of what full ranking would assign, and
// each individual binding must match ranking's majority-phase choice.
func TestLCFAgreesWithMajorityPhase(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	f := randomFunction(rng, 6, 1, 0.5)
	res, err := LCF(f, 0.6, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Assigned {
		on := f.OnNeighbors(a.Output, a.Minterm)
		off := f.OffNeighbors(a.Output, a.Minterm)
		want := tt.Off
		if on > off {
			want = tt.On
		}
		if on == off {
			t.Fatalf("tie assigned without AssignTies at minterm %d", a.Minterm)
		}
		if a.Value != want {
			t.Fatalf("minterm %d assigned %v, want %v", a.Minterm, a.Value, want)
		}
	}
}

func TestAssignTiesOption(t *testing.T) {
	f, _, _, x3 := motivatingExample()
	res, err := Ranking(f, 1.0, Options{AssignTies: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Func.Phase(0, x3); got != tt.Off {
		t.Fatalf("tied minterm with AssignTies = %v, want off", got)
	}
}

func TestRankingPerOutputMatchesFractions(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	f := randomFunction(rng, 6, 3, 0.5)
	lcf, err := LCF(f, 0.55, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Re-run ranking with matched per-output fractions of the *candidate*
	// lists; fractions are relative to total DCs, so convert.
	fracs := make([]float64, f.NumOut())
	for o := range fracs {
		cands := rankCandidates(f, o, Options{})
		dcAssigned := 0
		for _, a := range lcf.Assigned {
			if a.Output == o {
				dcAssigned++
			}
		}
		if len(cands) > 0 {
			fracs[o] = float64(dcAssigned) / float64(len(cands))
			if fracs[o] > 1 {
				fracs[o] = 1
			}
		}
	}
	rank, err := RankingPerOutput(f, fracs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for o := range fracs {
		la, ra := 0, 0
		for _, a := range lcf.Assigned {
			if a.Output == o {
				la++
			}
		}
		for _, a := range rank.Assigned {
			if a.Output == o {
				ra++
			}
		}
		if d := la - ra; d < -1 || d > 1 { // rounding slack of one minterm
			t.Fatalf("output %d: lcf assigned %d, ranking %d", o, la, ra)
		}
	}
}

func TestInvalidParameters(t *testing.T) {
	f := tt.New(3, 1)
	if _, err := Ranking(f, -0.1, Options{}); err == nil {
		t.Fatal("negative fraction accepted")
	}
	if _, err := Ranking(f, 1.1, Options{}); err == nil {
		t.Fatal("fraction > 1 accepted")
	}
	if _, err := LCF(f, -0.1, Options{}); err == nil {
		t.Fatal("negative threshold accepted")
	}
	if _, err := LCF(f, 1.5, Options{}); err == nil {
		t.Fatal("threshold > 1 accepted")
	}
	if _, err := RankingPerOutput(f, []float64{0.5, 0.5}, Options{}); err == nil {
		t.Fatal("wrong fraction count accepted")
	}
}

func TestRankingPrefersHighWeight(t *testing.T) {
	// Construct a function with two DC minterms of different weights and
	// assign only the top one (fraction rounds to 1 of 2).
	f := tt.New(4, 1)
	// DC at 0b0000 with all 4 neighbors on: weight 4.
	for _, m := range []int{0b0001, 0b0010, 0b0100, 0b1000} {
		f.SetPhase(0, m, tt.On)
	}
	f.SetPhase(0, 0b0000, tt.DC)
	// DC at 0b1111 with 3 on-neighbors and 1 off-neighbor: weight 2.
	for _, m := range []int{0b1110, 0b1101, 0b1011} {
		f.SetPhase(0, m, tt.On)
	}
	f.SetPhase(0, 0b1111, tt.DC)
	res, err := Ranking(f, 0.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assigned) != 1 {
		t.Fatalf("assigned %d, want 1", len(res.Assigned))
	}
	if res.Assigned[0].Minterm != 0 || res.Assigned[0].Weight != 4 {
		t.Fatalf("assigned %+v, want minterm 0 weight 4", res.Assigned[0])
	}
	if res.Assigned[0].Value != tt.On {
		t.Fatalf("assigned value %v, want on", res.Assigned[0].Value)
	}
}

func TestFractionAssigned(t *testing.T) {
	f, _, _, _ := motivatingExample()
	res, err := Ranking(f, 1.0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.FractionAssigned(), 2.0/3.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("FractionAssigned = %v, want %v", got, want)
	}
	empty := &Result{Func: tt.New(2, 1)}
	if empty.FractionAssigned() != 0 {
		t.Fatal("empty result fraction should be 0")
	}
}

// Canonical strips operational knobs (hooks, budgets) and keeps only the
// fields that change the computed assignment, so equal canonical forms
// imply equal results.
func TestOptionsCanonical(t *testing.T) {
	loaded := Options{
		AssignTies:  true,
		Interrupt:   func() error { return nil },
		Parallelism: 8,
		Census:      make([]*bitset.Census, 2),
	}
	c := loaded.Canonical()
	if !c.AssignTies {
		t.Fatal("Canonical dropped AssignTies")
	}
	if c.Interrupt != nil || c.Parallelism != 0 || c.Census != nil {
		t.Fatalf("Canonical kept operational knobs: %+v", c)
	}
	c2 := Options{Parallelism: 7}.Canonical()
	if c2.AssignTies || c2.Interrupt != nil || c2.Parallelism != 0 {
		t.Fatalf("Canonical of operational-only options not zero: %+v", c2)
	}
}

// The assignment algorithms must compute the exact same result at every
// parallelism level: candidate selection fans out, application is
// sequential in output order.
func TestAssignmentParallelMatchesSequential(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 3; trial++ {
		f := randomFunction(rng, 6, 5, 0.5)
		seqRank, err := Ranking(f, 0.6, Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		seqLCF, err := LCF(f, 0.55, Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{2, 8, 0} {
			rank, err := Ranking(f, 0.6, Options{Parallelism: p})
			if err != nil {
				t.Fatal(err)
			}
			if !rank.Func.Equal(seqRank.Func) || len(rank.Assigned) != len(seqRank.Assigned) {
				t.Fatalf("p=%d: Ranking result differs from sequential", p)
			}
			for i := range rank.Assigned {
				if rank.Assigned[i] != seqRank.Assigned[i] {
					t.Fatalf("p=%d: Ranking assignment %d differs: %+v vs %+v",
						p, i, rank.Assigned[i], seqRank.Assigned[i])
				}
			}
			lcf, err := LCF(f, 0.55, Options{Parallelism: p})
			if err != nil {
				t.Fatal(err)
			}
			if !lcf.Func.Equal(seqLCF.Func) || len(lcf.Assigned) != len(seqLCF.Assigned) {
				t.Fatalf("p=%d: LCF result differs from sequential", p)
			}
		}
	}
}

// Every entry point that reads Options.Census rejects one of another
// minterm space with census.Check's error instead of rebuilding it, and
// still accepts the matching census and a nil one.
func TestEntryPointsRejectForeignCensus(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	f := randomFunction(rng, 5, 2, 0.4)
	other := randomFunction(rng, 4, 2, 0.4)
	censusOf := func(g *tt.Function) []*bitset.Census {
		fc, err := census.Compute(context.Background(), g, 1)
		if err != nil {
			t.Fatal(err)
		}
		return fc.Outs
	}
	own, foreign := censusOf(f), censusOf(other)
	entries := map[string]func(cs []*bitset.Census) error{
		"Ranking": func(cs []*bitset.Census) error {
			_, err := Ranking(f, 0.5, Options{Census: cs})
			return err
		},
		"RankingPerOutput": func(cs []*bitset.Census) error {
			_, err := RankingPerOutput(f, []float64{0.5, 1}, Options{Census: cs})
			return err
		},
		"LCF": func(cs []*bitset.Census) error {
			_, err := LCF(f, 0.55, Options{Census: cs})
			return err
		},
		"CompleteCensus": func(cs []*bitset.Census) error {
			_, err := CompleteCensus(f, cs)
			return err
		},
		"RankableCounts": func(cs []*bitset.Census) error {
			_, err := RankableCounts(f, Options{Census: cs})
			return err
		},
	}
	for name, run := range entries {
		want := census.Check(f, foreign)
		if err := run(foreign); err == nil || err.Error() != want.Error() {
			t.Errorf("%s with a foreign census: err = %v, want %v", name, err, want)
		}
		if err := run(own[:1]); err == nil {
			t.Errorf("%s with a census for one of two outputs: accepted", name)
		}
		if err := run(own); err != nil {
			t.Errorf("%s with its own census: %v", name, err)
		}
		if err := run(nil); err != nil {
			t.Errorf("%s with no census: %v", name, err)
		}
	}
}
