package estimate

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"relsyn/internal/bitset"
	"relsyn/internal/census"
	"relsyn/internal/reliability"
	"relsyn/internal/synthetic"
	"relsyn/internal/tt"
)

func TestMeanAbsGaussian(t *testing.T) {
	// Standard normal: E|Y| = √(2/π).
	if got, want := meanAbsGaussian(0, 1), math.Sqrt(2/math.Pi); math.Abs(got-want) > 1e-12 {
		t.Fatalf("E|N(0,1)| = %v, want %v", got, want)
	}
	// Large mean dominates: E|Y| → |μ|.
	if got := meanAbsGaussian(10, 1); math.Abs(got-10) > 1e-6 {
		t.Fatalf("E|N(10,1)| = %v, want ≈10", got)
	}
	if got := meanAbsGaussian(-10, 1); math.Abs(got-10) > 1e-6 {
		t.Fatalf("E|N(-10,1)| = %v, want ≈10", got)
	}
	// Zero variance: exactly |μ|.
	if got := meanAbsGaussian(-3, 0); got != 3 {
		t.Fatalf("degenerate E|Y| = %v, want 3", got)
	}
}

func TestPoissonPmf(t *testing.T) {
	// Sums to ~1.
	total := 0.0
	for k := 0; k < 60; k++ {
		p := poisson(k, 4.5)
		if p < 0 {
			t.Fatalf("negative pmf at %d", k)
		}
		total += p
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("pmf sums to %v", total)
	}
	if poisson(0, 0) != 1 || poisson(3, 0) != 0 {
		t.Fatal("λ=0 special case wrong")
	}
	// Mean check.
	mean := 0.0
	for k := 0; k < 80; k++ {
		mean += float64(k) * poisson(k, 6.25)
	}
	if math.Abs(mean-6.25) > 1e-6 {
		t.Fatalf("pmf mean %v, want 6.25", mean)
	}
}

func TestEstimatesOnFullySpecified(t *testing.T) {
	// No DCs: both estimates collapse to a base-only interval.
	rng := rand.New(rand.NewSource(131))
	f := tt.New(8, 1)
	for m := 0; m < f.Size(); m++ {
		if rng.Intn(2) == 0 {
			f.SetPhase(0, m, tt.On)
		}
	}
	sb := SignalBased(f, 0)
	bb := BorderBased(f, 0, census.Output(f, 0))
	if sb.Min != sb.Max {
		t.Fatalf("signal interval should be a point without DCs: %+v", sb)
	}
	if bb.Min != bb.Max {
		t.Fatalf("border interval should be a point without DCs: %+v", bb)
	}
	// The border-based base estimate is exact when fDC = 0.
	lo, hi := reliability.Bounds(census.Output(f, 0))
	if lo != hi {
		t.Fatal("exact bounds should coincide without DCs")
	}
	if math.Abs(bb.Min-lo) > 1e-9 {
		t.Fatalf("border base %v vs exact %v", bb.Min, lo)
	}
	// Signal-based base = 2 f0 f1 exactly.
	f0, f1, _ := f.SignalProbabilities(0)
	if math.Abs(sb.Min-2*f0*f1) > 1e-12 {
		t.Fatalf("signal base %v, want %v", sb.Min, 2*f0*f1)
	}
}

func TestIntervalsWellFormed(t *testing.T) {
	rng := rand.New(rand.NewSource(132))
	for trial := 0; trial < 50; trial++ {
		f := tt.New(6+rng.Intn(4), 1)
		for m := 0; m < f.Size(); m++ {
			f.SetPhase(0, m, tt.Phase(rng.Intn(3)))
		}
		for _, b := range []Bounds{SignalBased(f, 0), BorderBased(f, 0, census.Output(f, 0))} {
			if b.Min > b.Max+1e-12 {
				t.Fatalf("inverted interval %+v", b)
			}
			if b.Min < 0 || b.Max > 1.5 {
				t.Fatalf("interval out of plausible range %+v", b)
			}
		}
	}
}

// The paper's Table 3 claims: border-based estimates bracket the exact
// bounds; signal-based estimates overshoot (min above exact min). Random
// functions satisfy both in aggregate.
func TestPaperClaimsOnRandomFunctions(t *testing.T) {
	rng := rand.New(rand.NewSource(133))
	trials, borderBracket, signalOvershoot := 0, 0, 0
	for i := 0; i < 40; i++ {
		f := tt.New(10, 1)
		for m := 0; m < f.Size(); m++ {
			r := rng.Float64()
			switch {
			case r < 0.6:
				f.SetPhase(0, m, tt.DC)
			case r < 0.8:
				f.SetPhase(0, m, tt.On)
			}
		}
		exLo, exHi := reliability.Bounds(census.Output(f, 0))
		bb := BorderBased(f, 0, census.Output(f, 0))
		sb := SignalBased(f, 0)
		trials++
		if bb.Min <= exLo+0.02 && bb.Max >= exHi-0.02 {
			borderBracket++
		}
		if sb.Min >= exLo {
			signalOvershoot++
		}
	}
	if borderBracket < trials*9/10 {
		t.Fatalf("border-based bracketed exact in only %d/%d trials", borderBracket, trials)
	}
	if signalOvershoot < trials*9/10 {
		t.Fatalf("signal-based overshot exact min in only %d/%d trials", signalOvershoot, trials)
	}
}

// On clustered (high-C^f) functions, signal-based overshoot should be
// dramatic while border-based stays informative — the motivation for the
// second estimator (paper Fig. 8 discussion).
func TestBorderTighterOnStructuredFunctions(t *testing.T) {
	f, err := synthetic.Generate(synthetic.Params{
		Inputs: 10, Outputs: 1, DCFraction: 0.6, TargetCf: 0.78, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	exLo, _ := reliability.Bounds(census.Output(f, 0))
	sb := SignalBased(f, 0)
	bb := BorderBased(f, 0, census.Output(f, 0))
	if !(sb.Min > exLo) {
		t.Fatalf("signal-based min %v should overshoot exact %v on structured function", sb.Min, exLo)
	}
	if !(bb.Min <= exLo+1e-9) {
		t.Fatalf("border-based min %v should lower-bound exact %v", bb.Min, exLo)
	}
	if !(bb.Min < sb.Min) {
		t.Fatalf("border-based min %v should be tighter than signal-based %v", bb.Min, sb.Min)
	}
}

func TestMeansAverageOutputs(t *testing.T) {
	rng := rand.New(rand.NewSource(134))
	f := tt.New(5, 3)
	for o := 0; o < 3; o++ {
		for m := 0; m < f.Size(); m++ {
			f.SetPhase(o, m, tt.Phase(rng.Intn(3)))
		}
	}
	var wantMin, wantMax float64
	for o := 0; o < 3; o++ {
		b := SignalBased(f, o)
		wantMin += b.Min / 3
		wantMax += b.Max / 3
	}
	got, err := SignalBasedMean(f)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Min-wantMin) > 1e-12 || math.Abs(got.Max-wantMax) > 1e-12 {
		t.Fatalf("mean = %+v, want {%v %v}", got, wantMin, wantMax)
	}
}

// Regression: the mean estimates silently returned NaN bounds on
// zero-output functions; they must reject them with the typed sentinel.
func TestMeansZeroOutputsRejected(t *testing.T) {
	f := &tt.Function{NumIn: 4} // hand-built: no outputs
	if _, err := SignalBasedMean(f); !errors.Is(err, tt.ErrZeroOutputs) {
		t.Fatalf("SignalBasedMean: got %v, want tt.ErrZeroOutputs", err)
	}
	if _, err := BorderBasedMean(f, nil); !errors.Is(err, tt.ErrZeroOutputs) {
		t.Fatalf("BorderBasedMean: got %v, want tt.ErrZeroOutputs", err)
	}
}

// censuses builds f's per-output censuses at the given worker count.
func censuses(t *testing.T, f *tt.Function, parallelism int) []*bitset.Census {
	t.Helper()
	fc, err := census.Compute(context.Background(), f, parallelism)
	if err != nil {
		t.Fatal(err)
	}
	return fc.Outs
}

// The border estimate must be bit-identical whatever worker count built
// the censuses it reads.
func TestMeansParallelMatchSequential(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	rng := rand.New(rand.NewSource(135))
	f := tt.New(6, 6)
	for o := 0; o < f.NumOut(); o++ {
		for m := 0; m < f.Size(); m++ {
			f.SetPhase(o, m, tt.Phase(rng.Intn(3)))
		}
	}
	seqBor, err := BorderBasedMean(f, censuses(t, f, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 8, 0} {
		bor, err := BorderBasedMean(f, censuses(t, f, p))
		if err != nil {
			t.Fatal(err)
		}
		if bor != seqBor {
			t.Fatalf("p=%d: BorderBasedMean %+v != sequential %+v", p, bor, seqBor)
		}
	}
}

// A census slice that does not belong to f is an error, never read as
// is and never rebuilt: a short slice, a nil entry, or a census of
// another width.
func TestBorderBasedMeanRejectsForeignCensus(t *testing.T) {
	rng := rand.New(rand.NewSource(136))
	f, wider := tt.New(5, 3), tt.New(6, 3)
	for o := 0; o < 3; o++ {
		for m := 0; m < f.Size(); m++ {
			f.SetPhase(o, m, tt.Phase(rng.Intn(3)))
		}
	}
	cs, wide := censuses(t, f, 1), censuses(t, wider, 1)
	for _, tc := range []struct {
		name string
		cs   []*bitset.Census
	}{
		{"nil", nil},
		{"short", cs[:2]},
		{"nil entry", []*bitset.Census{cs[0], nil, cs[2]}},
		{"other width", []*bitset.Census{cs[0], wide[1], cs[2]}},
	} {
		if _, err := BorderBasedMean(f, tc.cs); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := BorderBasedMean(f, cs); err != nil {
		t.Fatal(err)
	}
}

func TestAllDCFunction(t *testing.T) {
	f := tt.New(6, 1)
	for m := 0; m < 64; m++ {
		f.SetPhase(0, m, tt.DC)
	}
	// Exact: zero errors possible (no care minterms).
	lo, hi := reliability.Bounds(census.Output(f, 0))
	if lo != 0 || hi != 0 {
		t.Fatalf("all-DC exact bounds (%v,%v), want (0,0)", lo, hi)
	}
	// Border-based sees zero borders and agrees.
	bb := BorderBased(f, 0, census.Output(f, 0))
	if bb.Min != 0 || bb.Max != 0 {
		t.Fatalf("all-DC border bounds %+v, want zeros", bb)
	}
	// Signal-based (by design) overshoots badly here: it assumes all
	// neighbors are specified.
	sb := SignalBased(f, 0)
	if sb.Max <= 0 {
		t.Fatalf("signal-based should overshoot on all-DC, got %+v", sb)
	}
}
