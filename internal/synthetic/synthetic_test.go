package synthetic

import (
	"math"
	"testing"

	"math/rand"
	"relsyn/internal/census"
	"relsyn/internal/complexity"
	"relsyn/internal/tt"
)

func TestRandomProbabilities(t *testing.T) {
	f, err := Random(10, 1, 0.25, 0.25, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	f0, f1, fdc := f.SignalProbabilities(0)
	if math.Abs(f0-0.25) > 0.05 || math.Abs(f1-0.25) > 0.05 || math.Abs(fdc-0.5) > 0.05 {
		t.Fatalf("probabilities %v %v %v far from 0.25/0.25/0.5", f0, f1, fdc)
	}
}

func TestRandomValidatesProbs(t *testing.T) {
	if _, err := Random(4, 1, 0.5, 0.5, 0.5, 1); err == nil {
		t.Fatal("probabilities summing to 1.5 accepted")
	}
	if _, err := Random(4, 1, -0.1, 0.6, 0.5, 1); err == nil {
		t.Fatal("negative probability accepted")
	}
}

// Random functions should land near the expected complexity factor.
func TestRandomNearExpectedCf(t *testing.T) {
	f, err := Random(11, 1, 0.2, 0.2, 0.6, 2)
	if err != nil {
		t.Fatal(err)
	}
	cf := complexity.Factor(census.Output(f, 0))
	ecf := complexity.Expected(f, 0)
	if math.Abs(cf-ecf) > 0.02 {
		t.Fatalf("random C^f=%v vs E[C^f]=%v", cf, ecf)
	}
}

func TestFlipDeltaMatchesRecount(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	f := tt.New(6, 1)
	for m := 0; m < 64; m++ {
		f.SetPhase(0, m, tt.Phase(rng.Intn(3)))
	}
	for trial := 0; trial < 200; trial++ {
		m := rng.Intn(64)
		p := f.Phase(0, m)
		if p == tt.DC {
			continue
		}
		q := tt.On
		if p == tt.On {
			q = tt.Off
		}
		before := samePairs(f, 0)
		delta := flipDelta(f, 0, m, q)
		f.SetPhase(0, m, q)
		after := samePairs(f, 0)
		f.SetPhase(0, m, p)
		if after-before != delta {
			t.Fatalf("flipDelta=%d, recount=%d (minterm %d %v->%v)",
				delta, after-before, m, p, q)
		}
	}
}

func TestSwapDeltaMatchesRecount(t *testing.T) {
	rng := rand.New(rand.NewSource(122))
	f := tt.New(5, 1)
	for m := 0; m < 32; m++ {
		f.SetPhase(0, m, tt.Phase(rng.Intn(3)))
	}
	for trial := 0; trial < 300; trial++ {
		a, b := rng.Intn(32), rng.Intn(32)
		if a == b {
			continue
		}
		pa, pb := f.Phase(0, a), f.Phase(0, b)
		before := samePairs(f, 0)
		delta := swapDelta(f, 0, a, b)
		f.SetPhase(0, a, pb)
		f.SetPhase(0, b, pa)
		after := samePairs(f, 0)
		f.SetPhase(0, a, pa)
		f.SetPhase(0, b, pb)
		if after-before != delta {
			t.Fatalf("swapDelta=%d, recount=%d (a=%d b=%d adjacent=%v)",
				delta, after-before, a, b, (a^b)&((a^b)-1) == 0)
		}
	}
}

func TestGenerateHitsTargets(t *testing.T) {
	// Moderate targets at 8 inputs; very high C^f needs the larger
	// hypercubes the paper uses (its C^f=.826 function has 12 inputs —
	// edge-isoperimetry caps achievable C^f on small cubes).
	for _, target := range []float64{0.3, 0.5, 0.67} {
		f, err := Generate(Params{
			Inputs: 8, Outputs: 2, DCFraction: 0.6,
			TargetCf: target, Tolerance: 0.02, Seed: 7,
		})
		if err != nil {
			t.Fatalf("target %v: %v", target, err)
		}
		for o := 0; o < 2; o++ {
			cf := complexity.Factor(census.Output(f, o))
			if math.Abs(cf-target) > 0.02+1e-9 {
				t.Errorf("target %v output %d: C^f=%v", target, o, cf)
			}
			// DC density must be exact.
			_, _, fdc := f.SignalProbabilities(o)
			if math.Abs(fdc-0.6) > 1.0/float64(f.Size()) {
				t.Errorf("DC fraction %v, want 0.6", fdc)
			}
		}
		if err := f.Validate(); err != nil {
			t.Error(err)
		}
	}
}

func TestGenerateHighCfAtPaperScale(t *testing.T) {
	// Paper Fig. 6 uses 11-input synthetic families with 60% DC up to
	// high complexity factors.
	f, err := Generate(Params{
		Inputs: 11, Outputs: 1, DCFraction: 0.6,
		TargetCf: 0.83, Tolerance: 0.02, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cf := complexity.Factor(census.Output(f, 0)); math.Abs(cf-0.83) > 0.021 {
		t.Fatalf("C^f = %v, want ~0.83", cf)
	}
}

func TestGenerateFullySpecified(t *testing.T) {
	f, err := Generate(Params{
		Inputs: 7, Outputs: 1, DCFraction: 0,
		TargetCf: 0.75, Tolerance: 0.02, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !f.CompletelySpecified() {
		t.Fatal("DCFraction 0 should give a completely specified function")
	}
	if cf := complexity.Factor(census.Output(f, 0)); math.Abs(cf-0.75) > 0.021 {
		t.Fatalf("C^f = %v, want ~0.75", cf)
	}
}

func TestGenerateLowCfFullySpecified(t *testing.T) {
	// Fig. 2's sweep needs low-C^f fully specified functions; the parity
	// start makes these reachable.
	for _, target := range []float64{0.1, 0.2, 0.35} {
		f, err := Generate(Params{
			Inputs: 10, Outputs: 1, DCFraction: 0,
			TargetCf: target, Tolerance: 0.02, Seed: 23,
		})
		if err != nil {
			t.Fatalf("target %v: %v", target, err)
		}
		if cf := complexity.Factor(census.Output(f, 0)); math.Abs(cf-target) > 0.021 {
			t.Errorf("target %v: C^f=%v", target, cf)
		}
	}
}

func TestGenerateBestEffort(t *testing.T) {
	// An infeasible target must not error under BestEffort.
	f, err := Generate(Params{
		Inputs: 6, Outputs: 1, DCFraction: 0.6,
		TargetCf: 0.99, Tolerance: 0.001, Seed: 3, BestEffort: true,
	})
	if err != nil {
		t.Fatalf("BestEffort returned error: %v", err)
	}
	if f == nil {
		t.Fatal("BestEffort returned nil function")
	}
}

func TestGenerateLockedBalance(t *testing.T) {
	// Unbalanced phases with exact counts (needed for the MCNC stand-ins,
	// e.g. t4's implied f1=.53/f0=.03 split).
	f, err := Generate(Params{
		Inputs: 9, Outputs: 1, DCFraction: 0.44, OnFraction: 0.53,
		TargetCf: 0.8, Tolerance: 0.02, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	f0, f1, fdc := f.SignalProbabilities(0)
	size := float64(f.Size())
	if math.Abs(f1-0.53) > 1/size || math.Abs(fdc-0.44) > 1/size {
		t.Fatalf("locked probabilities drifted: f0=%v f1=%v fdc=%v", f0, f1, fdc)
	}
	if cf := complexity.Factor(census.Output(f, 0)); math.Abs(cf-0.8) > 0.021 {
		t.Fatalf("C^f = %v, want ~0.8", cf)
	}
}

func TestGenerateRejectsOverfullOnFraction(t *testing.T) {
	_, err := Generate(Params{
		Inputs: 5, Outputs: 1, DCFraction: 0.7, OnFraction: 0.5, TargetCf: 0.5,
	})
	if err == nil {
		t.Fatal("on+dc > 1 accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := Params{Inputs: 6, Outputs: 2, DCFraction: 0.5, TargetCf: 0.6, Seed: 11}
	a, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("same seed gave different functions")
	}
	p.Seed = 12
	c, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Equal(c) {
		t.Fatal("different seeds gave identical functions")
	}
}

func TestGenerateValidatesParams(t *testing.T) {
	bad := []Params{
		{Inputs: 0, Outputs: 1, TargetCf: 0.5},
		{Inputs: 20, Outputs: 1, TargetCf: 0.5},
		{Inputs: 4, Outputs: 0, TargetCf: 0.5},
		{Inputs: 4, Outputs: 1, TargetCf: 1.5},
		{Inputs: 4, Outputs: 1, TargetCf: 0.5, DCFraction: -0.1},
	}
	for i, p := range bad {
		if _, err := Generate(p); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func BenchmarkGenerate10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := Generate(Params{
			Inputs: 10, Outputs: 1, DCFraction: 0.6,
			TargetCf: 0.7, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// TestGenerateEdgeParams table-drives the parameter edges the fleet's
// pinned spec pool leans on: the OnFraction feasibility boundary, the
// BestEffort fallback under a starved move budget, and the zero
// MaxIters default.
func TestGenerateEdgeParams(t *testing.T) {
	cases := []struct {
		name    string
		p       Params
		wantErr bool
		check   func(t *testing.T, f *tt.Function)
	}{
		{
			name: "on-fraction at the feasibility boundary leaves an empty off-set",
			p: Params{Inputs: 6, Outputs: 1, DCFraction: 0.5, OnFraction: 0.5,
				TargetCf: 0.6, Seed: 31, BestEffort: true},
			check: func(t *testing.T, f *tt.Function) {
				f0, f1, fdc := f.SignalProbabilities(0)
				if f0 != 0 || f1 != 0.5 || fdc != 0.5 {
					t.Fatalf("boundary probabilities f0=%v f1=%v fdc=%v, want 0/0.5/0.5", f0, f1, fdc)
				}
			},
		},
		{
			name: "on-fraction one minterm past the boundary is rejected",
			p: Params{Inputs: 6, Outputs: 1, DCFraction: 0.5, OnFraction: 0.5 + 1.0/64,
				TargetCf: 0.5},
			wantErr: true,
		},
		{
			name: "zero MaxIters falls back to the default budget and converges",
			p: Params{Inputs: 8, Outputs: 1, DCFraction: 0.6, TargetCf: 0.5,
				Tolerance: 0.02, Seed: 7, MaxIters: 0},
			check: func(t *testing.T, f *tt.Function) {
				if cf := complexity.Factor(census.Output(f, 0)); math.Abs(cf-0.5) > 0.02+1e-9 {
					t.Fatalf("C^f=%v, want within 0.02 of 0.5", cf)
				}
			},
		},
		{
			name: "starved MaxIters without BestEffort reports the miss",
			p: Params{Inputs: 8, Outputs: 1, DCFraction: 0.6, TargetCf: 0.9,
				Tolerance: 0.005, Seed: 7, MaxIters: 1},
			wantErr: true,
		},
		{
			name: "starved MaxIters with BestEffort returns the closest function",
			p: Params{Inputs: 8, Outputs: 1, DCFraction: 0.6, TargetCf: 0.9,
				Tolerance: 0.005, Seed: 7, MaxIters: 1, BestEffort: true},
			check: func(t *testing.T, f *tt.Function) {
				_, _, fdc := f.SignalProbabilities(0)
				if math.Abs(fdc-0.6) > 1.0/float64(f.Size()) {
					t.Fatalf("BestEffort drifted the DC density to %v", fdc)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := Generate(tc.p)
			if tc.wantErr {
				if err == nil {
					t.Fatal("want error, got nil")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Validate(); err != nil {
				t.Fatal(err)
			}
			if tc.check != nil {
				tc.check(t, f)
			}
		})
	}
}

// TestGenerateSeedBitIdentical pins the determinism contract at the
// representation level: the same Params.Seed must reproduce the same
// tt.Function word for word (Equal checks phases; the fleet pool also
// needs identical serialized bytes, hence identical bitset words).
func TestGenerateSeedBitIdentical(t *testing.T) {
	p := Params{Inputs: 8, Outputs: 3, DCFraction: 0.3, TargetCf: 0.5,
		Seed: 42, BestEffort: true}
	a, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("same seed gave semantically different functions")
	}
	for o := range a.Outs {
		aw, bw := a.Outs[o].On.Words(), b.Outs[o].On.Words()
		for w := range aw {
			if aw[w] != bw[w] {
				t.Fatalf("output %d on-set word %d differs: %#x vs %#x", o, w, aw[w], bw[w])
			}
		}
		aw, bw = a.Outs[o].DC.Words(), b.Outs[o].DC.Words()
		for w := range aw {
			if aw[w] != bw[w] {
				t.Fatalf("output %d dc-set word %d differs: %#x vs %#x", o, w, aw[w], bw[w])
			}
		}
	}
	p.Seed = 43
	c, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Equal(c) {
		t.Fatal("different seeds gave identical functions")
	}
}
