package benchmarks

import (
	"context"
	"math"
	"testing"

	"relsyn/internal/census"
	"relsyn/internal/complexity"
)

func TestLoadUnknown(t *testing.T) {
	if _, err := Load("nonesuch"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestLoadDeterministicAndIsolated(t *testing.T) {
	a, err := Load("bench")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Load("bench")
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("Load not deterministic")
	}
	// Mutating a loaded copy must not poison the cache.
	a.SetPhase(0, 0, 2)
	c, _ := Load("bench")
	if !b.Equal(c) {
		t.Fatal("cache shares storage with callers")
	}
}

func TestSuiteMatchesTable1(t *testing.T) {
	for _, s := range Specs() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			f, err := Load(s.Name)
			if err != nil {
				t.Fatal(err)
			}
			if f.NumIn != s.Inputs || f.NumOut() != s.Outputs {
				t.Fatalf("shape %dx%d, want %dx%d", f.NumIn, f.NumOut(), s.Inputs, s.Outputs)
			}
			if err := f.Validate(); err != nil {
				t.Fatal(err)
			}
			if dc := f.DCFraction(); math.Abs(dc-s.DCFraction) > 0.01 {
				t.Errorf("%%DC = %.3f, want %.3f", dc, s.DCFraction)
			}
			fc, err := census.Compute(context.Background(), f, 0)
			if err != nil {
				t.Fatal(err)
			}
			cf, err := complexity.FactorMean(fc.Outs)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(cf-s.Cf) > 0.025 {
				t.Errorf("C^f = %.3f, want %.3f", cf, s.Cf)
			}
			// E[C^f] follows from the signal probabilities; it should land
			// near the published value since the on/off split was derived
			// from it.
			ecf, err := complexity.ExpectedMean(f)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(ecf-s.ExpectedCf) > 0.03 {
				t.Errorf("E[C^f] = %.3f, want %.3f", ecf, s.ExpectedCf)
			}
			if f.Name != s.Name {
				t.Errorf("Name = %q", f.Name)
			}
		})
	}
}

func TestLoadAllOrder(t *testing.T) {
	fns, err := LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	specs := Specs()
	if len(fns) != len(specs) {
		t.Fatalf("LoadAll returned %d, want %d", len(fns), len(specs))
	}
	for i, f := range fns {
		if f.Name != specs[i].Name {
			t.Fatalf("order wrong at %d: %s", i, f.Name)
		}
	}
}
