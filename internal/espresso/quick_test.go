package espresso

import (
	"math/rand"
	"testing"
	"testing/quick"

	"relsyn/internal/tt"
)

// Property: Minimize always produces a cover that contains the on-set
// and avoids the off-set, for random incompletely specified functions.
func TestQuickMinimizeCorrectness(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw)%6
		fn := tt.New(n, 1)
		for m := 0; m < fn.Size(); m++ {
			fn.SetPhase(0, m, tt.Phase(rng.Intn(3)))
		}
		cov := Minimize(fn.OnCover(0), fn.DCCover(0))
		for m := 0; m < fn.Size(); m++ {
			has := cov.ContainsMinterm(uint(m))
			switch fn.Phase(0, m) {
			case tt.On:
				if !has {
					return false
				}
			case tt.Off:
				if has {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Complement is an involution up to Boolean equivalence, and
// Tautology(f ∪ ¬f) always holds.
func TestQuickComplementInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		cv := randomCover(rng, n, 1+rng.Intn(8))
		comp := Complement(cv)
		both := cv.Clone()
		for _, c := range comp.Cubes {
			both.Add(c)
		}
		if !Tautology(both) {
			return false
		}
		back := Complement(comp)
		for m := uint(0); m < 1<<uint(n); m++ {
			if back.ContainsMinterm(m) != cv.ContainsMinterm(m) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the dense and generic engines agree on validity and produce
// covers whose cost difference is small on random functions.
func TestQuickEngineAgreement(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		fn := tt.New(n, 1)
		for m := 0; m < fn.Size(); m++ {
			fn.SetPhase(0, m, tt.Phase(rng.Intn(3)))
		}
		on, dc := fn.OnCover(0), fn.DCCover(0)
		a := denseOf(on, dc)
		b := minimizeGeneric(on, dc, nil)
		// Both must be valid; exact sizes may differ slightly between
		// heuristics, but not wildly.
		if !Verify(a, on, dc) || !Verify(b, on, dc) {
			return false
		}
		diff := a.Len() - b.Len()
		if diff < 0 {
			diff = -diff
		}
		return diff <= 3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
