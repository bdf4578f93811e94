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

// Property: the cube-space engine and the materializing oracle
// (oracle_test.go) agree cube for cube on random functions.
func TestQuickEngineAgreement(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		fn := tt.New(n, 1)
		for m := 0; m < fn.Size(); m++ {
			fn.SetPhase(0, m, tt.Phase(rng.Intn(3)))
		}
		on, dc := fn.OnCover(0), fn.DCCover(0)
		return sameCover(denseOf(on, dc), minimizeOracle(on, dc, nil))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
