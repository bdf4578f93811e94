package factor

import (
	"errors"
	"testing"
	"time"

	"relsyn/internal/benchmarks"
	"relsyn/internal/cube"
	"relsyn/internal/espresso"
)

// largestSuiteCover returns the espresso cover with the most cubes
// among random1's outputs, the suite's slowest cover to factor.
func largestSuiteCover(t *testing.T) *cube.Cover {
	t.Helper()
	fn, err := benchmarks.Load("random1")
	if err != nil {
		t.Fatal(err)
	}
	var largest *cube.Cover
	for o := range fn.Outs {
		cov, err := espresso.MinimizeSets(fn.NumIn, fn.Outs[o].On, fn.Outs[o].DC, nil)
		if err != nil {
			t.Fatal(err)
		}
		if largest == nil || cov.Len() > largest.Len() {
			largest = cov
		}
	}
	return largest
}

func TestGoodFactorPoll(t *testing.T) {
	cov := largestSuiteCover(t)
	errExpired := errors.New("expired")

	start := time.Now()
	want := GoodFactor(cov).String()
	full := time.Since(start)

	start = time.Now()
	e, err := GoodFactorPoll(cov, func() error { return errExpired })
	if elapsed := time.Since(start); elapsed > 5*time.Millisecond {
		t.Errorf("expired poll returned after %v (a full factoring takes %v)", elapsed, full)
	}
	if !errors.Is(err, errExpired) || e != nil {
		t.Fatalf("expired poll: got (%v, %v), want (nil, %v)", e, err, errExpired)
	}

	// A deadline landing mid-recursion stops at the next level.
	calls := 0
	_, err = GoodFactorPoll(cov, func() error {
		if calls++; calls > 3 {
			return errExpired
		}
		return nil
	})
	if !errors.Is(err, errExpired) || calls != 4 {
		t.Fatalf("mid-recursion expiry: err %v after %d polls, want %v after 4", err, calls, errExpired)
	}

	// A poll that never fires changes nothing.
	e, err = GoodFactorPoll(cov, func() error { return nil })
	if err != nil || e.String() != want {
		t.Fatalf("quiet poll changed the answer: err %v", err)
	}
	t.Logf("%d cubes: full factoring %v", cov.Len(), full)
}
