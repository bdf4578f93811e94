package census

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"relsyn/internal/bitset"
	"relsyn/internal/tt"
)

// randomSpec builds a k-input, m-output incompletely specified function.
func randomSpec(k, m int, seed int64) *tt.Function {
	rng := rand.New(rand.NewSource(seed))
	f := tt.New(k, m)
	for o := 0; o < m; o++ {
		for i := 0; i < f.Size(); i++ {
			switch rng.Intn(3) {
			case 0:
				f.SetPhase(o, i, tt.On)
			case 1:
				f.SetPhase(o, i, tt.DC)
			}
		}
	}
	return f
}

func TestComputeMatchesPerMinterm(t *testing.T) {
	f := randomSpec(6, 3, 1)
	fc, err := Compute(context.Background(), f, 2)
	if err != nil {
		t.Fatal(err)
	}
	for o := 0; o < 3; o++ {
		c := fc.Outs[o]
		for m := 0; m < f.Size(); m++ {
			if got, want := c.OnAt(m), f.OnNeighbors(o, m); got != want {
				t.Fatalf("o=%d m=%d OnAt=%d want %d", o, m, got, want)
			}
			if got, want := c.OffAt(m), f.OffNeighbors(o, m); got != want {
				t.Fatalf("o=%d m=%d OffAt=%d want %d", o, m, got, want)
			}
		}
	}
	if !fc.Matches(f) {
		t.Fatal("freshly computed census fails its own Matches guard")
	}
	if fc.Bytes() <= 0 {
		t.Fatal("census reports zero resident bytes")
	}
}

// A cancelled context aborts the census build with ctx.Err(), so no
// analysis reads a partial census.
func TestComputeCancellationAborts(t *testing.T) {
	f := randomSpec(6, 4, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Compute(ctx, f, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("Compute: got %v, want context.Canceled", err)
	}
}

// Check accepts exactly one census per output of f's minterm space.
func TestCheck(t *testing.T) {
	f := randomSpec(5, 3, 4)
	fc, err := Compute(context.Background(), f, 1)
	if err != nil {
		t.Fatal(err)
	}
	cs := fc.Outs
	wide, err := Compute(context.Background(), randomSpec(6, 3, 5), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cs   []*bitset.Census
		ok   bool
	}{
		{"own", cs, true},
		{"nil", nil, false},
		{"short", cs[:2], false},
		{"long", append(cs[:3:3], cs[0]), false},
		{"nil entry", []*bitset.Census{cs[0], nil, cs[2]}, false},
		{"other width", []*bitset.Census{cs[0], wide.Outs[1], cs[2]}, false},
	} {
		if err := Check(f, tc.cs); (err == nil) != tc.ok {
			t.Errorf("%s: Check = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestEngineKeyPurity is the cache-key contract test: the census cache
// is keyed on the spec hash ALONE, so lookups under any combination of
// execution knobs (parallelism here; the pipeline-level test covers the
// kernels and fraction wire knobs) share one entry — the knobs never
// fragment the cache.
func TestEngineKeyPurity(t *testing.T) {
	e := NewEngine(16, 1<<20)
	f := randomSpec(5, 2, 2)
	ctx := context.Background()
	first, err := e.For(ctx, "spec-hash-a", f, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, parallelism := range []int{0, 1, 4, 8} {
		got, err := e.For(ctx, "spec-hash-a", f, parallelism)
		if err != nil {
			t.Fatal(err)
		}
		if got != first {
			t.Fatalf("parallelism=%d returned a different census instance: the knob fragmented the cache", parallelism)
		}
	}
	st := e.Stats()
	if st.Len != 1 {
		t.Fatalf("cache holds %d entries after knob sweep, want 1", st.Len)
	}
	if st.Misses != 1 || st.Hits != 4 {
		t.Fatalf("hits/misses = %d/%d, want 4/1", st.Hits, st.Misses)
	}
}

func TestEngineMatchesGuardRejectsWrongSpec(t *testing.T) {
	e := NewEngine(16, 1<<20)
	ctx := context.Background()
	f := randomSpec(5, 1, 3)
	g := randomSpec(5, 1, 4)
	if _, err := e.For(ctx, "h", f, 1); err != nil {
		t.Fatal(err)
	}
	// Same hash, different function (a collision or bad prime): the
	// guard must recompute, not serve f's census for g.
	got, err := e.For(ctx, "h", g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Matches(g) {
		t.Fatal("engine served a census that does not match the requested function")
	}
}

func TestEngineByteBudgetBounds(t *testing.T) {
	f := randomSpec(8, 1, 5)
	probe, err := Compute(context.Background(), f, 1)
	if err != nil {
		t.Fatal(err)
	}
	one := int64(probe.Bytes())
	e := NewEngine(1024, 3*one)
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		spec := randomSpec(8, 1, int64(100+i))
		if _, err := e.For(ctx, string(rune('a'+i)), spec, 1); err != nil {
			t.Fatal(err)
		}
		if got := e.Stats().Bytes; got > 3*one {
			t.Fatalf("resident census bytes %d exceed the %d budget", got, 3*one)
		}
	}
	if got := e.Stats().Len; got > 3 {
		t.Fatalf("cache holds %d censuses, byte budget allows at most 3", got)
	}
}
