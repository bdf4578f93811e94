package metatest

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"relsyn/internal/benchmarks"
	"relsyn/internal/core"
	"relsyn/internal/network"
	"relsyn/internal/synthetic"
	"relsyn/internal/tt"
)

// loadBench fetches one suite benchmark (generation is cached inside
// internal/benchmarks, so repeated loads are cheap).
func loadBench(t *testing.T, name string) *tt.Function {
	t.Helper()
	f, err := benchmarks.Load(name)
	if err != nil {
		t.Fatalf("load %s: %v", name, err)
	}
	return f
}

// suite returns the benchmark names the sweep covers. -short trims the
// 12-input tail, which dominates wall-clock.
func suite(t *testing.T) []string {
	var names []string
	for _, s := range benchmarks.Specs() {
		if testing.Short() && s.Inputs >= 12 {
			continue
		}
		names = append(names, s.Name)
	}
	if len(names) == 0 {
		t.Fatal("empty benchmark suite")
	}
	return names
}

// Properties 1 and 2, swept over every benchmark × every assignment
// method: synthesis output agrees with the spec on its care set, and
// its exact error rate stays inside the spec's achievable bounds.
func TestCareSetAndBoundsAcrossSuite(t *testing.T) {
	for _, name := range suite(t) {
		for _, method := range Methods() {
			name, method := name, method
			t.Run(name+"/"+method.Name, func(t *testing.T) {
				t.Parallel()
				spec := loadBench(t, name)
				assigned, err := method.Apply(spec)
				if err != nil {
					t.Fatalf("assign: %v", err)
				}
				// The method must only bind DCs: the assigned function is
				// itself care-set-equivalent to the spec.
				if err := CheckCareSet(spec, assigned); err != nil {
					t.Fatalf("assignment violated the care set: %v", err)
				}
				impl, err := Synthesize(assigned)
				if err != nil {
					t.Fatalf("synthesize: %v", err)
				}
				if !impl.CompletelySpecified() {
					t.Fatal("synthesized implementation still has DCs")
				}
				if err := CheckCareSet(spec, impl); err != nil {
					t.Errorf("care-set equivalence: %v", err)
				}
				if err := CheckErrorRateBounds(spec, impl); err != nil {
					t.Errorf("bound bracketing: %v", err)
				}
			})
		}
	}
}

// Property 3: ranking with fraction 0 is a no-op; fraction 1 leaves no
// rankable DC unassigned — on every benchmark.
func TestRankingFractionExtremesAcrossSuite(t *testing.T) {
	for _, name := range suite(t) {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if err := CheckRankingExtremes(loadBench(t, name)); err != nil {
				t.Error(err)
			}
		})
	}
}

// Property 4: the LC^f threshold sweep is monotone — a higher threshold
// never assigns fewer DC minterms — on every benchmark.
func TestLCFThresholdMonotonicAcrossSuite(t *testing.T) {
	thresholds := []float64{0.05, 0.2, 0.35, 0.45, 0.5, 0.55, 0.6, 0.65, 0.8, 0.95}
	for _, name := range suite(t) {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if err := CheckLCFMonotonic(loadBench(t, name), thresholds); err != nil {
				t.Error(err)
			}
		})
	}
}

// Property 5: parallel ≡ sequential. Every parallelized kernel —
// reliability bounds and error-rate means, complexity factor means,
// signal/border estimates, ranking/LC^f assignment, and the full
// synthesis flow — must reproduce its sequential result bit for bit at
// worker counts 1, 2, and 8, on every benchmark. GOMAXPROCS is raised
// so the higher counts genuinely run concurrently even on small CI
// machines; this test is part of the -race CI gate.
func TestParallelEquivalenceAcrossSuite(t *testing.T) {
	prev := runtime.GOMAXPROCS(8)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	for _, name := range suite(t) {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec := loadBench(t, name)
			ref, err := ParallelBaseline(spec)
			if err != nil {
				t.Fatalf("sequential baseline: %v", err)
			}
			for _, p := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
					if err := CheckParallelEquivalence(spec, ref, p); err != nil {
						t.Error(err)
					}
				})
			}
		})
	}
}

// Property 6: census ≡ scalar oracle, kernel half. ErrorRate's fused
// popcount — the one analysis kernel outside the census, since it
// measures the implementation — must reproduce the oracle's error rate
// (impl against the spec's care set, and impl against its own) bit for
// bit on every benchmark, with the scans fanned out at worker counts 1
// and 8. Part of the -race CI gate.
func TestKernelEquivalenceAcrossSuite(t *testing.T) {
	prev := runtime.GOMAXPROCS(8)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	for _, name := range suite(t) {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec := loadBench(t, name)
			ref, err := OracleBaseline(spec)
			if err != nil {
				t.Fatalf("oracle baseline: %v", err)
			}
			for _, p := range []int{1, 8} {
				t.Run(fmt.Sprintf("j=%d", p), func(t *testing.T) {
					if err := CheckKernelEquivalence(spec, ref, p); err != nil {
						t.Error(err)
					}
				})
			}
		})
	}
}

// Property 6: census ≡ scalar oracle. The fused neighbor census must
// serve every spec-side quantity — exact pair counts and bounds, border
// counts, C^f and the LC^f fold, the Poisson border estimate, and the
// ranking, LC^f and complete passes — bit for bit against the scalar
// oracle from a census built at worker counts 1 and 8 — the assignment
// passes also with no census supplied — on every benchmark. Censuses are computed fresh per check (never
// through the process-global engine), so the sweep is race-free under
// t.Parallel and part of the -race CI gate.
func TestCensusEquivalenceAcrossSuite(t *testing.T) {
	prev := runtime.GOMAXPROCS(8)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	for _, name := range suite(t) {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec := loadBench(t, name)
			ref, err := OracleBaseline(spec)
			if err != nil {
				t.Fatalf("oracle baseline: %v", err)
			}
			for _, p := range []int{1, 8} {
				t.Run(fmt.Sprintf("j=%d", p), func(t *testing.T) {
					if err := CheckCensusEquivalence(spec, ref, p); err != nil {
						t.Error(err)
					}
				})
			}
		})
	}
}

// Property 6, assignment half, off the suite's operating point: the
// sweep above pins one fraction and one threshold with ties skipped.
// The two tests below hold core.Ranking and core.LCF to the scalar
// oracle on oracleRandomFunctions at every fraction or threshold they
// list, with ties both skipped and bound to the off-set.

// oracleRandomFunctions returns 20 seeded random functions: n ∈ 3..7,
// 1–2 outputs, half the minterms DC.
func oracleRandomFunctions(t *testing.T) []*tt.Function {
	t.Helper()
	rng := rand.New(rand.NewSource(151))
	fs := make([]*tt.Function, 20)
	for i := range fs {
		f, err := synthetic.Random(3+rng.Intn(5), 1+rng.Intn(2), 0.25, 0.25, 0.5, rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		fs[i] = f
	}
	return fs
}

func TestRankingMatchesOracleOnRandomFunctions(t *testing.T) {
	for trial, f := range oracleRandomFunctions(t) {
		for _, ties := range []bool{false, true} {
			for _, fr := range []float64{0, 0.3, 0.7, 1} {
				got, err := core.Ranking(f, fr, core.Options{AssignTies: ties})
				if err != nil {
					t.Fatal(err)
				}
				what := fmt.Sprintf("trial %d Ranking(%v, ties=%v)", trial, fr, ties)
				if err := sameAssignments(what, got, RankingScalar(f, fr, ties)); err != nil {
					t.Error(err)
				}
			}
		}
	}
}

func TestLCFMatchesOracleOnRandomFunctions(t *testing.T) {
	for trial, f := range oracleRandomFunctions(t) {
		for _, ties := range []bool{false, true} {
			for _, th := range []float64{0, 0.4, 0.6, 1} {
				got, err := core.LCF(f, th, core.Options{AssignTies: ties})
				if err != nil {
					t.Fatal(err)
				}
				what := fmt.Sprintf("trial %d LCF(%v, ties=%v)", trial, th, ties)
				if err := sameAssignments(what, got, LCFScalar(f, th, ties)); err != nil {
					t.Error(err)
				}
			}
		}
	}
}

// Property 7: windowed ⊆ exhaustive don't-cares. On every benchmark,
// lowered to a k-feasible network, the windowed SAT extraction at a
// deliberately shallow window (TFI 2, TFO 1 — small enough that real
// circuits overflow it) marks a subset of the exhaustive DCs with no
// care-phase flips, and the full-depth window reproduces the exhaustive
// spec bit for bit. The node sweep inside the checker runs the SAT
// encoder on every node, so this test is part of the -race CI gate.
func TestWindowedDCSubsetAcrossSuite(t *testing.T) {
	shallow := network.WindowOptions{TFI: 2, TFO: 1}
	// The checker is O(nodes × 2^k SAT calls) plus a full-depth pass; in
	// -short the sweep keeps the ≤8-input circuits, still several hundred
	// nodes across both engines.
	var names []string
	for _, s := range benchmarks.Specs() {
		if testing.Short() && s.Inputs >= 10 {
			continue
		}
		names = append(names, s.Name)
	}
	if len(names) == 0 {
		t.Fatal("empty benchmark suite")
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			nw, err := BuildNetwork(loadBench(t, name), 4)
			if err != nil {
				t.Fatalf("build network: %v", err)
			}
			// Both oracle passes cost O(network) per node (exhaustive
			// simulation and the full-depth CNF), so sweeping every node
			// is quadratic in circuit size — random1 lowers to ~2500
			// nodes and would take the better part of an hour alone.
			// Bound checked-nodes × network-size: small networks are
			// swept completely, big ones at a uniform stride.
			maxNodes := 0
			if n := len(nw.Nodes); n*n > 20000 {
				maxNodes = 20000 / n
				if maxNodes < 8 {
					maxNodes = 8
				}
			}
			if err := CheckWindowedDCSubset(nw, shallow, maxNodes); err != nil {
				t.Error(err)
			}
		})
	}
}

// The harness's checkers must themselves catch violations: a mutated
// care bit fails property 1 and (for a flipped majority) can break 2.
func TestCheckersDetectViolations(t *testing.T) {
	spec := loadBench(t, "bench")
	impl, err := Synthesize(spec.Clone())
	if err != nil {
		t.Fatal(err)
	}
	// Flip one care minterm of the implementation.
	broken := impl.Clone()
	size := spec.Size()
	found := false
	for o := 0; o < spec.NumOut() && !found; o++ {
		for m := 0; m < size && !found; m++ {
			if p := spec.Phase(o, m); p != tt.DC {
				flip := tt.On
				if p == tt.On {
					flip = tt.Off
				}
				broken.SetPhase(o, m, flip)
				found = true
			}
		}
	}
	if !found {
		t.Fatal("benchmark has no care minterms")
	}
	if err := CheckCareSet(spec, broken); err == nil {
		t.Error("care-set checker accepted a broken implementation")
	}
	if err := CheckCareSet(spec, impl); err != nil {
		t.Errorf("care-set checker rejected a valid implementation: %v", err)
	}
	// Dimension mismatches are errors, not silent passes.
	if err := CheckCareSet(spec, tt.New(spec.NumIn+1, spec.NumOut())); err == nil {
		t.Error("dimension mismatch accepted")
	}
}
