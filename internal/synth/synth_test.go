package synth

import (
	"context"
	"runtime"
	"testing"

	"math/rand"
	"relsyn/internal/census"
	"relsyn/internal/core"
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

func TestSynthesizeRespectsSpec(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	for trial := 0; trial < 8; trial++ {
		f := randomFunction(rng, 5+rng.Intn(3), 1+rng.Intn(3), 0.5)
		for _, obj := range []Objective{OptimizeDelay, OptimizePower} {
			res, err := Synthesize(f, Options{Objective: obj})
			if err != nil {
				t.Fatalf("trial %d obj %v: %v", trial, obj, err)
			}
			if !res.Impl.CompletelySpecified() {
				t.Fatal("implementation not completely specified")
			}
			// Synthesize already errors on care-set violations; re-verify
			// independently via the truth tables.
			for o := range f.Outs {
				for m := 0; m < f.Size(); m++ {
					switch f.Phase(o, m) {
					case tt.On:
						if res.Impl.Phase(o, m) != tt.On {
							t.Fatalf("on-set violated at out %d minterm %d", o, m)
						}
					case tt.Off:
						if res.Impl.Phase(o, m) != tt.Off {
							t.Fatalf("off-set violated at out %d minterm %d", o, m)
						}
					}
				}
			}
			if res.Metrics.Gates > 0 && (res.Metrics.Area <= 0 || res.Metrics.DelayPs <= 0) {
				t.Fatalf("bad metrics: %+v", res.Metrics)
			}
		}
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(112))
	f := randomFunction(rng, 6, 2, 0.6)
	a, err := Synthesize(f, Options{Objective: OptimizePower})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthesize(f, Options{Objective: OptimizePower})
	if err != nil {
		t.Fatal(err)
	}
	if a.Metrics != b.Metrics {
		t.Fatalf("nondeterministic metrics: %+v vs %+v", a.Metrics, b.Metrics)
	}
	if !a.Impl.Equal(b.Impl) {
		t.Fatal("nondeterministic implementation")
	}
}

func TestDelayObjectiveFaster(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	slower := 0
	for trial := 0; trial < 6; trial++ {
		f := randomFunction(rng, 7, 2, 0.5)
		d, err := Synthesize(f, Options{Objective: OptimizeDelay})
		if err != nil {
			t.Fatal(err)
		}
		p, err := Synthesize(f, Options{Objective: OptimizePower})
		if err != nil {
			t.Fatal(err)
		}
		if d.Metrics.DelayPs > p.Metrics.DelayPs+1e-9 {
			slower++
		}
	}
	if slower > 0 {
		t.Fatalf("delay objective slower than power objective in %d/6 trials", slower)
	}
}

func TestFlowResynEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(114))
	for trial := 0; trial < 5; trial++ {
		f := randomFunction(rng, 6, 2, 0.5)
		a, err := Synthesize(f, Options{Flow: FlowSOP, Objective: OptimizePower})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Synthesize(f, Options{Flow: FlowResyn, Objective: OptimizePower})
		if err != nil {
			t.Fatal(err)
		}
		// The two flows may pick different DC completions only if the
		// minimizer input differs — it does not, so implementations match
		// exactly on the care set and both satisfy the spec.
		for o := range f.Outs {
			for m := 0; m < f.Size(); m++ {
				if f.Phase(o, m) == tt.DC {
					continue
				}
				if a.Impl.Phase(o, m) != b.Impl.Phase(o, m) {
					t.Fatalf("flows disagree on care minterm %d out %d", m, o)
				}
			}
		}
		_ = b
	}
}

// The headline pipeline property (paper Fig. 4): reliability-driven
// assignment before synthesis must not increase the measured error rate
// versus conventional-only synthesis, and complete assignment achieves
// the exact minimum bound.
func TestPipelineErrorRateImproves(t *testing.T) {
	rng := rand.New(rand.NewSource(115))
	for trial := 0; trial < 5; trial++ {
		spec := randomFunction(rng, 6, 2, 0.6)

		conv, err := Synthesize(spec, Options{Objective: OptimizePower})
		if err != nil {
			t.Fatal(err)
		}
		convER, err := reliability.ErrorRateMeanCtx(context.Background(), spec, conv.Impl, 0)
		if err != nil {
			t.Fatal(err)
		}

		complete := core.Complete(spec)
		rel, err := Synthesize(complete.Func, Options{Objective: OptimizePower})
		if err != nil {
			t.Fatal(err)
		}
		relER, err := reliability.ErrorRateMeanCtx(context.Background(), spec, rel.Impl, 0)
		if err != nil {
			t.Fatal(err)
		}

		fc, err := census.Compute(context.Background(), spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi, err := reliability.BoundsMeanCensusCtx(context.Background(), spec, fc.Outs, 0)
		if err != nil {
			t.Fatal(err)
		}
		if relER < lo-1e-12 || convER < lo-1e-12 || relER > hi+1e-12 || convER > hi+1e-12 {
			t.Fatalf("error rates outside exact bounds: conv=%v rel=%v in [%v,%v]",
				convER, relER, lo, hi)
		}
		if relER > lo+1e-12 {
			t.Fatalf("complete reliability assignment rate %v != exact min %v", relER, lo)
		}
		if relER > convER+1e-12 {
			t.Fatalf("reliability assignment worsened error rate: %v > %v", relER, convER)
		}
	}
}

func TestRefactorPreservesFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(116))
	f := randomFunction(rng, 6, 3, 0.4)
	res, err := Synthesize(f, Options{Objective: OptimizePower})
	if err != nil {
		t.Fatal(err)
	}
	g2 := Refactor(res.Graph)
	for m := uint(0); m < uint(f.Size()); m++ {
		a, b := res.Graph.Eval(m), g2.Eval(m)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("Refactor changed function at minterm %d PO %d", m, i)
			}
		}
	}
	if g2.NumNodes() > res.Graph.NumNodes() {
		t.Fatal("Refactor grew the graph (should keep original)")
	}
}

func TestResynNodesPreservesFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(117))
	for trial := 0; trial < 5; trial++ {
		f := randomFunction(rng, 6, 2, 0.4)
		res, err := Synthesize(f, Options{Objective: OptimizePower})
		if err != nil {
			t.Fatal(err)
		}
		g2, err := ResynNodes(res.Graph, 5)
		if err != nil {
			t.Fatal(err)
		}
		for m := uint(0); m < uint(f.Size()); m++ {
			a, b := res.Graph.Eval(m), g2.Eval(m)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("ResynNodes changed function at minterm %d PO %d", m, i)
				}
			}
		}
		if g2.NumNodes() > res.Graph.NumNodes() {
			t.Fatal("ResynNodes grew the graph (should keep original)")
		}
	}
}

func TestSynthesizeConstantOutputs(t *testing.T) {
	f := tt.New(4, 2)
	// Output 0 constant 0, output 1 constant 1.
	for m := 0; m < 16; m++ {
		f.SetPhase(1, m, tt.On)
	}
	res, err := Synthesize(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Gates != 0 {
		t.Fatalf("constant outputs should need no gates, got %d", res.Metrics.Gates)
	}
	if res.Impl.Outs[0].On.Any() || res.Impl.Outs[1].On.Count() != 16 {
		t.Fatal("constant outputs wrong")
	}
}

func TestSynthesizeAllDCFunction(t *testing.T) {
	f := tt.New(3, 1)
	for m := 0; m < 8; m++ {
		f.SetPhase(0, m, tt.DC)
	}
	res, err := Synthesize(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Gates != 0 {
		t.Fatal("all-DC function should synthesize to a constant")
	}
}

// The synthesized netlist must be identical at every parallelism level:
// minimization fans out, but the AIG is always built in output order.
func TestSynthesizeParallelMatchesSequential(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	rng := rand.New(rand.NewSource(119))
	for _, flow := range []Flow{FlowSOP, FlowResyn} {
		spec := randomFunction(rng, 6, 4, 0.4)
		seq, err := Synthesize(spec, Options{Flow: flow, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{2, 8, 0} {
			got, err := Synthesize(spec, Options{Flow: flow, Parallelism: p})
			if err != nil {
				t.Fatal(err)
			}
			if !got.Impl.Equal(seq.Impl) {
				t.Fatalf("flow=%v p=%d: implementation differs from sequential", flow, p)
			}
			if got.Metrics != seq.Metrics {
				t.Fatalf("flow=%v p=%d: metrics %+v != sequential %+v", flow, p, got.Metrics, seq.Metrics)
			}
		}
	}
}
