package relsyn_test

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"relsyn"
)

func TestPLARoundTripThroughFacade(t *testing.T) {
	src := `
.i 3
.o 1
01- 1
000 -
.e
`
	f, err := relsyn.ParsePLA(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if f.NumIn != 3 || f.NumOut() != 1 {
		t.Fatal("shape wrong")
	}
	var buf bytes.Buffer
	if err := relsyn.WritePLA(&buf, f); err != nil {
		t.Fatal(err)
	}
	back, err := relsyn.ParsePLA(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Equal(back) {
		t.Fatal("round trip mismatch")
	}
}

func TestQuickstartPipeline(t *testing.T) {
	spec, err := relsyn.LoadBenchmark("bench")
	if err != nil {
		t.Fatal(err)
	}
	// Conventional baseline.
	conv, err := relsyn.Synthesize(spec, relsyn.SynthOptions{Objective: relsyn.OptimizePower})
	if err != nil {
		t.Fatal(err)
	}
	convER, err := relsyn.ErrorRate(spec, conv.Impl)
	if err != nil {
		t.Fatal(err)
	}

	// Reliability-driven: rank and bind half the DCs.
	res, err := relsyn.RankingAssign(spec, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := relsyn.Synthesize(res.Func, relsyn.SynthOptions{Objective: relsyn.OptimizePower})
	if err != nil {
		t.Fatal(err)
	}
	relER, err := relsyn.ErrorRate(spec, rel.Impl)
	if err != nil {
		t.Fatal(err)
	}

	lo, hi, err := relsyn.ExactBounds(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, er := range []float64{convER, relER} {
		if er < lo-1e-12 || er > hi+1e-12 {
			t.Fatalf("error rate %v outside exact bounds [%v, %v]", er, lo, hi)
		}
	}
	if relER > convER+1e-12 {
		t.Fatalf("half ranking assignment worsened error rate: %v > %v", relER, convER)
	}
	if conv.Metrics.Area <= 0 || conv.Metrics.Gates <= 0 {
		t.Fatal("metrics missing")
	}
}

func TestFacadeMetrics(t *testing.T) {
	spec, err := relsyn.LoadBenchmark("fout")
	if err != nil {
		t.Fatal(err)
	}
	cf, err := relsyn.ComplexityFactor(spec)
	if err != nil {
		t.Fatal(err)
	}
	if cf <= 0 || cf >= 1 {
		t.Fatalf("C^f = %v", cf)
	}
	ecf, err := relsyn.ExpectedComplexityFactor(spec)
	if err != nil {
		t.Fatal(err)
	}
	if ecf <= 0 || ecf >= 1 {
		t.Fatalf("E[C^f] = %v", ecf)
	}
	lcf, err := relsyn.LocalComplexityFactor(spec, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lcf < 0 || lcf > 1 {
		t.Fatalf("LC^f = %v", lcf)
	}
	sig, err := relsyn.SignalEstimate(spec)
	if err != nil {
		t.Fatal(err)
	}
	bor, err := relsyn.BorderEstimate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if sig.Min > sig.Max || bor.Min > bor.Max {
		t.Fatal("estimate intervals inverted")
	}
}

// An output or minterm index outside the function is an error, not a
// panic.
func TestLocalComplexityFactorRejectsOutOfRange(t *testing.T) {
	f := relsyn.NewFunction(3, 1)
	f.SetPhase(0, 2, relsyn.DC)
	for _, idx := range [][2]int{{1, 0}, {-1, 0}, {0, 8}, {0, -1}} {
		if v, err := relsyn.LocalComplexityFactor(f, idx[0], idx[1]); err == nil {
			t.Errorf("output %d minterm %d: LC^f %v, want an error", idx[0], idx[1], v)
		}
	}
	if _, err := relsyn.LocalComplexityFactor(f, 0, 7); err != nil {
		t.Fatalf("last minterm: %v", err)
	}
}

func TestCompleteAndLCFAssign(t *testing.T) {
	spec, err := relsyn.LoadBenchmark("bench")
	if err != nil {
		t.Fatal(err)
	}
	comp := relsyn.CompleteAssign(spec)
	if !comp.Func.CompletelySpecified() {
		t.Fatal("CompleteAssign left DCs")
	}
	lcf, err := relsyn.LCFAssign(spec, 0.55)
	if err != nil {
		t.Fatal(err)
	}
	if lcf.FractionAssigned() < 0 || lcf.FractionAssigned() > 1 {
		t.Fatal("bad fraction")
	}
}

func TestFacadeExtensions(t *testing.T) {
	spec, err := relsyn.LoadBenchmark("bench")
	if err != nil {
		t.Fatal(err)
	}
	res, err := relsyn.Synthesize(spec, relsyn.SynthOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := relsyn.ErrorRateMulti(context.Background(), spec, res.Impl, 1)
	if err != nil {
		t.Fatal(err)
	}
	single, err := relsyn.ErrorRate(spec, res.Impl)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r1-single) > 1e-12 {
		t.Fatal("ErrorRateMulti(k=1) disagrees with ErrorRate")
	}
	r2, err := relsyn.ErrorRateMulti(context.Background(), spec, res.Impl, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r2 < 0 || r2 > 1 {
		t.Fatalf("2-bit rate out of range: %v", r2)
	}
	// BLIF through the facade.
	nw, err := relsyn.Decompose(res.Graph, 4)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := relsyn.WriteBLIF(&buf, nw, "m"); err != nil {
		t.Fatal(err)
	}
	back, err := relsyn.ParseBLIF(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumPI != spec.NumIn {
		t.Fatal("BLIF round trip lost inputs")
	}
}

func TestBenchmarksList(t *testing.T) {
	specs := relsyn.Benchmarks()
	if len(specs) != 12 {
		t.Fatalf("suite has %d entries, want 12", len(specs))
	}
	if specs[0].Name != "bench" || specs[11].Name != "random3" {
		t.Fatal("suite order wrong")
	}
}

func TestGenerateSyntheticFacade(t *testing.T) {
	f, err := relsyn.GenerateSynthetic(relsyn.SyntheticParams{
		Inputs: 7, Outputs: 1, DCFraction: 0.5, TargetCf: 0.6, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := relsyn.ComplexityFactor(f)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.6) > 0.011 {
		t.Fatalf("C^f = %v, want ~0.6", got)
	}
}

func TestDecomposeFacade(t *testing.T) {
	spec, err := relsyn.LoadBenchmark("bench")
	if err != nil {
		t.Fatal(err)
	}
	res, err := relsyn.Synthesize(spec, relsyn.SynthOptions{})
	if err != nil {
		t.Fatal(err)
	}
	nw, err := relsyn.Decompose(res.Graph, 4)
	if err != nil {
		t.Fatal(err)
	}
	if nw.NumNodes() == 0 {
		t.Fatal("empty decomposition")
	}
	r := nw.InternalErrorRate()
	if r <= 0 || r > 1 {
		t.Fatalf("internal error rate %v", r)
	}
}
