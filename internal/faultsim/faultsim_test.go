package faultsim

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"relsyn/internal/aig"
	"relsyn/internal/bitset"
	"relsyn/internal/celllib"
	"relsyn/internal/mapper"
)

func mapGraph(t *testing.T, g *aig.Graph) *mapper.Result {
	t.Helper()
	r, err := mapper.Map(g, celllib.Generic70(), mapper.Area)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSingleAndGate(t *testing.T) {
	g := aig.New(2)
	g.AddPO(g.And(g.PI(0), g.PI(1)))
	rep, err := Analyze(mapGraph(t, g), 2)
	if err != nil {
		t.Fatal(err)
	}
	// One AND2 gate, two faults. Output stuck-at-0: observed when the
	// good output is 1 (1 of 4 vectors). Stuck-at-1: observed on the
	// other 3 vectors.
	if rep.Faults != 2 {
		t.Fatalf("faults = %d, want 2", rep.Faults)
	}
	want := (1.0/4 + 3.0/4) / 2
	if rep.MeanObservability != want {
		t.Fatalf("mean observability = %v, want %v", rep.MeanObservability, want)
	}
	if rep.Undetectable != 0 {
		t.Fatalf("undetectable = %d, want 0", rep.Undetectable)
	}
	if rep.WorstObservability != 0.75 {
		t.Fatalf("worst observability = %v, want 0.75", rep.WorstObservability)
	}
}

// A fault on a PO-driving net is always observable exactly where it
// flips the value; a fault masked by downstream logic shows lower
// observability.
func TestMaskingByDownstreamGate(t *testing.T) {
	// f = (a AND b) OR a = a: strashing won't simplify this because we
	// build it via distinct nodes... And(a,b) then Or with a gives
	// absorption at AIG level? Or(x, a) = ¬(¬x ∧ ¬a) — no trivial rule
	// applies, so the redundant AND survives into the netlist.
	g := aig.New(2)
	a, b := g.PI(0), g.PI(1)
	x := g.And(a, b)
	g.AddPO(g.Or(x, a))
	r := mapGraph(t, g)
	rep, err := Analyze(r, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults == 0 {
		t.Skip("mapper collapsed the redundancy into a single cell")
	}
	// Any fault on the internal AND is masked whenever a=1 forces the OR
	// (or a=0 with b=0...). Just sanity-check ranges.
	if rep.MeanObservability < 0 || rep.MeanObservability > 1 {
		t.Fatalf("observability out of range: %v", rep.MeanObservability)
	}
}

// evalGate's raw word loop would silently truncate an input buffer
// longer than the block (and index out of range on a shorter one). It
// must refuse the mismatch with the same typed error the Set binary ops
// raise.
func TestEvalGateRejectsMismatchedTable(t *testing.T) {
	g := aig.New(2)
	g.AddPO(g.And(g.PI(0), g.PI(1)))
	r := mapGraph(t, g)
	if len(r.Gates) == 0 {
		t.Fatal("no gates mapped")
	}
	s, err := NewSim(r, 2)
	if err != nil {
		t.Fatal(err)
	}
	vals := s.buffers()
	gt := &s.gates[0]
	// Wrong-sized buffer injected for the first gate input.
	vals[gt.in[0]] = make([]uint64, 2)
	defer func() {
		rec := recover()
		if rec == nil {
			t.Fatal("mismatched input table accepted")
		}
		err, ok := rec.(error)
		if !ok || !errors.Is(err, bitset.ErrSizeMismatch) {
			t.Fatalf("panic %v is not a bitset.ErrSizeMismatch", rec)
		}
		var sm *bitset.SizeMismatchError
		if !errors.As(err, &sm) || sm.Op != "faultsim.evalGate" {
			t.Fatalf("mismatch detail wrong: %#v", rec)
		}
	}()
	evalGate(gt, vals, vals[gt.out])
}

func TestStuckFaultsExhaustiveVsNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(181))
	for trial := 0; trial < 8; trial++ {
		g := randomGraph(rng, 4, 15, 2)
		r := mapGraph(t, g)
		rep, err := Analyze(r, 4)
		if err != nil {
			t.Fatal(err)
		}
		// Naive recomputation: per fault, per vector, full forward eval.
		naiveMean, naiveUndet, faults := 0.0, 0, 0
		for gi := range r.Gates {
			for _, stuck := range []bool{false, true} {
				faults++
				obs := 0
				for m := uint(0); m < 16; m++ {
					if evalWithFault(r, 4, m, gi, stuck, false) != evalWithFault(r, 4, m, gi, stuck, true) {
						obs++
					}
				}
				naiveMean += float64(obs) / 16
				if obs == 0 {
					naiveUndet++
				}
			}
		}
		if faults > 0 {
			naiveMean /= float64(faults)
		}
		if rep.Faults != faults || rep.Undetectable != naiveUndet {
			t.Fatalf("trial %d: counts differ: %+v vs naive faults=%d undet=%d",
				trial, rep, faults, naiveUndet)
		}
		if diff := rep.MeanObservability - naiveMean; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("trial %d: mean observability %v vs naive %v",
				trial, rep.MeanObservability, naiveMean)
		}
	}
}

// evalWithFault evaluates the netlist at one vector; withFault selects
// whether gate gi's output is forced to stuck. Returns a fingerprint of
// the PO values.
func evalWithFault(r *mapper.Result, numPI int, minterm uint, gi int, stuck, withFault bool) uint64 {
	vals := map[mapper.Net]bool{}
	var value func(n mapper.Net) bool
	value = func(n mapper.Net) bool {
		if v, ok := vals[n]; ok {
			return v
		}
		switch {
		case n.Node == 0:
			return n.Neg
		case n.Node >= 1 && n.Node <= numPI:
			v := minterm>>uint(n.Node-1)&1 == 1
			if n.Neg {
				v = !v
			}
			return v
		}
		panic("undriven net")
	}
	for idx, gt := range r.Gates {
		if withFault && idx == gi {
			vals[gt.Output] = stuck
			continue
		}
		var row uint
		for pin, in := range gt.Inputs {
			if value(in) {
				row |= 1 << uint(pin)
			}
		}
		vals[gt.Output] = gt.Cell.Table>>row&1 == 1
	}
	var fp uint64
	for i, po := range r.PONets {
		if value(po) {
			fp |= 1 << uint(i)
		}
	}
	return fp
}

func randomGraph(rng *rand.Rand, numPI, ands, pos int) *aig.Graph {
	g := aig.New(numPI)
	lits := []aig.Lit{}
	for i := 0; i < numPI; i++ {
		lits = append(lits, g.PI(i))
	}
	for i := 0; i < ands; i++ {
		a := lits[rng.Intn(len(lits))]
		b := lits[rng.Intn(len(lits))]
		if rng.Intn(2) == 0 {
			a = a.Not()
		}
		if rng.Intn(2) == 0 {
			b = b.Not()
		}
		lits = append(lits, g.And(a, b))
	}
	for i := 0; i < pos; i++ {
		l := lits[rng.Intn(len(lits))]
		if rng.Intn(2) == 0 {
			l = l.Not()
		}
		g.AddPO(l)
	}
	return g.Cleanup()
}

func TestAnalyzeValidates(t *testing.T) {
	g := aig.New(2)
	g.AddPO(g.And(g.PI(0), g.PI(1)))
	r := mapGraph(t, g)
	if _, err := Analyze(r, 17); err == nil {
		t.Fatal("oversized input count accepted")
	}
}

func TestEmptyNetlist(t *testing.T) {
	g := aig.New(2)
	g.AddPO(aig.ConstFalse)
	rep, err := Analyze(mapGraph(t, g), 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults != 0 || rep.MeanObservability != 0 {
		t.Fatalf("constant netlist should have no faults: %+v", rep)
	}
}

// Malformed-netlist error paths: Analyze must reject (with errors, not
// panics) nil results, netlists with neither gates nor primary outputs,
// and references to nets no gate drives.
func TestAnalyzeRejectsMalformedNetlists(t *testing.T) {
	if _, err := Analyze(nil, 2); err == nil {
		t.Fatal("nil netlist accepted")
	}
	if _, err := Analyze(&mapper.Result{}, 2); err == nil {
		t.Fatal("empty netlist accepted")
	}
	if _, err := Analyze(&mapper.Result{}, -1); err == nil {
		t.Fatal("negative input count accepted")
	}

	lib := celllib.Generic70()
	var inv celllib.Cell
	found := false
	for _, c := range lib.Cells {
		if c.NumIn == 1 {
			inv, found = c, true
			break
		}
	}
	if !found {
		t.Fatal("library has no 1-input cell")
	}

	// Gate input reads node 9, which is neither constant, PI, nor any
	// gate's output.
	undrivenIn := &mapper.Result{
		Gates: []mapper.Gate{{
			Cell:   inv,
			Inputs: []mapper.Net{{Node: 9}},
			Output: mapper.Net{Node: 3},
		}},
		PONets: []mapper.Net{{Node: 3}},
	}
	if _, err := Analyze(undrivenIn, 2); err == nil {
		t.Fatal("undriven gate input accepted")
	} else if !strings.Contains(err.Error(), "undriven") {
		t.Fatalf("error does not mention undriven net: %v", err)
	}

	// PO reads a net that no gate drives.
	undrivenPO := &mapper.Result{
		Gates: []mapper.Gate{{
			Cell:   inv,
			Inputs: []mapper.Net{{Node: 1}},
			Output: mapper.Net{Node: 3},
		}},
		PONets: []mapper.Net{{Node: 7}},
	}
	if _, err := Analyze(undrivenPO, 2); err == nil {
		t.Fatal("undriven primary output accepted")
	} else if !strings.Contains(err.Error(), "undriven") {
		t.Fatalf("error does not mention undriven net: %v", err)
	}

	// The well-formed version of the same netlist is accepted.
	ok := &mapper.Result{
		Gates: []mapper.Gate{{
			Cell:   inv,
			Inputs: []mapper.Net{{Node: 1}},
			Output: mapper.Net{Node: 3},
		}},
		PONets: []mapper.Net{{Node: 3}},
	}
	if _, err := Analyze(ok, 2); err != nil {
		t.Fatalf("well-formed netlist rejected: %v", err)
	}
}

// Simulate must reproduce the function of the AIG the netlist was
// mapped from, at widths below one word, inside one block, and across
// several blocks (n=14 spans four), and its poll hook must stop it.
func TestSimulateMatchesAIG(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 3, 6, 7, 9, 14} {
		g := randomGraph(rng, n, 40, 3)
		s, err := NewSim(mapGraph(t, g), n)
		if err != nil {
			t.Fatal(err)
		}
		tts := g.NodeTruthTables()
		blocks := 0
		err = s.Simulate(nil, func(w0 int, po [][]uint64) error {
			blocks++
			for o, v := range po {
				want := g.LitTable(tts, g.PO(o)).Words()
				for w, x := range v {
					if x != want[w0+w] {
						t.Fatalf("n=%d output %d word %d: got %#x, want %#x", n, o, w0+w, x, want[w0+w])
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := (1<<uint(n) + 64*blockWords - 1) / (64 * blockWords); blocks != want {
			t.Fatalf("n=%d: %d blocks, want %d", n, blocks, want)
		}
	}

	g := randomGraph(rng, 14, 40, 1)
	s, err := NewSim(mapGraph(t, g), 14)
	if err != nil {
		t.Fatal(err)
	}
	stop := errors.New("stop")
	polls := 0
	err = s.Simulate(func() error {
		if polls++; polls == 2 {
			return stop
		}
		return nil
	}, func(int, [][]uint64) error { return nil })
	if !errors.Is(err, stop) || polls != 2 {
		t.Fatalf("poll did not stop the simulation: err=%v polls=%d", err, polls)
	}
}
