package pipeline

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"relsyn/internal/benchmarks"
	"relsyn/internal/celllib"
	"relsyn/internal/mapper"
	"relsyn/internal/tt"
)

// synthesizedJob runs a suite job without its verify stage and returns
// the spec, the assigned function and the result, for mutation.
func synthesizedJob(t testing.TB, name string) (f, fa *tt.Function, res *Result) {
	t.Helper()
	f, err := benchmarks.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err = Run(context.Background(), f,
		JobOptions{Method: JobMethodRank, Fraction: 0.5, SkipVerify: true}, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	return f, res.Assign.Func, res
}

// verifyWith runs the verify stage alone on res with the netlist and the
// implementation replaced.
func verifyWith(f, fa *tt.Function, res *Result, nl *mapper.Result, impl *tt.Function) (*Result, *StageError) {
	syn := *res.Synth
	syn.Netlist, syn.Impl = nl, impl
	r := &runner{ctx: context.Background(), res: &Result{Assign: res.Assign, Synth: &syn}}
	return r.res, r.runVerify(f, fa)
}

// cloneNetlist copies the gate list and output nets so they can be
// mutated without touching the original.
func cloneNetlist(nl *mapper.Result) *mapper.Result {
	c := *nl
	c.Gates = append([]mapper.Gate(nil), nl.Gates...)
	c.PONets = append([]mapper.Net(nil), nl.PONets...)
	return &c
}

// evalNetlist is the per-minterm scalar oracle: the value of every
// primary output of nl at minterm m.
func evalNetlist(nl *mapper.Result, m int) []bool {
	vals := map[mapper.Net]bool{}
	value := func(n mapper.Net) bool {
		if v, ok := vals[n]; ok {
			return v
		}
		v := n.Node > 0 && m>>uint(n.Node-1)&1 == 1
		return v != n.Neg
	}
	for _, g := range nl.Gates {
		row := 0
		for pin, in := range g.Inputs {
			if value(in) {
				row |= 1 << uint(pin)
			}
		}
		vals[g.Output] = g.Cell.Table>>uint(row)&1 == 1
	}
	out := make([]bool, len(nl.PONets))
	for o, po := range nl.PONets {
		out[o] = value(po)
	}
	return out
}

// firstDiff returns the lowest output at which nl differs from impl
// anywhere, and whether some difference falls on a care minterm of f.
func firstDiff(f, impl *tt.Function, nl *mapper.Result) (lowest int, onCare bool) {
	lowest = -1
	for m := 0; m < f.Size(); m++ {
		for o, v := range evalNetlist(nl, m) {
			if v == impl.Outs[o].On.Test(m) {
				continue
			}
			if lowest < 0 || o < lowest {
				lowest = o
			}
			if f.Phase(o, m) != tt.DC {
				onCare = true
			}
		}
	}
	return lowest, onCare
}

func assertVerifyFails(t *testing.T, serr *StageError, output int, what string) {
	t.Helper()
	if serr == nil {
		t.Fatalf("mutated netlist verified (want a failure naming output %d)", output)
	}
	if serr.Reason != ReasonError || serr.Attempt != "verify/netlist" || serr.Retryable() {
		t.Fatalf("want a terminal error at verify/netlist, got %s [%s]: %v", serr.Attempt, serr.Reason, serr.Err)
	}
	msg := serr.Error()
	if !strings.Contains(msg, fmt.Sprintf("netlist output %d ", output)) || !strings.Contains(msg, what) {
		t.Fatalf("error does not name output %d (%s): %v", output, what, msg)
	}
}

func TestVerifyAcceptsUnmutatedNetlist(t *testing.T) {
	f, fa, res := synthesizedJob(t, "ex1010")
	got, serr := verifyWith(f, fa, res, res.Synth.Netlist, res.Synth.Impl)
	if serr != nil {
		t.Fatal(serr)
	}
	if !got.Verified || got.VerifyMethod != "netlist" {
		t.Fatalf("verified=%v method=%q", got.Verified, got.VerifyMethod)
	}
}

// TestVerifyCatchesSwappedCell swaps one mapped gate's cell for one with
// a different truth table, picking the first swap the spec's care set
// observes. Verify must fail and name the first output it changed.
func TestVerifyCatchesSwappedCell(t *testing.T) {
	f, fa, res := synthesizedJob(t, "ex1010")
	for gi, g := range res.Synth.Netlist.Gates {
		for _, c := range celllib.Generic70().Cells {
			if c.NumIn != g.Cell.NumIn || c.Table == g.Cell.Table {
				continue
			}
			nl := cloneNetlist(res.Synth.Netlist)
			nl.Gates[gi].Cell = c
			lowest, onCare := firstDiff(f, res.Synth.Impl, nl)
			if !onCare {
				continue
			}
			_, serr := verifyWith(f, fa, res, nl, res.Synth.Impl)
			assertVerifyFails(t, serr, lowest, "")
			t.Logf("gate %d %s -> %s: %v", gi, g.Cell.Name, c.Name, serr.Err)
			return
		}
	}
	t.Fatal("no cell swap is observable on the care set")
}

// TestVerifyCatchesNegatedOutput negates an output whose care set is
// non-empty, through an inverter onto a fresh net: the output is then
// wrong on every care minterm.
func TestVerifyCatchesNegatedOutput(t *testing.T) {
	f, fa, res := synthesizedJob(t, "ex1010")
	for o := range f.Outs {
		if f.Outs[o].DC.Count() == f.Size() {
			continue
		}
		nl := cloneNetlist(res.Synth.Netlist)
		fresh := mapper.Net{Node: f.NumIn + 1}
		for _, g := range nl.Gates {
			fresh.Node = max(fresh.Node, g.Output.Node+1)
		}
		nl.Gates = append(nl.Gates, mapper.Gate{Cell: celllib.Generic70().Inv,
			Inputs: []mapper.Net{nl.PONets[o]}, Output: fresh})
		nl.PONets[o] = fresh
		_, serr := verifyWith(f, fa, res, nl, res.Synth.Impl)
		assertVerifyFails(t, serr, o, "of the spec")
		return
	}
	t.Fatal("every output is entirely don't-care")
}

// TestVerifyCatchesImplDisagreeingOnDC flips Synth.Impl on one minterm
// that is a don't-care of both the spec and the assigned function: the
// netlist is still a valid circuit, but the reported implementation (and
// so the reported error rate) is no longer the netlist's.
func TestVerifyCatchesImplDisagreeingOnDC(t *testing.T) {
	f, fa, res := synthesizedJob(t, "ex1010")
	for o := range fa.Outs {
		m := fa.Outs[o].DC.NextSet(0)
		if m < 0 {
			continue
		}
		impl := res.Synth.Impl.Clone()
		impl.Outs[o].On.SetTo(m, !impl.Outs[o].On.Test(m))
		_, serr := verifyWith(f, fa, res, res.Synth.Netlist, impl)
		assertVerifyFails(t, serr, o, fmt.Sprintf("differs from the reported implementation (minterm %d)", m))
		return
	}
	t.Fatal("the assigned function has no don't-care left")
}

// BenchmarkVerifyNetlist times the verify layer alone — the exhaustive
// simulation of the mapped netlist and its three checks — on ex1010
// under rank 0.5, in absolute ns/op and allocs/op.
func BenchmarkVerifyNetlist(b *testing.B) {
	f, fa, res := synthesizedJob(b, "ex1010")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := checkNetlist(res.Synth.Netlist, f, fa, res.Synth.Impl, nil); err != nil {
			b.Fatal(err)
		}
	}
}
