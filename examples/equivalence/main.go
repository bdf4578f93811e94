// Equivalence: check that reliability-driven assignment only touches
// don't-care space. Two implementations of the same specification —
// conventional and ranking-assigned — are compared minterm for minterm
// with a bitset miter, (impl1 ⊕ impl2) ∩ care, per output. Any care-set
// disagreement is a bug and exits non-zero; the disagreements inside
// the DC space and both error rates are printed.
package main

import (
	"fmt"
	"log"

	"relsyn"
)

func main() {
	spec, err := relsyn.LoadBenchmark("fout")
	if err != nil {
		log.Fatal(err)
	}

	conv, err := relsyn.Synthesize(spec, relsyn.SynthOptions{Objective: relsyn.OptimizePower})
	if err != nil {
		log.Fatal(err)
	}
	assigned, err := relsyn.RankingAssign(spec, 1.0)
	if err != nil {
		log.Fatal(err)
	}
	rel, err := relsyn.Synthesize(assigned.Func, relsyn.SynthOptions{Objective: relsyn.OptimizePower})
	if err != nil {
		log.Fatal(err)
	}

	careDiff, diffMinterms := 0, 0
	for o := 0; o < spec.NumOut(); o++ {
		diff := conv.Impl.Outs[o].On.Clone()
		diff.InPlaceSymDiff(rel.Impl.Outs[o].On)
		careDiff += diff.IntersectionCount(spec.Outs[o].DC.Complement())
		diffMinterms += diff.Count()
	}
	if careDiff > 0 {
		log.Fatalf("miter: implementations differ on %d care minterms", careDiff)
	}
	fmt.Println("miter: implementations agree on every care minterm (0 care-set disagreements)")
	fmt.Printf("total disagreements (all inside the DC space): %d minterms\n\n", diffMinterms)

	convER, err := relsyn.ErrorRate(spec, conv.Impl)
	if err != nil {
		log.Fatal(err)
	}
	relER, err := relsyn.ErrorRate(spec, rel.Impl)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("conventional: area %7.1f  error rate %.4f\n", conv.Metrics.Area, convER)
	fmt.Printf("reliability:  area %7.1f  error rate %.4f\n", rel.Metrics.Area, relER)
}
