// Nodal: the paper's §4 extension. Decompose a synthesized circuit into
// SOP nodes, extract exact internal don't-cares (satisfiability +
// observability), reassign them with the LC^f rule, and measure how much
// better the circuit masks internal single-node errors — without
// changing its function.
package main

import (
	"fmt"
	"log"

	"relsyn"
)

func main() {
	spec, err := relsyn.LoadBenchmark("bench")
	if err != nil {
		log.Fatal(err)
	}
	impl, err := relsyn.Synthesize(spec, relsyn.SynthOptions{Objective: relsyn.OptimizePower})
	if err != nil {
		log.Fatal(err)
	}

	// Two copies of the same decomposition: one completed conventionally,
	// one with reliability-driven internal DC assignment.
	conv, err := relsyn.Decompose(impl.Graph, 5)
	if err != nil {
		log.Fatal(err)
	}
	rel, err := relsyn.Decompose(impl.Graph, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bench decomposed into %d SOP nodes (k=5)\n\n", conv.NumNodes())

	before := rel.POFunction()
	if err := conv.CompleteConventionalAll(); err != nil {
		log.Fatal(err)
	}
	assigned, err := rel.ReassignLCF(0.7, nil)
	if err != nil {
		log.Fatal(err)
	}
	if !rel.POFunction().Equal(before) {
		log.Fatal("reassignment changed the circuit function (bug)")
	}
	fmt.Printf("internal DC patterns bound for reliability: %d\n", assigned)
	fmt.Printf("circuit function preserved exactly: yes\n\n")

	fmt.Printf("node-output error propagation (single node-output errors):\n")
	fmt.Printf("  conventional completion:   %.4f\n", conv.InternalErrorRate())
	fmt.Printf("  LC^f reassignment:         %.4f\n", rel.InternalErrorRate())
	fmt.Printf("node-input (wire) error propagation:\n")
	fmt.Printf("  conventional completion:   %.4f\n", conv.InputErrorRate())
	fmt.Printf("  LC^f reassignment:         %.4f\n", rel.InputErrorRate())
	fmt.Printf("\nSOP literal cost: conventional %d, reassigned %d\n",
		conv.TotalLiterals(), rel.TotalLiterals())
	fmt.Println("\nNote: at node granularity (k ≤ 6) the area-driven completion already")
	fmt.Println("agrees with the majority-phase choice on ~97% of internal DC patterns,")
	fmt.Println("so the headroom here is inherently small — see EXPERIMENTS.md (A3).")
}
