// Motivating example (paper Fig. 1): a 4-variable incompletely specified
// function with three DC minterms that reliability-driven assignment
// treats differently — one agrees with area-driven assignment, one
// conflicts with it, and one stays flexible.
package main

import (
	"fmt"
	"log"

	"relsyn"
)

func main() {
	// Construct the specification: on-set neighbors arranged so that
	//   x1 has two on-neighbors, one off-neighbor        -> assign 1
	//   x2 has two off-neighbors, one on-neighbor        -> assign 0
	//   x3 has two on- and two off-neighbors (balanced)  -> leave DC
	f := relsyn.NewFunction(4, 1)
	x1, x2, x3 := 0b0000, 0b1000, 0b0111
	for _, m := range []int{0b0001, 0b0010, 0b1100, 0b0110, 0b0101} {
		f.SetPhase(0, m, relsyn.On)
	}
	for _, m := range []int{x1, x2, x3} {
		f.SetPhase(0, m, relsyn.DC)
	}

	fmt.Println("DC minterm neighborhoods:")
	for _, m := range []int{x1, x2, x3} {
		lcf, err := relsyn.LocalComplexityFactor(f, 0, m)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  minterm %04b: %d on-neighbors, %d off-neighbors, LC^f=%.2f\n",
			m, f.OnNeighbors(0, m), f.OffNeighbors(0, m), lcf)
	}

	res, err := relsyn.RankingAssign(f, 1.0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nranking-based assignment (fraction 1.0):")
	for _, m := range []int{x1, x2, x3} {
		fmt.Printf("  minterm %04b -> %v\n", m, res.Func.Phase(0, m))
	}

	lo, hi, err := relsyn.ExactBounds(f)
	if err != nil {
		log.Fatal(err)
	}
	impl, err := relsyn.Synthesize(res.Func, relsyn.SynthOptions{})
	if err != nil {
		log.Fatal(err)
	}
	er, err := relsyn.ErrorRate(f, impl.Impl)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexact error-rate bounds [%.4f, %.4f]; achieved %.4f\n", lo, hi, er)
}
