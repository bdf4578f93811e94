package experiments

import (
	"context"

	"relsyn/internal/benchmarks"
	"relsyn/internal/core"
	"relsyn/internal/espresso"
	"relsyn/internal/exact"
	"relsyn/internal/faultsim"
	"relsyn/internal/reliability"
	"relsyn/internal/synth"
	"relsyn/internal/synthetic"
)

// FaultRow reports gate-level stuck-at fault statistics (extension A4)
// for the conventional and LC^f-assigned implementations of one
// benchmark: does input-DC reliability assignment also shift internal
// fault masking?
type FaultRow struct {
	Name                string
	ConvGates, LCFGates int
	ConvObs, LCFObs     float64 // mean stuck-at observability (lower = more masking)
	ConvUndet, LCFUndet int
}

// Faults runs exhaustive stuck-at analysis on the named benchmarks
// (defaults to the small suite members).
func Faults(names []string, threshold float64) ([]FaultRow, error) {
	if len(names) == 0 {
		names = []string{"bench", "fout", "p3", "exam"}
	}
	rows := make([]FaultRow, len(names))
	err := parallelFor(len(names), func(i int) error {
		spec, err := benchmarks.Load(names[i])
		if err != nil {
			return err
		}
		row := FaultRow{Name: names[i]}
		for _, lcf := range []bool{false, true} {
			f := spec
			if lcf {
				res, err := core.LCF(spec, threshold, core.Options{})
				if err != nil {
					return err
				}
				f = res.Func
			}
			sres, err := synth.Synthesize(f, synth.Options{Objective: synth.OptimizePower})
			if err != nil {
				return err
			}
			rep, err := faultsim.Analyze(sres.Netlist, spec.NumIn)
			if err != nil {
				return err
			}
			if lcf {
				row.LCFGates = sres.Metrics.Gates
				row.LCFObs = rep.MeanObservability
				row.LCFUndet = rep.Undetectable
			} else {
				row.ConvGates = sres.Metrics.Gates
				row.ConvObs = rep.MeanObservability
				row.ConvUndet = rep.Undetectable
			}
		}
		rows[i] = row
		return nil
	})
	return rows, err
}

// ConflictRow measures the paper's §2.1 observation that
// "reliability-driven DC assignment typically conflicted with
// conventional DC assignment for around 30% of minterms": among DC
// minterms with a clear majority-phase preference, how often does the
// conventional (area-driven) completion choose the other phase?
type ConflictRow struct {
	Name        string
	RankableDCs int     // DC minterms with a non-tied preference
	Conflicts   int     // conventional completion disagrees
	ConflictPct float64 // 100·Conflicts/RankableDCs
}

// Conflicts runs the measurement across the whole suite.
func Conflicts() ([]ConflictRow, error) {
	specs := benchmarks.Specs()
	rows := make([]ConflictRow, len(specs))
	err := parallelFor(len(specs), func(i int) error {
		spec, err := benchmarks.Load(specs[i].Name)
		if err != nil {
			return err
		}
		conv, err := synth.Synthesize(spec, synth.Options{Objective: synth.OptimizePower})
		if err != nil {
			return err
		}
		reliable := core.Complete(spec)
		row := ConflictRow{Name: specs[i].Name}
		for _, a := range reliable.Assigned {
			if a.Weight == 0 {
				continue // tie: no reliability preference
			}
			row.RankableDCs++
			if conv.Impl.Phase(a.Output, a.Minterm) != a.Value {
				row.Conflicts++
			}
		}
		if row.RankableDCs > 0 {
			row.ConflictPct = 100 * float64(row.Conflicts) / float64(row.RankableDCs)
		}
		rows[i] = row
		return nil
	})
	return rows, err
}

// QualityRow compares the heuristic espresso engine against the exact
// Quine-McCluskey/branch-and-bound minimizer on one function class
// (extension A6) — the quality audit of the substrate the whole
// evaluation rests on.
type QualityRow struct {
	TargetCf              float64
	Samples               int
	HeurCubes, ExactCubes int
	HeurLits, ExactLits   int
	WorstGap              int // largest per-function cube-count gap
}

// Quality sweeps complexity-factor classes and measures both minimizers
// on 7-input, 40%-DC synthetics. Samples whose exact covering problem
// exceeds the branch-and-bound budget (low-C^f functions have huge
// cyclic prime cores) are skipped; Samples counts the solved ones.
func Quality(samplesPerClass int, seed int64) ([]QualityRow, error) {
	classes := []float64{0.35, 0.5, 0.65, 0.8}
	rows := make([]QualityRow, len(classes))
	err := parallelFor(len(classes), func(ci int) error {
		row := QualityRow{TargetCf: classes[ci]}
		for s := 0; s < samplesPerClass; s++ {
			f, err := synthetic.Generate(synthetic.Params{
				Inputs: 7, Outputs: 1, DCFraction: 0.4,
				TargetCf: classes[ci], Tolerance: 0.02,
				Seed: seed + int64(ci*1000+s), BestEffort: true,
			})
			if err != nil {
				return err
			}
			heur, _ := espresso.MinimizeSets(f.NumIn, f.Outs[0].On, f.Outs[0].DC, nil) // nil poll: no error
			ex, err := exact.Minimize(f, 0, exact.Limits{MaxNodes: 1 << 24})
			if err != nil {
				continue // intractable exact instance; skip the sample
			}
			row.Samples++
			row.HeurCubes += heur.Len()
			row.ExactCubes += ex.Len()
			row.HeurLits += heur.LiteralCount()
			row.ExactLits += ex.LiteralCount()
			if gap := heur.Len() - ex.Len(); gap > row.WorstGap {
				row.WorstGap = gap
			}
		}
		rows[ci] = row
		return nil
	})
	return rows, err
}

// MultiBitRow quantifies the k-bit input-error tail (extension A5): the
// paper's single-bit model is justified when pin errors are rare and
// independent; these exact rates show how masking behaves for k = 1..3
// under conventional vs complete reliability assignment.
type MultiBitRow struct {
	Name       string
	Conv, Full [3]float64 // index k-1 → k-bit error rate
}

// MultiBit measures exact k-bit error rates for k = 1..3 on the named
// benchmarks.
func MultiBit(names []string) ([]MultiBitRow, error) {
	if len(names) == 0 {
		names = []string{"bench", "fout", "p3", "exam"}
	}
	rows := make([]MultiBitRow, len(names))
	err := parallelFor(len(names), func(i int) error {
		spec, err := benchmarks.Load(names[i])
		if err != nil {
			return err
		}
		conv, err := synth.Synthesize(spec, synth.Options{Objective: synth.OptimizePower})
		if err != nil {
			return err
		}
		full, err := synth.Synthesize(core.Complete(spec).Func,
			synth.Options{Objective: synth.OptimizePower})
		if err != nil {
			return err
		}
		row := MultiBitRow{Name: names[i]}
		ctx := context.Background()
		for k := 1; k <= 3; k++ {
			if row.Conv[k-1], err = reliability.ErrorRateMultiMean(ctx, spec, conv.Impl, k); err != nil {
				return err
			}
			if row.Full[k-1], err = reliability.ErrorRateMultiMean(ctx, spec, full.Impl, k); err != nil {
				return err
			}
		}
		rows[i] = row
		return nil
	})
	return rows, err
}
