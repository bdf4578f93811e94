package experiments

import (
	"context"

	"relsyn/internal/benchmarks"
	"relsyn/internal/core"
	"relsyn/internal/reliability"
	"relsyn/internal/synth"
	"relsyn/internal/tt"
)

// FlowRow cross-validates the ranking result on one benchmark across the
// two independent synthesis flows (the paper re-ran its benchmarks
// through ABC's resyn2rs to confirm trends were not a Design Compiler
// artefact; here FlowResyn plays that role against FlowSOP).
type FlowRow struct {
	Name string
	// Error-rate improvement (%) and area overhead (%) of full ranking
	// assignment vs conventional, under each flow.
	SOPERImp, SOPAreaOvh     float64
	ResynERImp, ResynAreaOvh float64
}

// Flows measures full ranking assignment under both flows.
func Flows() ([]FlowRow, error) {
	specs := benchmarks.Specs()
	rows := make([]FlowRow, len(specs))
	err := parallelFor(len(specs), func(i int) error {
		spec, err := benchmarks.Load(specs[i].Name)
		if err != nil {
			return err
		}
		assigned, err := core.Ranking(spec, 1.0, core.Options{})
		if err != nil {
			return err
		}
		row := FlowRow{Name: specs[i].Name}
		for _, flow := range []synth.Flow{synth.FlowSOP, synth.FlowResyn} {
			run := func(f *tt.Function) (synth.Metrics, float64, error) {
				res, err := synth.Synthesize(f, synth.Options{
					Objective: synth.OptimizePower, Flow: flow})
				if err != nil {
					return synth.Metrics{}, 0, err
				}
				er, err := reliability.ErrorRateMeanCtx(context.Background(), spec, res.Impl, 0)
				if err != nil {
					return synth.Metrics{}, 0, err
				}
				return res.Metrics, er, nil
			}
			baseM, baseER, err := run(spec)
			if err != nil {
				return err
			}
			m, er, err := run(assigned.Func)
			if err != nil {
				return err
			}
			erImp := pctImp(baseER, er)
			areaOvh := -pctImp(baseM.Area, m.Area)
			if flow == synth.FlowSOP {
				row.SOPERImp, row.SOPAreaOvh = erImp, areaOvh
			} else {
				row.ResynERImp, row.ResynAreaOvh = erImp, areaOvh
			}
		}
		rows[i] = row
		return nil
	})
	return rows, err
}
