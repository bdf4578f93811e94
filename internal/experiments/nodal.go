package experiments

import (
	"relsyn/internal/benchmarks"
	"relsyn/internal/network"
	"relsyn/internal/synth"
)

// NodalRow reports the paper's §4 nodal-decomposition extension on one
// benchmark: internal error propagation before and after LC^f
// reassignment of extracted node DCs, with the SOP-literal area proxy.
type NodalRow struct {
	Name           string
	Nodes          int
	ConvRate       float64 // node-output error rate, conventional completion
	ReassignRate   float64 // after LC^f reassignment of internal DCs
	ImprovementPct float64
	// Node-input (wire) error rates — the quantity internal reassignment
	// directly targets.
	ConvInputRate       float64
	ReassignInputRate   float64
	InputImprovementPct float64
	ConvLiterals        int
	ReassignLits        int
	DCsAssigned         int
}

// NodalK is the node fanin bound used by the experiment (larger nodes
// expose more internal DCs).
const NodalK = 5

// Nodal runs the extension on the named benchmarks (small suite members
// by default — DC extraction is exact, simulating all 2^n minterms).
func Nodal(names []string, threshold float64) ([]NodalRow, error) {
	if len(names) == 0 {
		names = []string{"bench", "fout", "p3"}
	}
	rows := make([]NodalRow, len(names))
	err := parallelFor(len(names), func(i int) error {
		spec, err := benchmarks.Load(names[i])
		if err != nil {
			return err
		}
		res, err := synth.Synthesize(spec, synth.Options{Objective: synth.OptimizePower})
		if err != nil {
			return err
		}
		conv, err := network.FromAIG(res.Graph, NodalK)
		if err != nil {
			return err
		}
		rel, err := network.FromAIG(res.Graph, NodalK)
		if err != nil {
			return err
		}
		if err := conv.CompleteConventionalAll(); err != nil {
			return err
		}
		assigned, err := rel.ReassignLCF(threshold, nil)
		if err != nil {
			return err
		}
		convRate := conv.InternalErrorRate()
		relRate := rel.InternalErrorRate()
		convIn := conv.InputErrorRate()
		relIn := rel.InputErrorRate()
		rows[i] = NodalRow{
			Name:                names[i],
			Nodes:               conv.NumNodes(),
			ConvRate:            convRate,
			ReassignRate:        relRate,
			ImprovementPct:      pctImp(convRate, relRate),
			ConvInputRate:       convIn,
			ReassignInputRate:   relIn,
			InputImprovementPct: pctImp(convIn, relIn),
			ConvLiterals:        conv.TotalLiterals(),
			ReassignLits:        rel.TotalLiterals(),
			DCsAssigned:         assigned,
		}
		return nil
	})
	return rows, err
}
