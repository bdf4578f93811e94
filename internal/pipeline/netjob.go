// Network jobs: the BLIF-input analogue of RunJob. Where RunJob
// synthesizes a single truth-table specification, RunNetworkJob rewrites
// the nodes of an existing multi-level network in place — extracting
// each node's internal don't-cares and binding them with the LC^f
// reassignment (paper §4 nodal decomposition) so the circuit masks more
// internal errors without changing its primary-output functions.
//
// The extraction engine is chosen from the network alone:
//
//	exhaustive    complete internal DCs by bit-parallel simulation over
//	              all 2^NumPI minterms — exact, run when NumPI <=
//	              tt.MaxInputs.
//	windowed-sat  per-node TFI/TFO windows at the default depths + SAT
//	              enumeration (internal/network window.go / satdc.go) —
//	              a sound subset of the complete DCs, run above that.
//
// One ladder step connects them: an exhaustive attempt that fails on a
// budget error or a panic degrades to windowed-sat. As everywhere in
// this package, Strict disables the ladder and a cancelled context
// never degrades.
package pipeline

import (
	"context"
	"fmt"
	"time"

	"relsyn/internal/network"
	"relsyn/internal/tt"
)

// StageExtract is the DC-extraction + reassignment stage of network jobs.
const StageExtract Stage = "extract"

// Extraction rungs of network jobs, as reported in
// NetworkJobResult.DCMode.
const (
	JobDCExhaustive  = "exhaustive"
	JobDCWindowedSAT = "windowed-sat"
)

// NetworkJobResult is the serializable outcome of one network job. On
// failure RunNetworkJob returns a partial result (fallbacks and stages
// populated) alongside the error, mirroring RunJob.
type NetworkJobResult struct {
	// Network is the reassigned network (nil on failure). It is excluded
	// from the wire form — callers that want the circuit emit BLIF.
	Network *network.Network `json:"-"`

	NumPI int `json:"num_pi"`
	NumPO int `json:"num_po"`
	Nodes int `json:"nodes"`

	// DCMode is the extraction rung that produced the result:
	// "exhaustive" when NumPI <= tt.MaxInputs, "windowed-sat" above
	// that or after a ladder step — see Fallbacks for the path taken.
	DCMode string `json:"dc_mode"`
	// Assigned counts DC patterns bound for reliability.
	Assigned int `json:"assigned"`

	// Windowed-extraction effort (zero for the exhaustive rung).
	Windows         int `json:"windows,omitempty"`
	SATCalls        int `json:"sat_calls,omitempty"`
	BudgetExhausted int `json:"budget_exhausted,omitempty"`

	// Equivalent reports the post-reassignment equivalence check of the
	// windowed rung (always true on success); CECMethod is "sat" or
	// "exhaustive". The exhaustive rung preserves POs by construction
	// and reports Equivalent=true with CECMethod "construction".
	Equivalent bool   `json:"equivalent"`
	CECMethod  string `json:"cec_method,omitempty"`

	// LiteralsBefore/After are the SOP-literal area proxy of the
	// network before and after reassignment.
	LiteralsBefore int `json:"literals_before"`
	LiteralsAfter  int `json:"literals_after"`

	Degraded  bool          `json:"degraded"`
	Fallbacks []JobFallback `json:"fallbacks,omitempty"`
	Stages    []JobStage    `json:"stages,omitempty"`
	ElapsedMs float64       `json:"elapsed_ms"`
}

// RunNetworkJob executes one serializable network-reassignment job:
// normalize and validate jo (Method must be "lcf" — the network path
// exists to reassign internal DCs under the LC^f threshold), run the
// extraction ladder, and fold the outcome into a NetworkJobResult.
func RunNetworkJob(ctx context.Context, nw *network.Network, jo JobOptions) (*NetworkJobResult, error) {
	return runNetworkJob(ctx, nw, jo, Hooks{})
}

// runNetworkJob is RunNetworkJob under the test seam h.
func runNetworkJob(ctx context.Context, nw *network.Network, jo JobOptions, h Hooks) (*NetworkJobResult, error) {
	n := jo.Normalize()
	if err := n.Validate(); err != nil {
		return nil, err
	}
	if n.Method != JobMethodLCF {
		return nil, fmt.Errorf("pipeline: network jobs require method %q, got %q", JobMethodLCF, n.Method)
	}
	if nw == nil {
		return nil, fmt.Errorf("pipeline: nil network")
	}
	start := time.Now()
	r, cancel := newRunner(ctx, "pipeline/netjob", n, h)
	defer cancel()

	jr := &NetworkJobResult{
		NumPI:          nw.NumPI,
		NumPO:          len(nw.POs),
		Nodes:          nw.NumNodes(),
		LiteralsBefore: nw.TotalLiterals(),
	}
	serr := r.runExtract(nw, jr)
	r.finish(serr)

	jr.Degraded = r.res.Degraded()
	jr.Fallbacks, jr.Stages = wireTrail(r.res)
	jr.ElapsedMs = float64(time.Since(start)) / float64(time.Millisecond)
	if serr != nil {
		return jr, serr
	}
	jr.LiteralsAfter = jr.Network.TotalLiterals()
	return jr, nil
}

// runExtract walks the extraction ladder. Each rung reassigns a clone of
// the input network, so a failed rung leaves no partial mutation behind
// and the fallback rung starts from the pristine circuit.
func (r *runner) runExtract(nw *network.Network, jr *NetworkJobResult) *StageError {
	began := time.Now()
	defer r.finishStage(StageExtract, began)

	windowed := func() error {
		c := nw.Clone()
		rep, err := c.ReassignLCFWindowed(r.n.Threshold, network.SatDCOptions{
			MaxConflicts: r.n.MaxConflicts,
			Interrupt:    r.interruptBool,
		})
		if rep != nil {
			jr.Windows, jr.SATCalls, jr.BudgetExhausted =
				rep.Windows, rep.SATCalls, rep.BudgetExhausted
		}
		if err != nil {
			return err
		}
		jr.Network = c
		jr.DCMode = JobDCWindowedSAT
		jr.Assigned = rep.Assigned
		jr.Equivalent, jr.CECMethod = rep.Equivalent, rep.CECMethod
		return nil
	}
	if nw.NumPI > tt.MaxInputs {
		return r.attempt(StageExtract, "extract/windowed-sat", windowed)
	}
	serr := r.attempt(StageExtract, "extract/exhaustive", func() error {
		c := nw.Clone()
		assigned, err := c.ReassignLCF(r.n.Threshold, r.interrupt)
		if err != nil {
			return err
		}
		jr.Network = c
		jr.DCMode = JobDCExhaustive
		jr.Assigned = assigned
		// ReassignLCF binds exact complete DCs node by node, which
		// preserves PO functions by construction.
		jr.Equivalent, jr.CECMethod = true, "construction"
		return nil
	})
	if serr == nil || (serr.Reason != ReasonBudget && serr.Reason != ReasonPanic) {
		return serr
	}
	if serr = r.degrade(serr, "extract/windowed-sat"); serr != nil {
		return serr
	}
	return r.attempt(StageExtract, "extract/windowed-sat", windowed)
}
