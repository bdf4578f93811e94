// Package synth runs the end-to-end synthesis flow the paper drives
// through Synopsys Design Compiler: consume the remaining don't-cares
// with two-level minimization (espresso), restructure with algebraic
// factoring, build and optimize an AIG, and technology-map onto the
// generic cell library, reporting area, delay, and power.
//
// Two flows are provided, mirroring the paper's cross-validation of
// Design Compiler results with ABC's resyn2rs script:
//
//   - FlowSOP: espresso → good-factor → AIG (strash + balance) → map.
//   - FlowResyn: FlowSOP plus a truth-table-based refactoring pass over
//     each output cone (re-minimize the *implemented* completely
//     specified function and rebuild), an independent restructuring in
//     the spirit of resyn2rs.
//
// The power objective maps in area mode: the paper itself notes that
// area-optimized implementations were "very similar" to power-optimized
// ones (§3), and the power metric is reported from switching activity on
// the mapped netlist either way.
package synth

import (
	"context"
	"errors"
	"fmt"

	"relsyn/internal/aig"
	"relsyn/internal/celllib"
	"relsyn/internal/espresso"
	"relsyn/internal/factor"
	"relsyn/internal/mapper"
	"relsyn/internal/network"
	"relsyn/internal/par"
	"relsyn/internal/tt"
)

// Objective selects what the flow optimizes for.
type Objective int

// Synthesis objectives, matching the paper's Design Compiler runs
// ("set_max_delay 0" vs "set_max_leakage_power 0; set_max_dynamic_power 0").
const (
	OptimizeDelay Objective = iota
	OptimizePower
)

func (o Objective) String() string {
	if o == OptimizeDelay {
		return "delay"
	}
	return "power"
}

// Flow selects the restructuring recipe.
type Flow int

// Flow variants.
const (
	FlowSOP Flow = iota
	FlowResyn
)

func (f Flow) String() string {
	if f == FlowResyn {
		return "resyn"
	}
	return "sop"
}

// ErrAIGBudget is wrapped by errors returned when the optimized AIG
// exceeds Options.MaxAIGNodes. The run is retryable with a larger cap.
var ErrAIGBudget = errors.New("synth: AIG node budget exhausted")

// Options configures Synthesize.
type Options struct {
	Objective Objective
	Flow      Flow
	Library   *celllib.Library // nil = celllib.Generic70()

	// Interrupt, when non-nil, is polled inside minimization and
	// factoring and between flow phases; a non-nil return aborts
	// Synthesize with that error (cooperative cancellation).
	Interrupt func() error

	// MaxAIGNodes caps the AND-node count of the constructed AIG
	// (0 = unlimited). The cap is checked after initial construction and
	// after each restructuring phase; exhaustion returns an error wrapping
	// ErrAIGBudget.
	MaxAIGNodes int

	// Parallelism caps the worker count for the per-output (and per-node)
	// minimize+factor passes (0 = GOMAXPROCS, 1 = sequential). It never
	// changes results: minimization fans out into index-addressed slots
	// and the AIG is always built sequentially in output order.
	Parallelism int
}

// check polls the Interrupt hook.
func (o Options) check() error {
	if o.Interrupt == nil {
		return nil
	}
	return o.Interrupt()
}

// checkAIG enforces the node cap on g.
func (o Options) checkAIG(g *aig.Graph, phase string) error {
	if o.MaxAIGNodes > 0 && g.NumNodes() > o.MaxAIGNodes {
		return fmt.Errorf("%w: %d nodes after %s (limit %d)",
			ErrAIGBudget, g.NumNodes(), phase, o.MaxAIGNodes)
	}
	return nil
}

// Metrics are the implementation costs of a synthesized circuit.
type Metrics struct {
	Area     float64
	DelayPs  float64
	Power    float64
	Gates    int
	Literals int // factored-form literals before mapping
	AIGNodes int
	AIGDepth int
}

// Result bundles the synthesized implementation.
type Result struct {
	// Impl is the completely specified function the netlist computes.
	Impl *tt.Function
	// Netlist is the mapped gate-level implementation.
	Netlist *mapper.Result
	// Graph is the optimized AIG the netlist was mapped from.
	Graph *aig.Graph
	// Metrics summarizes implementation costs.
	Metrics Metrics
}

// Synthesize runs the full flow on an incompletely specified function.
// Remaining DC minterms are spent by the minimizer (conventional
// assignment); the returned implementation is completely specified.
func Synthesize(f *tt.Function, opt Options) (*Result, error) {
	lib := opt.Library
	if lib == nil {
		lib = celllib.Generic70()
	}
	g := aig.New(f.NumIn)
	literals := 0
	// Per-output two-level minimization and factoring are independent;
	// fan them out through the shared pool into index-addressed slots.
	// The AIG itself is built sequentially in output order below, so the
	// structural hash (and hence every downstream metric) is identical
	// at every parallelism level.
	exprs := make([]*factor.Expr, f.NumOut())
	err := par.Do(context.Background(), opt.Parallelism, f.NumOut(), func(o int) error {
		if err := opt.check(); err != nil {
			return err
		}
		cov, err := espresso.MinimizeSets(f.NumIn, f.Outs[o].On, f.Outs[o].DC, opt.Interrupt)
		if err != nil {
			return err
		}
		exprs[o], err = factor.GoodFactorPoll(cov, opt.Interrupt)
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, e := range exprs {
		literals += e.NumLiterals()
		g.AddPO(g.FromExpr(e))
	}
	g = g.Cleanup().Balance()
	if err := opt.checkAIG(g, "construction"); err != nil {
		return nil, err
	}
	if opt.Flow == FlowResyn {
		var err error
		g, err = refactorPoll(g, opt.Interrupt, opt.Parallelism)
		if err != nil {
			return nil, err
		}
		if g2, err := resynNodesPoll(g, 6, opt.Interrupt, opt.Parallelism); err == nil {
			g = g2
		} else if opt.Interrupt != nil && opt.Interrupt() != nil {
			return nil, err
		}
		g = g.Balance()
		if err := opt.checkAIG(g, "resyn"); err != nil {
			return nil, err
		}
	}
	if err := opt.check(); err != nil {
		return nil, err
	}

	mode := mapper.Area
	if opt.Objective == OptimizeDelay {
		mode = mapper.Delay
	}
	net, err := mapper.MapInterruptible(g, lib, mode, opt.Interrupt)
	if err != nil {
		return nil, fmt.Errorf("synth: %w", err)
	}

	impl, err := implFunction(f, g)
	if err != nil {
		return nil, err
	}
	return &Result{
		Impl:    impl,
		Netlist: net,
		Graph:   g,
		Metrics: Metrics{
			Area:     net.Area,
			DelayPs:  net.DelayPs,
			Power:    net.Power,
			Gates:    net.GateCount(),
			Literals: literals,
			AIGNodes: g.NumNodes(),
			AIGDepth: g.Depth(),
		},
	}, nil
}

// implFunction reads the implemented truth table off the AIG and checks
// it against the specification's care set.
func implFunction(spec *tt.Function, g *aig.Graph) (*tt.Function, error) {
	impl := tt.New(spec.NumIn, spec.NumOut())
	impl.Name = spec.Name
	tts := g.NodeTruthTables()
	for o := range spec.Outs {
		table := g.LitTable(tts, g.PO(o))
		impl.Outs[o].On.Copy(table)
		// Consistency checks: the implementation must respect the care set.
		onMissing := spec.Outs[o].On.Difference(table)
		if onMissing.Any() {
			return nil, fmt.Errorf("synth: output %d drops on-set minterm %d",
				o, onMissing.NextSet(0))
		}
		offHit := table.Intersect(spec.OffSet(o))
		if offHit.Any() {
			return nil, fmt.Errorf("synth: output %d asserts off-set minterm %d",
				o, offHit.NextSet(0))
		}
	}
	return impl, nil
}

// Refactor re-synthesizes every PO cone from its exact truth table:
// minimize the completely specified function, re-factor, and rebuild into
// a fresh strashed graph. Cones whose rebuild is larger keep their
// original structure.
func Refactor(g *aig.Graph) *aig.Graph {
	out, _ := refactorPoll(g, nil, 0)
	return out
}

// refactorPoll is Refactor with a cooperative cancellation hook and a
// parallelism cap for the per-cone minimize+factor fan-out.
func refactorPoll(g *aig.Graph, poll func() error, parallelism int) (*aig.Graph, error) {
	n := g.NumPI()
	if n > tt.MaxInputs {
		return g, nil
	}
	tts := g.NodeTruthTables()
	// Per-cone re-minimization reads only the (immutable) simulation
	// tables; rebuild stays sequential in PO order for determinism.
	exprs := make([]*factor.Expr, g.NumPO())
	err := par.Do(context.Background(), parallelism, g.NumPO(), func(o int) error {
		table := g.LitTable(tts, g.PO(o))
		cov, err := espresso.MinimizeSets(n, table, nil, poll)
		if err != nil {
			return err
		}
		exprs[o], err = factor.GoodFactorPoll(cov, poll)
		return err
	})
	if err != nil {
		return nil, err
	}
	out := aig.New(n)
	for _, e := range exprs {
		out.AddPO(out.FromExpr(e))
	}
	out = out.Cleanup()
	if out.NumNodes() >= g.NumNodes() {
		return g, nil
	}
	return out, nil
}

// ResynNodes re-synthesizes the graph at node granularity — the
// renode-style analogue of ABC's refactor: cluster into k-feasible SOP
// nodes, minimize and factor each node's completely specified local
// function, and compose the factored forms back into a fresh strashed
// graph. The rebuild is kept only if it has fewer AND nodes.
func ResynNodes(g *aig.Graph, k int) (*aig.Graph, error) {
	return resynNodesPoll(g, k, nil, 0)
}

// resynNodesPoll is ResynNodes with a cooperative cancellation hook and
// a parallelism cap. Each node's local minimize+factor depends only on
// the node's own truth table, so the expensive phase fans out; the
// fanin-ordered graph composition stays sequential for determinism.
func resynNodesPoll(g *aig.Graph, k int, poll func() error, parallelism int) (*aig.Graph, error) {
	nw, err := network.FromAIGInterruptible(g, k, poll)
	if err != nil {
		return nil, err
	}
	exprs := make([]*factor.Expr, len(nw.Nodes))
	err = par.Do(context.Background(), parallelism, len(nw.Nodes), func(ni int) error {
		nd := nw.Nodes[ni]
		cov, err := espresso.MinimizeSets(nd.NumIn(), nd.Table, nil, poll)
		if err != nil {
			return err
		}
		exprs[ni], err = factor.GoodFactorPoll(cov, poll)
		return err
	})
	if err != nil {
		return nil, err
	}
	out := aig.New(g.NumPI())
	sig := make([]aig.Lit, nw.NumPI+len(nw.Nodes))
	for i := 0; i < nw.NumPI; i++ {
		sig[i] = out.PI(i)
	}
	for ni, nd := range nw.Nodes {
		leaves := make([]aig.Lit, nd.NumIn())
		for j, f := range nd.Fanins {
			leaves[j] = sig[f]
		}
		sig[nw.NumPI+ni] = out.FromExprSubst(exprs[ni], leaves)
	}
	for i, s := range nw.POs {
		switch {
		case nw.POConst(i) == 0:
			out.AddPO(aig.ConstFalse)
		case nw.POConst(i) == 1:
			out.AddPO(aig.ConstTrue)
		default:
			out.AddPO(sig[s])
		}
	}
	out = out.Cleanup()
	if out.NumNodes() >= g.NumNodes() {
		return g, nil
	}
	return out, nil
}
