package network

import (
	"errors"
	"fmt"

	"relsyn/internal/core"
	"relsyn/internal/cube"
	"relsyn/internal/obs"
	"relsyn/internal/sat"
	"relsyn/internal/tt"
)

// SAT don't-care extraction metrics. Resolved once (series lookup takes a
// lock) and seeded at init so the /metrics surface shows the series — at
// zero — before the first extraction runs.
var (
	satdcWindows   = obs.Default.Counter("relsyn_satdc_windows_total")
	satdcSATCalls  = obs.Default.Counter("relsyn_satdc_sat_calls_total")
	satdcExhausted = obs.Default.Counter("relsyn_satdc_budget_exhausted_total")
	satdcWinSize   = obs.Default.Histogram("relsyn_satdc_window_size")
)

func init() {
	obs.Default.SetHelp("relsyn_satdc_windows_total", "Windows carved for SAT don't-care extraction.")
	obs.Default.SetHelp("relsyn_satdc_sat_calls_total", "Per-pattern SAT solver calls during don't-care extraction.")
	obs.Default.SetHelp("relsyn_satdc_budget_exhausted_total", "Nodes whose SAT conflict budget ran out mid-extraction (partial spec returned).")
	obs.Default.SetHelp("relsyn_satdc_window_size", "Member-node count per extraction window.")
}

// SatDCOptions bounds a SAT-based don't-care extraction.
type SatDCOptions struct {
	// Window bounds the per-node cone that is encoded; the zero value
	// uses DefaultWindowTFI/DefaultWindowTFO. FullDepth() reproduces the
	// complete (exhaustive-equivalent) extraction.
	Window WindowOptions
	// MaxConflicts caps the cumulative SAT conflicts spent per node
	// across all of its local patterns (<= 0: sat.DefaultMaxConflicts).
	MaxConflicts int64
	// Interrupt, when non-nil, is polled at every conflict; returning
	// true aborts the node's extraction with a sat.ErrBudget-wrapped
	// error and a partial (still sound) specification.
	Interrupt func() bool
}

// SatDCStats aggregates extraction effort, mirroring the relsyn_satdc_*
// metric series for callers that want per-run numbers.
type SatDCStats struct {
	Windows         int // windows carved (= nodes extracted)
	SATCalls        int // per-pattern solver invocations
	BudgetExhausted int // nodes that ran out of conflict budget
	MemberNodes     int // summed window sizes, for averaging
}

func (st *SatDCStats) add(o SatDCStats) {
	st.Windows += o.Windows
	st.SATCalls += o.SATCalls
	st.BudgetExhausted += o.BudgetExhausted
	st.MemberNodes += o.MemberNodes
}

// DCExtractor extracts node local specifications with their internal
// don't-cares by SAT over a TFI/TFO-bounded window around each node. It
// is run-scoped, for callers sweeping many nodes of one network (the
// metamorphic harness, reassignment loops): the fanout index (valid as
// long as the node DAG is unchanged — reassignment only swaps tables)
// and the per-node espresso-minimized covers, which every window
// containing the node would otherwise re-minimize from scratch, are
// computed once per run. On large networks the cover cache turns
// O(nodes × window size) espresso calls into O(nodes). Not safe for
// concurrent use. The covers go stale when a node's table is rewritten:
// a caller that rewrites tables needs a new DCExtractor afterwards.
type DCExtractor struct {
	nw     *Network
	opt    SatDCOptions
	fo     [][]int
	covers map[int]*cube.Cover
}

// NewDCExtractor builds a reusable extraction context over nw.
func (nw *Network) NewDCExtractor(opt SatDCOptions) *DCExtractor {
	return &DCExtractor{
		nw:     nw,
		opt:    opt,
		fo:     nw.fanoutIndex(),
		covers: make(map[int]*cube.Cover),
	}
}

// LocalSpec computes node ni's local function with its internal
// don't-cares using SAT instead of exhaustive simulation — the
// simulation-and-satisfiability approach of the paper's reference [16]
// (Mishchenko et al.). A local input pattern v is don't-care iff the
// miter
//
//	window ∧ window[node ni complemented] ∧ (some window output differs) ∧ (ni fanins = v)
//
// is unsatisfiable: either no boundary assignment produces v
// (satisfiability DC) or every occurrence is unobservable at the window
// outputs (observability DC). One incremental SAT call decides each of
// the 2^k patterns.
//
// The returned don't-care set is a subset of the complete one (see
// window.go for the soundness argument), so any downstream reassignment
// remains PO-preserving. At full window depth (FullDepth) it equals the
// complete set, so LocalSpec returns the same specification as
// Network.LocalSpec (the exhaustive extractor); the test suite enforces
// the agreement. If the conflict budget runs out mid-node it returns the
// partial specification computed so far — sound, because undecided
// patterns stay care — together with an error wrapping sat.ErrBudget,
// instead of failing hard.
func (x *DCExtractor) LocalSpec(ni int) (*tt.Function, error) {
	spec, _, err := x.extract(ni)
	return spec, err
}

// invalidate drops the cached cover of a node whose table was rewritten.
func (x *DCExtractor) invalidate(ni int) { delete(x.covers, ni) }

// cover returns the node's minimized on-set cover, memoized per run.
func (x *DCExtractor) cover(ni int) *cube.Cover {
	if c, ok := x.covers[ni]; ok {
		return c
	}
	c := x.nw.Nodes[ni].MinCover()
	x.covers[ni] = c
	return c
}

// extract is LocalSpec, also returning the extraction's effort.
func (x *DCExtractor) extract(ni int) (*tt.Function, SatDCStats, error) {
	nw, opt := x.nw, x.opt
	var st SatDCStats
	if ni < 0 || ni >= len(nw.Nodes) {
		return nil, st, fmt.Errorf("network: node %d out of range", ni)
	}
	nd := nw.Nodes[ni]
	k := nd.NumIn()
	spec := tt.New(k, 1)

	w := nw.window(ni, opt.Window, x.fo)
	st.Windows, st.MemberNodes = 1, len(w.Members)
	satdcWindows.Inc()
	satdcWinSize.Observe(float64(len(w.Members)))

	enc := newWinEncoder(nw, w, x)
	enc.s.SetMaxConflicts(opt.MaxConflicts)
	enc.s.SetInterrupt(opt.Interrupt)
	if !enc.buildMiter() {
		// Nothing in the window is observable from outside: the node is
		// effectively dead and every pattern is don't-care.
		for v := 0; v < 1<<uint(k); v++ {
			spec.SetPhase(0, v, tt.DC)
		}
		return spec, st, nil
	}

	for v := 0; v < 1<<uint(k); v++ {
		assumptions := make([]sat.Lit, k)
		for j, f := range nd.Fanins {
			assumptions[j] = enc.refA(f)
			if v>>uint(j)&1 == 0 {
				assumptions[j] = assumptions[j].Not()
			}
		}
		st.SATCalls++
		satdcSATCalls.Inc()
		switch enc.s.Solve(assumptions...) {
		case sat.Unsat:
			spec.SetPhase(0, v, tt.DC)
		case sat.Unknown:
			// Budget exhausted: leave this and all remaining patterns as
			// care with the node's current phase — a sound (if weaker)
			// specification — and report the exhaustion as a typed,
			// degradable error instead of discarding the partial result.
			st.BudgetExhausted++
			satdcExhausted.Inc()
			for u := v; u < 1<<uint(k); u++ {
				if nd.Table.Test(u) {
					spec.SetPhase(0, u, tt.On)
				}
			}
			return spec, st, fmt.Errorf("network: node %d pattern %d: %w", ni, v, sat.ErrBudget)
		default:
			if nd.Table.Test(v) {
				spec.SetPhase(0, v, tt.On)
			}
		}
	}
	return spec, st, nil
}

// WindowedReassignReport summarizes a ReassignLCFWindowed run.
type WindowedReassignReport struct {
	Assigned        int    `json:"assigned"`         // DC patterns bound for reliability
	Nodes           int    `json:"nodes"`            // nodes processed
	Windows         int    `json:"windows"`          // windows carved
	SATCalls        int    `json:"sat_calls"`        // per-pattern solver calls
	BudgetExhausted int    `json:"budget_exhausted"` // nodes degraded to partial specs
	Equivalent      bool   `json:"equivalent"`       // post-reassignment CEC verdict
	CECMethod       string `json:"cec_method"`       // "sat" or "exhaustive"
}

// ReassignLCFWindowed is ReassignLCF driven by windowed SAT don't-care
// extraction instead of exhaustive simulation, so it scales to networks
// with hundreds of primary inputs. Nodes are processed in topological
// order with DCs re-extracted per node; because windowed DCs are a
// subset of the complete internal DCs, every rewrite is PO-preserving —
// and the final network is checked against the original with a SAT CEC
// anyway (the report records the verdict). Nodes whose conflict budget
// runs out degrade to their partial specification (counted in
// BudgetExhausted) rather than failing the run.
func (nw *Network) ReassignLCFWindowed(threshold float64, opt SatDCOptions) (*WindowedReassignReport, error) {
	orig := nw.Clone()
	rep := &WindowedReassignReport{Nodes: len(nw.Nodes)}
	x := nw.NewDCExtractor(opt)
	for ni := range nw.Nodes {
		spec, st, err := x.extract(ni)
		rep.Windows += st.Windows
		rep.SATCalls += st.SATCalls
		rep.BudgetExhausted += st.BudgetExhausted
		if err != nil && !errors.Is(err, sat.ErrBudget) {
			return rep, err
		}
		res, err := core.LCF(spec, threshold, core.Options{})
		if err != nil {
			return rep, err
		}
		rep.Assigned += len(res.Assigned)
		nw.Nodes[ni].Table = completeConventional(res.Func)
		x.invalidate(ni)
	}
	eq, method, err := nw.EquivalentSAT(orig, opt.MaxConflicts, opt.Interrupt)
	rep.CECMethod = method
	if err != nil {
		return rep, fmt.Errorf("network: post-reassignment check: %w", err)
	}
	rep.Equivalent = eq
	if !eq {
		return rep, errors.New("network: windowed reassignment changed a PO function")
	}
	return rep, nil
}

// EquivalentSAT checks combinational equivalence of two networks with
// identical interfaces by a SAT miter over shared primary inputs. When
// the solver verdict is Unknown and the networks are small enough
// (NumPI <= tt.MaxInputs) it degrades to exhaustive truth-table
// comparison (method "exhaustive"); otherwise it returns an error
// wrapping sat.ErrBudget.
func (nw *Network) EquivalentSAT(other *Network, maxConflicts int64, interrupt func() bool) (equal bool, method string, err error) {
	if nw.NumPI != other.NumPI || len(nw.POs) != len(other.POs) {
		return false, "", fmt.Errorf("network: interface mismatch: %dx%d vs %dx%d",
			nw.NumPI, len(nw.POs), other.NumPI, len(other.POs))
	}
	budget := nw.NumPI + 2
	for _, n := range [2]*Network{nw, other} {
		for _, nd := range n.Nodes {
			budget += 2 + (1 << uint(nd.NumIn()))
		}
	}
	budget += 4 * (len(nw.POs) + 1)
	c := &cnf{s: sat.New(budget)}
	c.s.SetMaxConflicts(maxConflicts)
	c.s.SetInterrupt(interrupt)

	pis := make([]int, nw.NumPI)
	for i := range pis {
		pis[i] = c.alloc()
	}
	constTrue := c.alloc()
	c.s.AddClause(sat.MkLit(constTrue, false))

	poLits := func(n *Network) []sat.Lit {
		vars := make([]int, n.NumPI+len(n.Nodes))
		copy(vars, pis)
		ref := func(sig int) sat.Lit { return sat.MkLit(vars[sig], false) }
		for ni, nd := range n.Nodes {
			vars[n.NumPI+ni] = c.encodeSOP(nd, ref)
		}
		lits := make([]sat.Lit, len(n.POs))
		for i, s := range n.POs {
			if n.poConst[i] >= 0 {
				lits[i] = sat.MkLit(constTrue, n.poConst[i] == 0)
			} else {
				lits[i] = ref(s)
			}
		}
		return lits
	}
	la, lb := poLits(nw), poLits(other)

	var diffs []sat.Lit
	for i := range la {
		d := sat.MkLit(c.alloc(), false)
		c.xor(d, la[i], lb[i])
		diffs = append(diffs, d)
	}
	c.s.AddClause(diffs...)

	switch c.s.Solve() {
	case sat.Unsat:
		return true, "sat", nil
	case sat.Sat:
		return false, "sat", nil
	}
	if nw.NumPI <= tt.MaxInputs {
		return nw.POFunction().Equal(other.POFunction()), "exhaustive", nil
	}
	return false, "", fmt.Errorf("network: equivalence verdict unknown: %w", sat.ErrBudget)
}

// cnf is a clause sink with sequential variable allocation, shared by the
// window miter and the network CEC encoder.
type cnf struct {
	s    *sat.Solver
	next int
}

func (c *cnf) alloc() int {
	c.next++
	return c.next
}

// xor asserts d ↔ a ⊕ b.
func (c *cnf) xor(d, a, b sat.Lit) {
	c.s.AddClause(d.Not(), a, b)
	c.s.AddClause(d.Not(), a.Not(), b.Not())
	c.s.AddClause(d, a, b.Not())
	c.s.AddClause(d, a.Not(), b)
}

// encodeSOP emits clauses defining a fresh variable as the node's SOP
// over ref(fanin) literals and returns that variable.
func (c *cnf) encodeSOP(nd Node, ref func(int) sat.Lit) int {
	return c.encodeCover(nd.MinCover(), nd.Fanins, ref)
}

// encodeCover is encodeSOP for a pre-minimized cover, letting callers
// reuse one minimization across many encodings of the same node.
func (c *cnf) encodeCover(cov *cube.Cover, fanins []int, ref func(int) sat.Lit) int {
	y := c.alloc()
	yl := sat.MkLit(y, false)
	if cov.Len() == 0 { // constant 0
		c.s.AddClause(yl.Not())
		return y
	}
	var terms []sat.Lit
	for _, cb := range cov.Cubes {
		lits := cubeLits(cb, fanins, ref)
		if len(lits) == 0 { // universe cube: constant 1
			c.s.AddClause(yl)
			return y
		}
		t := sat.MkLit(c.alloc(), false)
		// t ↔ ∧ lits
		long := []sat.Lit{t}
		for _, l := range lits {
			c.s.AddClause(t.Not(), l)
			long = append(long, l.Not())
		}
		c.s.AddClause(long...)
		terms = append(terms, t)
	}
	// y ↔ ∨ terms
	or := []sat.Lit{yl.Not()}
	for _, t := range terms {
		c.s.AddClause(t.Not(), yl)
		or = append(or, t)
	}
	c.s.AddClause(or...)
	return y
}

// cubeLits converts a cube's bound literals to solver literals over the
// node's fanin signals.
func cubeLits(cb cube.Cube, fanins []int, ref func(int) sat.Lit) []sat.Lit {
	var out []sat.Lit
	for v := 0; v < cb.NumVars(); v++ {
		switch cb.Val(v) {
		case cube.One:
			out = append(out, ref(fanins[v]))
		case cube.Zero:
			out = append(out, ref(fanins[v]).Not())
		}
	}
	return out
}

// winEncoder Tseitin-encodes a window twice — copy B with the pivot's
// output complemented — over shared boundary-input variables. Members
// whose fanin cone inside the window cannot reach the pivot are
// identical in both copies, so they are encoded once and share their
// variable (the classic miter folding of side logic); only the pivot and
// its pivot-reachable members get a second copy.
type winEncoder struct {
	cnf
	nw   *Network
	w    *Window
	x    *DCExtractor // run-scoped cover cache
	varA []int        // signal vars, copy A (boundary inputs shared)
	varB []int
}

func newWinEncoder(nw *Network, w *Window, x *DCExtractor) *winEncoder {
	total := nw.NumPI + len(nw.Nodes)
	// Generous variable budget: inputs + 2 copies × (node + term vars)
	// per member + one XOR var per window output.
	budget := len(w.Inputs) + 2
	for _, nj := range w.Members {
		budget += 2 * (2 + (1 << uint(nw.Nodes[nj].NumIn())))
	}
	budget += len(w.Outputs) + 4
	e := &winEncoder{
		cnf:  cnf{s: sat.New(budget)},
		nw:   nw,
		w:    w,
		x:    x,
		varA: make([]int, total),
		varB: make([]int, total),
	}
	for _, sig := range w.Inputs {
		v := e.alloc()
		e.varA[sig] = v
		e.varB[sig] = v // shared
	}
	return e
}

// refA returns copy A's literal for a signal.
func (e *winEncoder) refA(sig int) sat.Lit { return sat.MkLit(e.varA[sig], false) }

// refB returns copy B's literal for a signal, complementing the pivot's
// output.
func (e *winEncoder) refB(sig int) sat.Lit {
	l := sat.MkLit(e.varB[sig], false)
	if sig == e.nw.NumPI+e.w.Pivot {
		l = l.Not()
	}
	return l
}

// pivotReach marks the members whose copy-B encoding can actually differ
// from copy A: those reachable from the pivot through member-to-member
// edges. (The flip enters the CNF only where refB reads the pivot's
// output, and propagates only through member encodings — boundary inputs
// are shared.)
func (e *winEncoder) pivotReach() map[int]bool {
	member := make(map[int]bool, len(e.w.Members))
	for _, nj := range e.w.Members {
		member[nj] = true
	}
	reach := map[int]bool{e.w.Pivot: true}
	// Members are sorted topologically, so one forward pass closes the
	// reachable set: a member's fanins all have smaller node indices.
	for _, nj := range e.w.Members {
		if reach[nj] {
			continue
		}
		for _, f := range e.nw.Nodes[nj].Fanins {
			if f >= e.nw.NumPI && member[f-e.nw.NumPI] && reach[f-e.nw.NumPI] {
				reach[nj] = true
				break
			}
		}
	}
	return reach
}

// buildMiter encodes the window and asserts that some window output
// differs between the copies. It reports false when no output can differ
// (no outputs at all, or none downstream of the pivot), in which case
// every local pattern is don't-care.
func (e *winEncoder) buildMiter() bool {
	reach := e.pivotReach()
	for _, nj := range e.w.Members {
		nd := e.nw.Nodes[nj]
		sig := e.nw.NumPI + nj
		cov := e.x.cover(nj)
		e.varA[sig] = e.encodeCover(cov, nd.Fanins, e.refA)
		if reach[nj] {
			e.varB[sig] = e.encodeCover(cov, nd.Fanins, e.refB)
		} else {
			e.varB[sig] = e.varA[sig] // side logic: fold the copies
		}
	}
	var diffs []sat.Lit
	for _, sig := range e.w.Outputs {
		nj := sig - e.nw.NumPI
		if !reach[nj] {
			continue // identical in both copies; cannot contribute a diff
		}
		a, b := e.refA(sig), e.refB(sig)
		d := sat.MkLit(e.alloc(), false)
		e.xor(d, a, b)
		diffs = append(diffs, d)
	}
	if len(diffs) == 0 {
		return false
	}
	e.s.AddClause(diffs...)
	return true
}
