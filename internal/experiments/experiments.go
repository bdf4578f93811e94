// Package experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index). Each experiment
// returns structured rows plus a Render* function that prints the same
// rows/series the paper reports; cmd/experiments and the repository's
// top-level benchmarks drive the same entry points.
package experiments

import (
	"context"
	"sync"

	"relsyn/internal/benchmarks"
	"relsyn/internal/bitset"
	"relsyn/internal/census"
	"relsyn/internal/complexity"
	"relsyn/internal/core"
	"relsyn/internal/espresso"
	"relsyn/internal/estimate"
	"relsyn/internal/par"
	"relsyn/internal/reliability"
	"relsyn/internal/synth"
	"relsyn/internal/synthetic"
	"relsyn/internal/tt"
)

// DefaultFractions is the ranking-sweep grid used by Figs. 4–6.
var DefaultFractions = []float64{0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1}

// DefaultThreshold is the LC^f threshold used for Tables 2–3 (the paper
// recommends 0.45–0.65; reliability-leaning).
const DefaultThreshold = 0.55

// parallelFor runs fn(i) for i in [0,n) through the shared bounded work
// pool (internal/par): full machine parallelism, lowest-indexed error,
// panic-to-error. Rows land in index-addressed slots, so experiment
// tables are identical at every parallelism level.
func parallelFor(n int, fn func(i int) error) error {
	return par.Do(context.Background(), 0, n, fn)
}

// synthER synthesizes f and measures its mean input-error rate against
// spec, returning the implementation metrics as well.
func synthER(spec, f *tt.Function, obj synth.Objective) (synth.Metrics, float64, error) {
	res, err := synth.Synthesize(f, synth.Options{Objective: obj})
	if err != nil {
		return synth.Metrics{}, 0, err
	}
	er, err := reliability.ErrorRateMeanCtx(context.Background(), spec, res.Impl, 0)
	if err != nil {
		return synth.Metrics{}, 0, err
	}
	return res.Metrics, er, nil
}

// specCensus builds spec's per-output fused neighbor censuses once, for
// every analysis and assignment pass over that spec to share.
func specCensus(spec *tt.Function) ([]*bitset.Census, error) {
	fc, err := census.Compute(context.Background(), spec, 0)
	if err != nil {
		return nil, err
	}
	return fc.Outs, nil
}

// ---------------------------------------------------------------------
// Table 1 — benchmark properties.

// Table1Row reproduces one row of paper Table 1.
type Table1Row struct {
	Name            string
	Inputs, Outputs int
	DCPct           float64
	ExpectedCf      float64
	Cf              float64
}

// Table1 measures the stand-in suite's properties.
func Table1() ([]Table1Row, error) {
	specs := benchmarks.Specs()
	rows := make([]Table1Row, len(specs))
	err := parallelFor(len(specs), func(i int) error {
		f, err := benchmarks.Load(specs[i].Name)
		if err != nil {
			return err
		}
		ecf, err := complexity.ExpectedMean(f)
		if err != nil {
			return err
		}
		cs, err := specCensus(f)
		if err != nil {
			return err
		}
		cf, err := complexity.FactorMean(cs)
		if err != nil {
			return err
		}
		rows[i] = Table1Row{
			Name:       specs[i].Name,
			Inputs:     f.NumIn,
			Outputs:    f.NumOut(),
			DCPct:      100 * f.DCFraction(),
			ExpectedCf: ecf,
			Cf:         cf,
		}
		return nil
	})
	return rows, err
}

// ---------------------------------------------------------------------
// Figure 2 — SOP size vs complexity factor.

// Fig2Point is one generated function's measured C^f and minimal SOP
// implicant count (paper Fig. 2: 10-input, single-output synthetics).
type Fig2Point struct {
	TargetCf   float64
	Cf         float64
	Implicants int
}

// Fig2 sweeps target complexity factors and minimizes each function.
func Fig2(samplesPerTarget int, seed int64) ([]Fig2Point, error) {
	var targets []float64
	for t := 0.05; t < 1.0; t += 0.05 {
		targets = append(targets, t)
	}
	pts := make([]Fig2Point, len(targets)*samplesPerTarget)
	err := parallelFor(len(pts), func(i int) error {
		target := targets[i/samplesPerTarget]
		f, err := synthetic.Generate(synthetic.Params{
			Inputs: 10, Outputs: 1, DCFraction: 0,
			TargetCf: target, Tolerance: 0.02,
			Seed: seed + int64(i), BestEffort: true,
		})
		if err != nil {
			return err
		}
		cov, _ := espresso.MinimizeSets(f.NumIn, f.Outs[0].On, nil, nil) // nil poll: no error
		pts[i] = Fig2Point{
			TargetCf:   target,
			Cf:         complexity.Factor(census.Output(f, 0)),
			Implicants: cov.Len(),
		}
		return nil
	})
	return pts, err
}

// ---------------------------------------------------------------------
// Figure 4 — normalized error rate vs fraction of DCs assigned.

// Fig4Row is one benchmark's error-rate trajectory over the ranking
// sweep, normalized to the conventional-assignment (fraction 0) rate.
type Fig4Row struct {
	Name      string
	Fractions []float64
	NormER    []float64
}

// Fig4 runs the ranking sweep on the whole suite.
func Fig4(fractions []float64) ([]Fig4Row, error) {
	specs := benchmarks.Specs()
	rows := make([]Fig4Row, len(specs))
	err := parallelFor(len(specs), func(i int) error {
		spec, err := benchmarks.Load(specs[i].Name)
		if err != nil {
			return err
		}
		cs, err := specCensus(spec)
		if err != nil {
			return err
		}
		row := Fig4Row{Name: specs[i].Name, Fractions: fractions}
		var base float64
		for _, fr := range fractions {
			res, err := core.Ranking(spec, fr, core.Options{Census: cs})
			if err != nil {
				return err
			}
			_, er, err := synthER(spec, res.Func, synth.OptimizePower)
			if err != nil {
				return err
			}
			if fr == 0 {
				base = er
			}
			if base == 0 {
				row.NormER = append(row.NormER, 1)
			} else {
				row.NormER = append(row.NormER, er/base)
			}
		}
		rows[i] = row
		return nil
	})
	return rows, err
}

// ---------------------------------------------------------------------
// Figure 5 — min/max/mean overhead vs fraction, per objective.

// Fig5Stat aggregates one metric's normalized value across the suite at
// one sweep fraction.
type Fig5Stat struct {
	Fraction       float64
	Min, Max, Mean float64
}

// Fig5Result is one synthesis objective's overhead trajectories.
type Fig5Result struct {
	Objective string
	Area      []Fig5Stat
	Delay     []Fig5Stat
	Power     []Fig5Stat
}

// Fig5 sweeps the ranking fraction under delay- and power-optimized
// synthesis, reporting normalized (fraction-0 = 1.0) area/delay/power
// statistics across the suite.
func Fig5(fractions []float64) ([]Fig5Result, error) {
	specs := benchmarks.Specs()
	var out []Fig5Result
	for _, obj := range []synth.Objective{synth.OptimizeDelay, synth.OptimizePower} {
		// norm[b][fi] = metrics normalized by benchmark b's fraction-0 run.
		type triple struct{ area, delay, power float64 }
		norm := make([][]triple, len(specs))
		err := parallelFor(len(specs), func(b int) error {
			spec, err := benchmarks.Load(specs[b].Name)
			if err != nil {
				return err
			}
			cs, err := specCensus(spec)
			if err != nil {
				return err
			}
			var base synth.Metrics
			norm[b] = make([]triple, len(fractions))
			for fi, fr := range fractions {
				res, err := core.Ranking(spec, fr, core.Options{Census: cs})
				if err != nil {
					return err
				}
				m, _, err := synthER(spec, res.Func, obj)
				if err != nil {
					return err
				}
				if fi == 0 {
					base = m
				}
				norm[b][fi] = triple{
					area:  safeDiv(m.Area, base.Area),
					delay: safeDiv(m.DelayPs, base.DelayPs),
					power: safeDiv(m.Power, base.Power),
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		r := Fig5Result{Objective: obj.String()}
		for fi, fr := range fractions {
			var a, d, p []float64
			for b := range specs {
				a = append(a, norm[b][fi].area)
				d = append(d, norm[b][fi].delay)
				p = append(p, norm[b][fi].power)
			}
			r.Area = append(r.Area, stat(fr, a))
			r.Delay = append(r.Delay, stat(fr, d))
			r.Power = append(r.Power, stat(fr, p))
		}
		out = append(out, r)
	}
	return out, nil
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 1
	}
	return a / b
}

func stat(fr float64, xs []float64) Fig5Stat {
	s := Fig5Stat{Fraction: fr, Min: xs[0], Max: xs[0]}
	sum := 0.0
	for _, x := range xs {
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
		sum += x
	}
	s.Mean = sum / float64(len(xs))
	return s
}

// ---------------------------------------------------------------------
// Figure 6 — area vs error rate trajectories by C^f family.

// Fig6Point is one (fraction, normalized area, normalized error rate)
// sample of a family trajectory.
type Fig6Point struct {
	Fraction float64
	NormArea float64
	NormER   float64
}

// Fig6Family is the averaged trajectory of one complexity-factor family.
type Fig6Family struct {
	TargetCf float64
	Points   []Fig6Point
}

// Fig6Config sizes the experiment (paper: 11-in/11-out, 60% DC, 5
// families × 10 functions).
type Fig6Config struct {
	Inputs, Outputs   int
	FunctionsPerClass int
	Fractions         []float64
	Seed              int64
}

// DefaultFig6 matches the paper's setup.
func DefaultFig6() Fig6Config {
	return Fig6Config{Inputs: 11, Outputs: 11, FunctionsPerClass: 10,
		Fractions: []float64{0, 0.25, 0.5, 0.75, 1}, Seed: 4000}
}

// Fig6 generates the synthetic families and sweeps the ranking fraction,
// averaging the normalized (area, error-rate) trajectory per family.
func Fig6(cfg Fig6Config) ([]Fig6Family, error) {
	families := []float64{0.35, 0.45, 0.55, 0.65, 0.78}
	type sample struct{ area, er []float64 } // per fraction, one per function
	acc := make([]sample, len(families))
	for i := range acc {
		acc[i] = sample{
			area: make([]float64, len(cfg.Fractions)),
			er:   make([]float64, len(cfg.Fractions)),
		}
	}
	type job struct{ fam, fn int }
	var jobs []job
	for fam := range families {
		for fn := 0; fn < cfg.FunctionsPerClass; fn++ {
			jobs = append(jobs, job{fam, fn})
		}
	}
	var mu sync.Mutex
	err := parallelFor(len(jobs), func(j int) error {
		fam, fn := jobs[j].fam, jobs[j].fn
		spec, err := synthetic.Generate(synthetic.Params{
			Inputs: cfg.Inputs, Outputs: cfg.Outputs, DCFraction: 0.6,
			TargetCf: families[fam], Tolerance: 0.02,
			Seed: cfg.Seed + int64(fam*1000+fn), BestEffort: true,
		})
		if err != nil {
			return err
		}
		cs, err := specCensus(spec)
		if err != nil {
			return err
		}
		var baseArea, baseER float64
		areas := make([]float64, len(cfg.Fractions))
		ers := make([]float64, len(cfg.Fractions))
		for fi, fr := range cfg.Fractions {
			res, err := core.Ranking(spec, fr, core.Options{Census: cs})
			if err != nil {
				return err
			}
			m, er, err := synthER(spec, res.Func, synth.OptimizePower)
			if err != nil {
				return err
			}
			if fi == 0 {
				baseArea, baseER = m.Area, er
			}
			areas[fi] = safeDiv(m.Area, baseArea)
			ers[fi] = safeDiv(er, baseER)
		}
		mu.Lock()
		for fi := range cfg.Fractions {
			acc[fam].area[fi] += areas[fi]
			acc[fam].er[fi] += ers[fi]
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]Fig6Family, len(families))
	for fam, target := range families {
		f := Fig6Family{TargetCf: target}
		for fi, fr := range cfg.Fractions {
			f.Points = append(f.Points, Fig6Point{
				Fraction: fr,
				NormArea: acc[fam].area[fi] / float64(cfg.FunctionsPerClass),
				NormER:   acc[fam].er[fi] / float64(cfg.FunctionsPerClass),
			})
		}
		out[fam] = f
	}
	return out, nil
}

// ---------------------------------------------------------------------
// Table 2 — LC^f-based vs ranking-based vs complete assignment.

// Table2Row reports percentage improvements over conventional assignment
// (positive = better, matching the paper's sign convention).
type Table2Row struct {
	Name                     string
	Inputs, Outputs          int
	Cf                       float64
	LCFArea, LCFER           float64
	RankArea, RankER         float64
	CompleteArea, CompleteER float64
	FractionAssigned         float64 // LC^f fraction, matched by the ranking run
}

// Table2 runs the three assignment strategies across the suite.
func Table2(threshold float64) ([]Table2Row, error) {
	specs := benchmarks.Specs()
	rows := make([]Table2Row, len(specs))
	err := parallelFor(len(specs), func(i int) error {
		spec, err := benchmarks.Load(specs[i].Name)
		if err != nil {
			return err
		}
		baseM, baseER, err := synthER(spec, spec, synth.OptimizePower)
		if err != nil {
			return err
		}
		imp := func(m synth.Metrics, er float64) (float64, float64) {
			return pctImp(baseM.Area, m.Area), pctImp(baseER, er)
		}
		cs, err := specCensus(spec)
		if err != nil {
			return err
		}
		opt := core.Options{Census: cs}

		lcf, err := core.LCF(spec, threshold, opt)
		if err != nil {
			return err
		}
		lcfM, lcfER, err := synthER(spec, lcf.Func, synth.OptimizePower)
		if err != nil {
			return err
		}

		// Ranking at matched per-output fractions.
		counts, err := core.RankableCounts(spec, opt)
		if err != nil {
			return err
		}
		fracs := make([]float64, spec.NumOut())
		perOut := make([]int, spec.NumOut())
		for _, a := range lcf.Assigned {
			perOut[a.Output]++
		}
		for o := range fracs {
			if counts[o] > 0 {
				fracs[o] = float64(perOut[o]) / float64(counts[o])
				if fracs[o] > 1 {
					fracs[o] = 1
				}
			}
		}
		rank, err := core.RankingPerOutput(spec, fracs, opt)
		if err != nil {
			return err
		}
		rankM, rankER, err := synthER(spec, rank.Func, synth.OptimizePower)
		if err != nil {
			return err
		}

		comp, err := core.CompleteCensus(spec, cs)
		if err != nil {
			return err
		}
		compM, compER, err := synthER(spec, comp.Func, synth.OptimizePower)
		if err != nil {
			return err
		}

		cf, err := complexity.FactorMean(cs)
		if err != nil {
			return err
		}
		row := Table2Row{
			Name: specs[i].Name, Inputs: spec.NumIn, Outputs: spec.NumOut(),
			Cf:               cf,
			FractionAssigned: lcf.FractionAssigned(),
		}
		row.LCFArea, row.LCFER = imp(lcfM, lcfER)
		row.RankArea, row.RankER = imp(rankM, rankER)
		row.CompleteArea, row.CompleteER = imp(compM, compER)
		rows[i] = row
		return nil
	})
	return rows, err
}

// pctImp converts (base, new) into a percent improvement (positive =
// improvement, i.e. the new value is smaller).
func pctImp(base, val float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (base - val) / base
}

// ---------------------------------------------------------------------
// Table 3 — min-max reliability estimates.

// Table3Row reproduces one row of paper Table 3.
type Table3Row struct {
	Name               string
	Gates              int
	ExactLo, ExactHi   float64
	SignalLo, SignalHi float64
	BorderLo, BorderHi float64
	ConvRate, ConvDiff float64 // measured conventional rate, % above exact min
	LCFRate, LCFDiff   float64
}

// Table3 computes exact, signal-based, and border-based bounds plus the
// measured conventional and LC^f-assigned rates.
func Table3(threshold float64) ([]Table3Row, error) {
	specs := benchmarks.Specs()
	rows := make([]Table3Row, len(specs))
	err := parallelFor(len(specs), func(i int) error {
		spec, err := benchmarks.Load(specs[i].Name)
		if err != nil {
			return err
		}
		cs, err := specCensus(spec)
		if err != nil {
			return err
		}
		exLo, exHi, err := reliability.BoundsMeanCensusCtx(context.Background(), spec, cs, 0)
		if err != nil {
			return err
		}
		sig, err := estimate.SignalBasedMean(spec)
		if err != nil {
			return err
		}
		bor, err := estimate.BorderBasedMean(spec, cs)
		if err != nil {
			return err
		}

		convM, convER, err := synthER(spec, spec, synth.OptimizePower)
		if err != nil {
			return err
		}
		lcf, err := core.LCF(spec, threshold, core.Options{Census: cs})
		if err != nil {
			return err
		}
		_, lcfER, err := synthER(spec, lcf.Func, synth.OptimizePower)
		if err != nil {
			return err
		}
		diff := func(rate float64) float64 {
			if exLo == 0 {
				return 0
			}
			return 100 * (rate - exLo) / exLo
		}
		rows[i] = Table3Row{
			Name: specs[i].Name, Gates: convM.Gates,
			ExactLo: exLo, ExactHi: exHi,
			SignalLo: sig.Min, SignalHi: sig.Max,
			BorderLo: bor.Min, BorderHi: bor.Max,
			ConvRate: convER, ConvDiff: diff(convER),
			LCFRate: lcfER, LCFDiff: diff(lcfER),
		}
		return nil
	})
	return rows, err
}

// ---------------------------------------------------------------------
// Ablations.

// ThresholdPoint is one LC^f threshold's suite-mean improvements.
type ThresholdPoint struct {
	Threshold              float64
	MeanAreaImp, MeanERImp float64
	MeanFraction           float64
}

// ThresholdSweep runs Table 2's LC^f arm across thresholds (ablation A2).
func ThresholdSweep(thresholds []float64) ([]ThresholdPoint, error) {
	specs := benchmarks.Specs()
	out := make([]ThresholdPoint, len(thresholds))
	for ti, th := range thresholds {
		var mu sync.Mutex
		var sumArea, sumER, sumFrac float64
		err := parallelFor(len(specs), func(i int) error {
			spec, err := benchmarks.Load(specs[i].Name)
			if err != nil {
				return err
			}
			baseM, baseER, err := synthER(spec, spec, synth.OptimizePower)
			if err != nil {
				return err
			}
			lcf, err := core.LCF(spec, th, core.Options{})
			if err != nil {
				return err
			}
			m, er, err := synthER(spec, lcf.Func, synth.OptimizePower)
			if err != nil {
				return err
			}
			mu.Lock()
			sumArea += pctImp(baseM.Area, m.Area)
			sumER += pctImp(baseER, er)
			sumFrac += lcf.FractionAssigned()
			mu.Unlock()
			return nil
		})
		if err != nil {
			return nil, err
		}
		n := float64(len(specs))
		out[ti] = ThresholdPoint{Threshold: th,
			MeanAreaImp: sumArea / n, MeanERImp: sumER / n, MeanFraction: sumFrac / n}
	}
	return out, nil
}

// TiesPoint compares tie handling at full ranking assignment
// (ablation A1: paper Fig. 7's literal tie-assignment vs leaving ties DC).
type TiesPoint struct {
	Name                      string
	FlexAreaImp, FlexER       float64
	LiteralAreaImp, LiteralER float64
}

// TiesAblation measures both tie policies across the suite.
func TiesAblation() ([]TiesPoint, error) {
	specs := benchmarks.Specs()
	rows := make([]TiesPoint, len(specs))
	err := parallelFor(len(specs), func(i int) error {
		spec, err := benchmarks.Load(specs[i].Name)
		if err != nil {
			return err
		}
		baseM, baseER, err := synthER(spec, spec, synth.OptimizePower)
		if err != nil {
			return err
		}
		row := TiesPoint{Name: specs[i].Name}
		for _, literal := range []bool{false, true} {
			res, err := core.Ranking(spec, 1.0, core.Options{AssignTies: literal})
			if err != nil {
				return err
			}
			m, er, err := synthER(spec, res.Func, synth.OptimizePower)
			if err != nil {
				return err
			}
			if literal {
				row.LiteralAreaImp, row.LiteralER = pctImp(baseM.Area, m.Area), pctImp(baseER, er)
			} else {
				row.FlexAreaImp, row.FlexER = pctImp(baseM.Area, m.Area), pctImp(baseER, er)
			}
		}
		rows[i] = row
		return nil
	})
	return rows, err
}
