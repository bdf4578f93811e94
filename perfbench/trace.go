package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime/metrics"
	"strings"
	"time"

	"relsyn/internal/aig"
	"relsyn/internal/bitset"
	"relsyn/internal/cec"
	"relsyn/internal/celllib"
	"relsyn/internal/census"
	"relsyn/internal/core"
	"relsyn/internal/cube"
	"relsyn/internal/espresso"
	"relsyn/internal/factor"
	"relsyn/internal/fleet"
	"relsyn/internal/mapper"
	"relsyn/internal/pipeline"
	"relsyn/internal/pla"
	"relsyn/internal/reliability"
	"relsyn/internal/server"
	"relsyn/internal/tt"
)

// replayShare is the part of the traced run's budget spent replaying
// jobs layer by layer; the rest serves one round through relsynd.
const replayShare = 0.6

// Layers of the in-process replay, in the order pipeline.Run calls them.
var replayLayers = []string{
	"census", "assign", "espresso", "factor", "aig", "map",
	"synth.readback", "verify.ref", "verify.cec", "report",
}

// ledger accumulates one replay pass: busy time and allocated bytes per
// layer, plus exact work counts.
type ledger struct {
	ms     map[string]float64
	alloc  map[string]float64
	counts map[string]float64
	sample []metrics.Sample
}

// replayCounts are the exact work counts of the replay, one beside each
// timed layer whose work has a natural unit.
var replayCounts = []string{
	"assign.dcs_assigned", "espresso.cubes_in", "espresso.cubes_out",
	"factor.literals", "aig.nodes", "map.gates",
}

func newLedger() *ledger {
	l := &ledger{
		ms:     map[string]float64{},
		alloc:  map[string]float64{},
		counts: map[string]float64{},
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
	for _, c := range replayCounts {
		l.counts[c] = 0
	}
	return l
}

func (l *ledger) allocated() float64 {
	metrics.Read(l.sample)
	return float64(l.sample[0].Value.Uint64())
}

// span times fn as one call into layer.
func (l *ledger) span(layer string, fn func() error) error {
	a0 := l.allocated()
	t0 := time.Now()
	err := fn()
	l.ms[layer] += ms(time.Since(t0))
	l.alloc[layer] += l.allocated() - a0
	return err
}

// traced is the separate traced run. It replays every distinct job of
// the workload at Parallelism 1 through the public calls pipeline.Run
// makes, timing each layer from outside, and then serves one round of
// the workload's request stream through a fresh relsynd, diffing
// /metrics and /statsz around it.
func traced(in *inputs, budget time.Duration, t *tally) (map[string]metric, error) {
	// The replay warms the process-wide census engine, so the served
	// round must not reuse an instance started before it.
	if in.first != nil {
		err := in.first.stop()
		in.first = nil
		if err != nil {
			return nil, err
		}
	}
	start := time.Now()
	host := &hostRef{}
	var passes []*ledger
	var runjob, replay []float64
	for len(passes) == 0 || time.Since(start) < time.Duration(float64(budget)*replayShare) {
		if err := host.sample(); err != nil {
			return nil, err
		}
		l := newLedger()
		var runMs, replayMs float64
		for _, j := range in.jobs {
			opts := j.opts
			opts.Parallelism = 1
			t0 := time.Now()
			jr, err := pipeline.RunJob(context.Background(), j.fn, opts)
			runMs += ms(time.Since(t0))
			if err != nil {
				t.fail("%s: RunJob: %v", j.label, err)
				continue
			}
			t0 = time.Now()
			got, nl, err := replayJob(l, j.fn, opts, jr.VerifyMethod)
			replayMs += ms(time.Since(t0))
			if err != nil {
				t.fail("%s: replay: %v", j.label, err)
				continue
			}
			t.check(sameAnswer(j.label, jr, got))
			if len(passes) == 0 {
				if err := checkNetlist(nl, j.fn); err != nil {
					t.fail("%s: netlist check: %v", j.label, err)
					continue
				}
				t.ok()
			}
		}
		passes = append(passes, l)
		runjob = append(runjob, runMs)
		replay = append(replay, replayMs)
	}

	m := map[string]metric{}
	var layerSum []float64
	for _, l := range passes {
		sum := 0.0
		for _, layer := range replayLayers {
			sum += l.ms[layer]
		}
		layerSum = append(layerSum, sum)
	}
	allocs := map[string][]float64{}
	for _, layer := range replayLayers {
		var busy []float64
		for p, l := range passes {
			busy = append(busy, l.ms[layer])
			// A layer named "module.part" is timed per part; its
			// allocations are reported per module.
			module, _, _ := strings.Cut(layer, ".")
			if len(allocs[module]) <= p {
				allocs[module] = append(allocs[module], 0)
			}
			allocs[module][p] += l.alloc[layer] / (1 << 20)
		}
		name := layer + ".ms"
		if strings.Contains(layer, ".") {
			name = layer + "_ms"
		}
		m[name] = metric{median(busy), "ms"}
	}
	for module, mb := range allocs {
		m[module+".alloc_mb"] = metric{median(mb), "MB"}
	}
	for k, v := range passes[0].counts {
		m[k] = metric{v, "count"}
	}
	var unattributed, overhead []float64
	for i := range passes {
		unattributed = append(unattributed, runjob[i]-layerSum[i])
		overhead = append(overhead, 100*(replay[i]-runjob[i])/runjob[i])
	}
	m["trace.runjob_ms"] = metric{median(runjob), "ms"}
	m["trace.unattributed_ms"] = metric{median(unattributed), "ms"}
	m["trace.overhead_pct"] = metric{median(overhead), "%"}
	m["trace.replay_passes"] = metric{float64(len(passes)), "count"}
	// Layer times are wall time on this host, not scaled: the reference
	// time says how fast the host ran while they were taken.
	m["host.ref_ms"] = metric{host.median(), "ms"}

	served, err := tracedRound(in, t)
	if err != nil {
		return nil, err
	}
	for k, v := range served {
		m[k] = v
	}
	return m, nil
}

// replayJob runs one job through the layers in pipeline order and
// returns its answer and mapped netlist. The census is built afresh
// rather than read from the process-wide engine: RunJob has just filled
// that engine with the same spec, so a lookup there would time a cache
// hit, not the layer's work.
func replayJob(l *ledger, f *tt.Function, opts pipeline.JobOptions, verifyMethod string) (*pipeline.JobResult, *mapper.Result, error) {
	ctx := context.Background()
	n := opts.Normalize()
	var cs []*bitset.Census
	if err := l.span("census", func() error {
		fc, err := census.Compute(ctx, f, 1)
		if err != nil {
			return err
		}
		cs = fc.Outs
		return nil
	}); err != nil {
		return nil, nil, err
	}

	fa := f
	jr := &pipeline.JobResult{}
	if err := l.span("assign", func() error {
		copt := core.Options{AssignTies: n.AssignTies, Parallelism: 1, Census: cs}
		var res *core.Result
		var err error
		switch n.Method {
		case pipeline.JobMethodRank:
			res, err = core.Ranking(f, n.Fraction, copt)
		case pipeline.JobMethodLCF:
			res, err = core.LCF(f, n.Threshold, copt)
		case pipeline.JobMethodComplete:
			res = core.Complete(f)
		}
		if err != nil || res == nil {
			return err
		}
		fa = res.Func
		jr.Assign = &pipeline.JobAssignInfo{Method: n.Method, Assigned: len(res.Assigned),
			TotalDCs: res.TotalDCs, Fraction: res.FractionAssigned()}
		l.counts["assign.dcs_assigned"] += float64(len(res.Assigned))
		return nil
	}); err != nil {
		return nil, nil, err
	}

	covs := make([]*cube.Cover, fa.NumOut())
	if err := l.span("espresso", func() error {
		for o := range covs {
			on, dc := fa.OnCover(o), fa.DCCover(o)
			l.counts["espresso.cubes_in"] += float64(on.Len() + dc.Len())
			cov, err := espresso.MinimizeInterruptible(on, dc, nil)
			if err != nil {
				return err
			}
			l.counts["espresso.cubes_out"] += float64(cov.Len())
			covs[o] = cov
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}

	exprs := make([]*factor.Expr, len(covs))
	literals := 0
	_ = l.span("factor", func() error {
		for o, cov := range covs {
			exprs[o] = factor.GoodFactor(cov)
			literals += exprs[o].NumLiterals()
		}
		return nil
	})
	l.counts["factor.literals"] += float64(literals)

	var g *aig.Graph
	_ = l.span("aig", func() error {
		g = aig.New(fa.NumIn)
		for _, e := range exprs {
			g.AddPO(g.FromExpr(e))
		}
		g = g.Cleanup().Balance()
		return nil
	})
	l.counts["aig.nodes"] += float64(g.NumNodes())

	mode := mapper.Area
	if n.Objective == "delay" {
		mode = mapper.Delay
	}
	var nl *mapper.Result
	if err := l.span("map", func() error {
		var err error
		nl, err = mapper.Map(g, celllib.Generic70(), mode)
		return err
	}); err != nil {
		return nil, nil, err
	}
	l.counts["map.gates"] += float64(nl.GateCount())

	var impl *tt.Function
	if err := l.span("synth.readback", func() error {
		impl = tt.New(f.NumIn, f.NumOut())
		tts := g.NodeTruthTables()
		for o := range f.Outs {
			table := g.LitTable(tts, g.PO(o))
			impl.Outs[o].On.Copy(table)
			if f.Outs[o].On.Difference(table).Any() || table.Intersect(f.OffSet(o)).Any() {
				return fmt.Errorf("output %d violates the care set", o)
			}
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}

	var ref *aig.Graph
	if err := l.span("verify.ref", func() error {
		ref = aig.New(impl.NumIn)
		for o := range impl.Outs {
			cov, err := espresso.MinimizeInterruptible(impl.OnCover(o), nil, nil)
			if err != nil {
				return err
			}
			ref.AddPO(ref.FromExpr(factor.GoodFactor(cov)))
		}
		ref = ref.Cleanup()
		return nil
	}); err != nil {
		return nil, nil, err
	}
	if err := l.span("verify.cec", func() error {
		var eq bool
		var err error
		if verifyMethod == "exhaustive" {
			eq, _, err = cec.CheckExhaustive(g, ref)
		} else {
			eq, _, err = cec.CheckOpt(g, ref, cec.Options{MaxConflicts: n.MaxConflicts})
		}
		if err == nil && !eq {
			err = fmt.Errorf("AIG differs from the reference")
		}
		return err
	}); err != nil {
		return nil, nil, err
	}
	jr.Verified, jr.VerifyMethod = true, verifyMethod

	if err := l.span("report", func() error {
		er, err := reliability.ErrorRateMeanCtx(ctx, f, impl, 1)
		if err != nil {
			return err
		}
		lo, hi, err := reliability.BoundsMeanCensusCtx(ctx, f, cs, 1)
		if err != nil {
			return err
		}
		jr.ErrorRate, jr.Bounds = er, pipeline.JobBounds{Min: lo, Max: hi}
		return nil
	}); err != nil {
		return nil, nil, err
	}
	jr.Metrics = pipeline.JobMetrics{
		Area: nl.Area, DelayPs: nl.DelayPs, Power: nl.Power, Gates: nl.GateCount(),
		Literals: literals, AIGNodes: g.NumNodes(), AIGDepth: g.Depth(),
	}
	return jr, nl, nil
}

// sameAnswer is the replay-fidelity check: the replay must reproduce
// RunJob's answer exactly.
func sameAnswer(label string, want, got *pipeline.JobResult) error {
	if want.Metrics != got.Metrics || want.ErrorRate != got.ErrorRate || want.Bounds != got.Bounds {
		return fmt.Errorf("%s: replay answer %+v er=%v differs from RunJob %+v er=%v",
			label, got.Metrics, got.ErrorRate, want.Metrics, want.ErrorRate)
	}
	if (want.Assign == nil) != (got.Assign == nil) || (want.Assign != nil && *want.Assign != *got.Assign) {
		return fmt.Errorf("%s: replay assignment differs from RunJob", label)
	}
	return nil
}

// tracedRound serves one round of the workload's request stream through
// a fresh relsynd, diffs /metrics and /statsz around it, and times the
// codec layers on the round's own request and reply bodies.
func tracedRound(in *inputs, t *tally) (map[string]metric, error) {
	inst, err := startInstance(in.dir)
	if err != nil {
		return nil, err
	}
	before, err := inst.scrape()
	if err != nil {
		inst.stop()
		return nil, err
	}
	replies, _ := inst.round(in.jobs, in.stream)
	after, err := inst.scrape()
	storeBytes := inst.storeBytes()
	if stopErr := inst.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return nil, err
	}
	for _, r := range replies {
		jr, err := decodeReply(r)
		if err != nil {
			t.fail("%s: %v", in.jobs[r.job].label, err)
			continue
		}
		t.check(checkResult(jr))
	}
	d := after.Delta(before)
	reqs := float64(len(replies))
	// The server's own /statsz accounting must agree with the client's.
	if d["statsz.submitted"] != reqs || d["statsz.failed"] != 0 {
		t.fail("statsz counted %v submitted and %v failed jobs for %v requests",
			d["statsz.submitted"], d["statsz.failed"], reqs)
	} else {
		t.ok()
	}
	hits, misses := d[`relsyn_cache_hits_total{cache="results"}`], d[`relsyn_cache_misses_total{cache="results"}`]
	chits, cmisses := d.Sum("relsyn_census_hits_total"), d.Sum("relsyn_census_misses_total")
	m := map[string]metric{
		"serve.requests":      {reqs, "count"},
		"http.server_ms":      {meanMs(d, `relsyn_http_request_duration_seconds`, `route="/v1/synth"`), "ms"},
		"queue.wait_ms":       {meanMs(d, "relsyn_queue_wait_seconds", ""), "ms"},
		"cache.hit_ratio":     {ratio(hits, hits+misses), "ratio"},
		"flight.coalesced":    {d["statsz.coalesced"], "count"},
		"census.hit_ratio":    {ratio(chits, chits+cmisses), "ratio"},
		"wal.appends_per_job": {d.Sum("relsyn_store_appends_total") / reqs, "count"},
		"wal.bytes_per_job":   {float64(storeBytes) / reqs, "B"},
		"stage.assign_ms":     {meanMs(d, "relsyn_stage_duration_seconds", `stage="assign"`), "ms"},
		"stage.synth_ms":      {meanMs(d, "relsyn_stage_duration_seconds", `stage="synth"`), "ms"},
		"stage.verify_ms":     {meanMs(d, "relsyn_stage_duration_seconds", `stage="verify"`), "ms"},
	}
	codec, err := codecLayers(in, replies)
	if err != nil {
		return nil, err
	}
	for k, v := range codec {
		m[k] = v
	}
	return m, nil
}

// meanMs is a histogram's mean observation in ms over a scrape delta,
// from its _sum and _count series only (the exported quantiles cover a
// sliding window, not the round).
func meanMs(d fleet.Series, name, label string) float64 {
	sum, count := 0.0, 0.0
	for key, v := range d {
		if label != "" && !strings.Contains(key, label) {
			continue
		}
		switch {
		case strings.HasPrefix(key, name+"_sum"):
			sum += v
		case strings.HasPrefix(key, name+"_count"):
			count += v
		}
	}
	return 1000 * ratio(sum, count)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// codecLayers times the request-side layers by calling them on the
// round's own bodies: JSON decode of each request and encode of its
// reply, PLA parse and conversion, and the spec content hash. Each is
// reported as mean ms per request.
func codecLayers(in *inputs, replies []reply) (map[string]metric, error) {
	reqs := make([]server.SynthRequest, len(replies))
	envs := make([]server.SynthResponse, len(replies))
	fns := make([]*tt.Function, len(replies))
	var codec, parse, hash time.Duration
	for i, r := range replies {
		if err := json.Unmarshal(r.body, &envs[i]); err != nil {
			return nil, fmt.Errorf("decode reply: %w", err)
		}
	}
	t0 := time.Now()
	for i, r := range replies {
		if err := json.Unmarshal(in.jobs[r.job].body, &reqs[i]); err != nil {
			return nil, err
		}
		var sb strings.Builder
		enc := json.NewEncoder(&sb)
		enc.SetIndent("", "  ")
		if err := enc.Encode(&envs[i]); err != nil {
			return nil, err
		}
	}
	codec = time.Since(t0)
	t0 = time.Now()
	for i := range reqs {
		file, err := pla.Parse(strings.NewReader(reqs[i].PLA))
		if err != nil {
			return nil, err
		}
		if fns[i], err = file.ToFunction(); err != nil {
			return nil, err
		}
	}
	parse = time.Since(t0)
	t0 = time.Now()
	for _, f := range fns {
		_ = pla.HashFunction(f)
	}
	hash = time.Since(t0)
	n := float64(len(replies))
	return map[string]metric{
		"json.codec_ms": {ms(codec) / n, "ms"},
		"pla.parse_ms":  {ms(parse) / n, "ms"},
		"pla.hash_ms":   {ms(hash) / n, "ms"},
	}, nil
}
