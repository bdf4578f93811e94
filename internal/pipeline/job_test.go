package pipeline

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"relsyn/internal/benchmarks"
	"relsyn/internal/census"
	"relsyn/internal/tt"
)

// jobTestFunction builds a small incompletely specified function.
func jobTestFunction() *tt.Function {
	f := tt.New(4, 2)
	for _, m := range []int{1, 3, 5, 7, 9} {
		f.SetPhase(0, m, tt.On)
	}
	for _, m := range []int{0, 2, 8} {
		f.SetPhase(0, m, tt.DC)
	}
	for _, m := range []int{4, 6, 12, 14} {
		f.SetPhase(1, m, tt.On)
	}
	for _, m := range []int{5, 13} {
		f.SetPhase(1, m, tt.DC)
	}
	return f
}

func TestJobOptionsNormalizeDefaults(t *testing.T) {
	n := JobOptions{}.Normalize()
	if n.Method != JobMethodNone || n.Objective != "power" || n.Flow != "sop" {
		t.Fatalf("zero value normalized to %+v", n)
	}
	// Irrelevant knobs are cleared per method.
	n = JobOptions{Method: "Complete", Fraction: 0.7, Threshold: 0.5,
		AssignTies: true}.Normalize()
	if n.Method != JobMethodComplete {
		t.Fatalf("method not lower-cased: %q", n.Method)
	}
	if n.Fraction != 0 || n.Threshold != 0 || n.AssignTies {
		t.Fatalf("complete-method normalization kept inert knobs: %+v", n)
	}
	n = JobOptions{Method: "rank", Fraction: 0.7, Threshold: 0.5}.Normalize()
	if n.Fraction != 0.7 || n.Threshold != 0 {
		t.Fatalf("rank normalization wrong: %+v", n)
	}
}

// Equivalent requests must collide on Key; different option structs must
// not (the satellite counterpart to the PLA canonicalization tests).
func TestJobOptionsKey(t *testing.T) {
	base := JobOptions{Method: "lcf", Threshold: 0.55}
	same := []JobOptions{
		{Method: "LCF", Threshold: 0.55},
		{Method: "lcf", Threshold: 0.55, Fraction: 0.9}, // fraction inert for lcf
		{Method: " lcf ", Threshold: 0.55, Objective: "power", Flow: "sop"},
		// Parallelism is an execution knob: every worker count computes
		// bit-identical results, so it must never fragment the cache.
		{Method: "lcf", Threshold: 0.55, Parallelism: 1},
		{Method: "lcf", Threshold: 0.55, Parallelism: 8},
	}
	for i, o := range same {
		if o.Key() != base.Key() {
			t.Fatalf("equivalent options %d produced a different key", i)
		}
	}
	different := []JobOptions{
		{Method: "lcf", Threshold: 0.56},
		{Method: "lcf", Threshold: 0.55, AssignTies: true},
		{Method: "rank", Fraction: 0.55},
		{Method: "lcf", Threshold: 0.55, Objective: "delay"},
		{Method: "lcf", Threshold: 0.55, Flow: "resyn"},
		{Method: "lcf", Threshold: 0.55, SkipVerify: true},
		{Method: "lcf", Threshold: 0.55, Strict: true},
		{Method: "lcf", Threshold: 0.55, TimeoutMs: 1000},
		{Method: "lcf", Threshold: 0.55, MaxAIGNodes: 64},
		{},
	}
	seen := map[string]int{base.Key(): -1}
	for i, o := range different {
		k := o.Key()
		if j, ok := seen[k]; ok {
			t.Fatalf("options %d and %d collided", i, j)
		}
		seen[k] = i
	}
}

func TestJobOptionsValidate(t *testing.T) {
	bad := []JobOptions{
		{Method: "bogus"},
		{Method: "rank", Fraction: 1.5},
		{Method: "rank", Fraction: -0.1},
		{Method: "lcf", Threshold: 0},
		{Method: "lcf", Threshold: 1},
		{Objective: "speed"},
		{Objective: "area"},
		{Flow: "fast"},
		{TimeoutMs: -1},
		{TimeoutMs: math.MaxInt64/int64(time.Millisecond) + 1},
		{MaxAIGNodes: -2},
		{MaxConflicts: -1},
		{Parallelism: -1},
	}
	for i, o := range bad {
		if err := o.Normalize().Validate(); err == nil {
			t.Fatalf("case %d: invalid options %+v accepted", i, o)
		}
		if _, err := Run(context.Background(), jobTestFunction(), o, Hooks{}); err == nil {
			t.Fatalf("case %d: Run accepted invalid %+v", i, o)
		}
	}
	if err := (JobOptions{}).Normalize().Validate(); err != nil {
		t.Fatalf("zero value invalid: %v", err)
	}
}

func TestRunJobLCF(t *testing.T) {
	f := jobTestFunction()
	res, err := RunJob(context.Background(), f, JobOptions{Method: "lcf", Threshold: 0.55})
	if err != nil {
		t.Fatal(err)
	}
	if res.Spec.Inputs != 4 || res.Spec.Outputs != 2 {
		t.Fatalf("spec info wrong: %+v", res.Spec)
	}
	if res.Assign == nil || res.Assign.Method != "lcf" || res.Assign.TotalDCs != 5 {
		t.Fatalf("assign info wrong: %+v", res.Assign)
	}
	if !res.Verified || res.VerifyMethod == "" {
		t.Fatalf("job not verified: %+v", res)
	}
	if res.Metrics.Gates <= 0 || res.Metrics.Area <= 0 {
		t.Fatalf("metrics not populated: %+v", res.Metrics)
	}
	if res.Bounds.Min > res.ErrorRate+1e-12 || res.ErrorRate > res.Bounds.Max+1e-12 {
		t.Fatalf("error rate %v outside bounds [%v,%v]",
			res.ErrorRate, res.Bounds.Min, res.Bounds.Max)
	}
	// The result must round-trip through JSON with stable field names.
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"spec"`, `"metrics"`, `"error_rate"`,
		`"reliability_bounds"`, `"verified"`, `"elapsed_ms"`, `"aig_nodes"`} {
		if !strings.Contains(string(b), want) {
			t.Fatalf("JSON missing %s:\n%s", want, b)
		}
	}
	var back JobResult
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Metrics != res.Metrics || back.Verified != res.Verified {
		t.Fatalf("JSON round trip mutated result")
	}
}

// A strict run with an exhausted AIG budget fails with a budget
// StageError, and the partial JobResult still reports the attempt.
func TestRunJobStrictBudgetFailure(t *testing.T) {
	f := jobTestFunction()
	res, err := RunJob(context.Background(), f, JobOptions{
		Method: "lcf", Threshold: 0.55, MaxAIGNodes: 1, Strict: true,
	})
	if err == nil {
		t.Fatal("strict run with a 1-node AIG budget succeeded")
	}
	var se *StageError
	if !errors.As(err, &se) || se.Reason != ReasonBudget || se.Attempt != "synth/sop" {
		t.Fatalf("error not a synth/sop budget StageError: %v", err)
	}
	if res == nil || len(res.Stages) == 0 {
		t.Fatalf("partial result missing stage reports: %+v", res)
	}
}

// A budget exhausted on the resyn flow degrades to the sop flow and
// succeeds, and the fallback is visible in the serialized result.
func TestRunJobDegrades(t *testing.T) {
	f := jobTestFunction()
	jo := JobOptions{Method: "lcf", Threshold: 0.55, Flow: "resyn"}
	res, err := runJob(context.Background(), f, jo, Hooks{Inject: func(point string) error {
		if point == "synth/resyn" {
			return fmt.Errorf("resyn over budget: %w", ErrBudget)
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || len(res.Fallbacks) == 0 || !res.Verified {
		t.Fatalf("degradation not reported: %+v", res)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back JobResult
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	fb := back.Fallbacks[0]
	if fb.Stage != "synth" || fb.From != "synth/resyn" || fb.To != "synth/sop" || fb.Reason != "budget" {
		t.Fatalf("fallback wrong: %+v", fb)
	}
}

func TestRunJobNilAndInvalid(t *testing.T) {
	if _, err := RunJob(context.Background(), nil, JobOptions{}); err == nil {
		t.Fatal("nil function accepted")
	}
	if _, err := RunJob(context.Background(), jobTestFunction(),
		JobOptions{Method: "bogus"}); err == nil {
		t.Fatal("invalid options accepted")
	}
}

// The request fields "kernels", "use_bdd" and "max_bdd_nodes" are gone:
// the strict decoder the server uses rejects a body carrying any of
// them, naming the field, while the same body without it decodes.
func TestJobOptionsRejectsRetiredFields(t *testing.T) {
	decode := func(body string) error {
		var o JobOptions
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		return dec.Decode(&o)
	}
	const plain = `{"method": "lcf", "threshold": 0.55, "parallelism": 4`
	if err := decode(plain + `}`); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ field, retired string }{
		{"kernels", `"kernels": "off"`},
		{"kernels", `"kernels": ""`},
		{"use_bdd", `"use_bdd": true`},
		{"use_bdd", `"use_bdd": false`},
		{"max_bdd_nodes", `"max_bdd_nodes": 4`},
		{"kernels", `"kernels": "off", "use_bdd": true, "max_bdd_nodes": 4`},
	} {
		err := decode(plain + `, ` + c.retired + `}`)
		if err == nil || !strings.Contains(err.Error(), `unknown field "`+c.field+`"`) {
			t.Fatalf("%s: decode error %v, want unknown field %q", c.retired, err, c.field)
		}
	}
}

// Key() must stay byte-identical across releases for the options the
// service sees most, so result-cache entries a WAL has already
// recovered stay reachable. The digests were recorded before the
// kernels, use_bdd and max_bdd_nodes fields were retired.
func TestJobOptionsKeyGolden(t *testing.T) {
	for _, c := range []struct {
		opts JobOptions
		key  string
	}{
		{JobOptions{}, "d6d16f675c2f6aad316210af33290ce192df72a11e73c4fadb3e4c0c5594e82e"},
		{JobOptions{Method: JobMethodNone}, "d6d16f675c2f6aad316210af33290ce192df72a11e73c4fadb3e4c0c5594e82e"},
		{JobOptions{Method: JobMethodRank, Fraction: 0.5}, "ee4a70eb94e93c93d0e77d0ea09a6651589db4020fc9c9aaf623e51b81dffbc1"},
		{JobOptions{Method: JobMethodLCF, Threshold: 0.55}, "5d4e99ab7d76a04ef02fd3a1f5b9b20fedc35f7363ef0eacca1a08dca8ee5cd9"},
	} {
		if got := c.opts.Key(); got != c.key {
			t.Errorf("%+v: Key() = %s, want %s", c.opts, got, c.key)
		}
	}
}

// RunJob serves the same answer whether the census comes from the
// shared engine or, with the engine disabled, is computed per job.
func TestRunJobWithoutCensusEngine(t *testing.T) {
	f, err := benchmarks.Load("bench")
	if err != nil {
		t.Fatal(err)
	}
	run := func(jo JobOptions) []byte {
		t.Helper()
		res, err := RunJob(context.Background(), f, jo)
		if err != nil {
			t.Fatal(err)
		}
		res.ElapsedMs = 0
		for i := range res.Stages {
			res.Stages[i].TookMs = 0
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	old := census.Default
	defer census.SetDefault(old)
	for _, jo := range []JobOptions{
		{Method: JobMethodRank, Fraction: 0.5},
		{Method: JobMethodLCF, Threshold: 0.55},
		{Method: JobMethodComplete},
	} {
		census.SetDefault(census.NewEngine(16, 1<<22))
		withEngine := run(jo)
		census.SetDefault(nil)
		if without := run(jo); !bytes.Equal(without, withEngine) {
			t.Errorf("%s: without the census engine\n%s\nwith it\n%s", jo.Method, without, withEngine)
		}
	}
}

// A census that fails to build while Run still succeeds fails the job
// at the bounds report with the census error: the report never rebuilds
// the census. When the failure is a cancelled context, Run fails first
// and reports it as a cancellation, which the CLI maps to exit 3.
func TestRunJobCensusFailureFailsBoundsReport(t *testing.T) {
	f := jobTestFunction()
	jo := JobOptions{Method: JobMethodLCF, Threshold: 0.55}
	injected := errors.New("injected census failure")
	jr, err := reportJob(context.Background(), f, jo.Normalize(), Hooks{}, nil, injected)
	if !errors.Is(err, injected) {
		t.Fatalf("err = %v, want the census error", err)
	}
	if jr == nil || !jr.Verified || jr.Metrics.Gates == 0 {
		t.Fatalf("the pipeline did not run without a census: %+v", jr)
	}
	if jr.Bounds != (JobBounds{}) {
		t.Fatalf("bounds %+v reported without a census", jr.Bounds)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = RunJob(ctx, f, jo)
	var se *StageError
	if !errors.As(err, &se) || se.Reason != ReasonCancel {
		t.Fatalf("cancelled job: err = %v, want a cancel StageError", err)
	}
}

// One spec run under different option mixes (fractions, thresholds,
// parallelism) must share a single
// census-cache entry: the census key is the spec hash alone, so the
// first job computes and every later job hits.
func TestRunJobSharesCensusAcrossOptionKnobs(t *testing.T) {
	old := census.Default
	eng := census.NewEngine(16, 1<<22)
	census.SetDefault(eng)
	defer census.SetDefault(old)

	f := jobTestFunction()
	jobs := []JobOptions{
		{Method: "rank", Fraction: 0.3, SkipVerify: true},
		{Method: "rank", Fraction: 0.9, SkipVerify: true, Parallelism: 4},
		{Method: "lcf", Threshold: 0.55, SkipVerify: true, Parallelism: 2},
	}
	for i, jo := range jobs {
		if _, err := RunJob(context.Background(), f, jo); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	st := eng.Stats()
	if st.Len != 1 {
		t.Fatalf("census cache holds %d entries after option sweep, want 1 (knobs fragmented the key)", st.Len)
	}
	if st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("census hits/misses = %d/%d, want 2/1", st.Hits, st.Misses)
	}
}
