package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"relsyn/internal/pipeline"
	"relsyn/internal/server"
)

// minPasses is the fewest passes (or rounds) a timed run makes, however
// short --seconds is, so that every median has at least three samples.
const minPasses = 3

// timed measures the workload end to end with tracing off. It returns
// the host reference samples with the metrics; every timing metric is
// already scaled by them.
func timed(in *inputs, budget time.Duration, t *tally) (map[string]metric, *hostRef, error) {
	lat := make([][]float64, len(in.jobs)) // per job, ms
	answers := make([][]byte, len(in.jobs))
	// The set-up is not part of any pass.
	if err := resetPeakRSS(); err != nil {
		return nil, nil, fmt.Errorf("reset peak RSS: %w", err)
	}
	host := &hostRef{}
	var passes, peaks []float64 // s, MiB
	var err error
	if in.served {
		passes, peaks, err = servedRounds(in, budget, t, host, lat, answers)
	} else {
		passes, peaks, err = inProcessPasses(in, budget, t, host, lat, answers)
	}
	if err == nil {
		err = host.sample()
	}
	if err == nil && in.served {
		err = checkAgainstRunJob(in, answers, t)
	}
	if err != nil {
		return nil, nil, err
	}
	scale := host.scale()
	var all, medians []float64
	for _, l := range lat {
		all = append(all, l...)
		medians = append(medians, median(l))
	}
	jobGeomean := geomean(medians)
	// A latency percentile is taken only over one client-observed
	// distribution with at least 10 samples beyond it: the service mix,
	// per request. In process, jobs differ in size by three orders of
	// magnitude and each repeats only once a pass, so no percentile is
	// valid there and both latency metrics carry job_geomean_ms.
	p50, p99 := jobGeomean, jobGeomean
	if in.served {
		p50, p99 = quantile(all, 0.50), quantile(all, 0.99)
	}
	m := map[string]metric{
		"pass_s":         {median(passes) * scale, "s"},
		"job_geomean_ms": {jobGeomean * scale, "ms"},
		"latency_p50_ms": {p50 * scale, "ms"},
		"latency_p99_ms": {p99 * scale, "ms"},
		"peak_rss_mb":    {median(peaks), "MB"},
	}
	for k, v := range quality(answers) {
		m[k] = v
	}
	return m, host, nil
}

// inProcessPasses runs every job through pipeline.RunJob at default
// parallelism, pass after pass, until the budget is spent.
func inProcessPasses(in *inputs, budget time.Duration, t *tally, host *hostRef, lat [][]float64, answers [][]byte) (passes, peaks []float64, err error) {
	start := time.Now()
	for len(passes) < minPasses || more(start, budget, passes) {
		if err := host.sample(); err != nil {
			return nil, nil, err
		}
		p0 := time.Now()
		for i, j := range in.jobs {
			t0 := time.Now()
			jr, err := pipeline.RunJob(context.Background(), j.fn, j.opts)
			lat[i] = append(lat[i], ms(time.Since(t0)))
			if err != nil {
				t.fail("%s: %v", j.label, err)
				continue
			}
			t.check(recordAnswer(j.label, jr, &answers[i]))
		}
		passes = append(passes, time.Since(p0).Seconds())
		peak, err := passPeakRSS()
		if err != nil {
			return nil, nil, err
		}
		peaks = append(peaks, peak)
	}
	return passes, peaks, nil
}

// more reports whether another pass fits the budget: it starts one only
// while half a typical pass still fits, so a run overshoots its budget
// by at most about half a pass.
func more(start time.Time, budget time.Duration, passes []float64) bool {
	half := time.Duration(median(passes) / 2 * float64(time.Second))
	return time.Since(start)+half < budget
}

// servedRounds runs rounds of the request stream, each against a fresh
// service instance, until the budget is spent.
func servedRounds(in *inputs, budget time.Duration, t *tally, host *hostRef, lat [][]float64, answers [][]byte) (rounds, peaks []float64, err error) {
	start := time.Now()
	for len(rounds) < minPasses || more(start, budget, rounds) {
		if err := host.sample(); err != nil {
			return nil, nil, err
		}
		inst := in.first
		in.first = nil
		if inst == nil {
			if inst, err = startInstance(in.dir); err != nil {
				return nil, nil, err
			}
		}
		if err := resetPeakRSS(); err != nil {
			return nil, nil, err
		}
		replies, took := inst.round(in.jobs, in.stream)
		peak, err := peakRSS()
		if err != nil {
			return nil, nil, err
		}
		peaks = append(peaks, peak)
		if err := inst.stop(); err != nil {
			return nil, nil, fmt.Errorf("stop service: %w", err)
		}
		rounds = append(rounds, took.Seconds())
		for _, r := range replies {
			lat[r.job] = append(lat[r.job], ms(r.lat))
			jr, err := decodeReply(r)
			if err != nil {
				t.fail("%s: %v", in.jobs[r.job].label, err)
				continue
			}
			t.check(recordAnswer(in.jobs[r.job].label, jr, &answers[r.job]))
		}
	}
	return rounds, peaks, nil
}

func decodeReply(r reply) (*pipeline.JobResult, error) {
	if r.err != nil {
		return nil, r.err
	}
	if r.code != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", r.code, r.body)
	}
	var env server.SynthResponse
	if err := json.Unmarshal(r.body, &env); err != nil {
		return nil, fmt.Errorf("decode reply: %w", err)
	}
	if env.Status != server.StatusDone || env.Result == nil {
		return nil, fmt.Errorf("status %q: %s", env.Status, env.Error)
	}
	return env.Result, nil
}

// checkAgainstRunJob recomputes every served job in process and counts
// one failed operation per job whose served answer differs.
func checkAgainstRunJob(in *inputs, answers [][]byte, t *tally) error {
	for i, j := range in.jobs {
		jr, err := pipeline.RunJob(context.Background(), j.fn, j.opts)
		if err != nil {
			t.fail("%s: in-process RunJob: %v", j.label, err)
			continue
		}
		want, err := canonical(jr)
		if err != nil {
			return err
		}
		if !bytes.Equal(want, answers[i]) {
			t.fail("%s: served answer differs from in-process RunJob", j.label)
			continue
		}
		t.ok()
	}
	return nil
}

// recordAnswer checks one job result and pins its answer: the first
// result of a job is kept, and every later one must equal it.
func recordAnswer(label string, jr *pipeline.JobResult, pinned *[]byte) error {
	if err := checkResult(jr); err != nil {
		return fmt.Errorf("%s: %w", label, err)
	}
	b, err := canonical(jr)
	if err != nil {
		return err
	}
	if *pinned == nil {
		*pinned = b
		return nil
	}
	if !bytes.Equal(b, *pinned) {
		return fmt.Errorf("%s: answer changed between repeats", label)
	}
	return nil
}

// checkResult is the per-job output check: the pipeline verified the
// circuit, and the error rate lies inside the spec's exact reliability
// envelope.
func checkResult(jr *pipeline.JobResult) error {
	if !jr.Verified {
		return errors.New("result not verified")
	}
	const tol = 1e-12
	if jr.ErrorRate < jr.Bounds.Min-tol || jr.ErrorRate > jr.Bounds.Max+tol {
		return fmt.Errorf("error rate %v outside reliability bounds [%v, %v]",
			jr.ErrorRate, jr.Bounds.Min, jr.Bounds.Max)
	}
	return nil
}

// canonical is a job's answer without its timings.
func canonical(jr *pipeline.JobResult) ([]byte, error) {
	c := *jr
	c.ElapsedMs = 0
	c.Stages = append([]pipeline.JobStage(nil), jr.Stages...)
	for i := range c.Stages {
		c.Stages[i].TookMs = 0
	}
	return json.Marshal(&c)
}

// quality reports the answer itself over the distinct jobs: geometric
// means of the mapped circuit's cost and the mean input-error rate.
// Some small specs synthesize to constants (no gates: area, delay and
// power 0), so the cost means are shifted by one unit.
func quality(answers [][]byte) map[string]metric {
	var area, delay, power, er []float64
	for _, b := range answers {
		var jr pipeline.JobResult
		if b == nil || json.Unmarshal(b, &jr) != nil {
			continue
		}
		area = append(area, jr.Metrics.Area)
		delay = append(delay, jr.Metrics.DelayPs)
		power = append(power, jr.Metrics.Power)
		er = append(er, jr.ErrorRate)
	}
	return map[string]metric{
		"area_geomean":     {shiftedGeomean(area), "area"},
		"delay_geomean_ps": {shiftedGeomean(delay), "ps"},
		"power_geomean":    {shiftedGeomean(power), "power"},
		"error_rate_mean":  {mean(er), "fraction"},
	}
}

// shiftedGeomean is exp(mean(log(x+1)))-1: a geometric mean that stays
// defined when some values are zero.
func shiftedGeomean(xs []float64) float64 {
	shifted := make([]float64, len(xs))
	for i, x := range xs {
		shifted[i] = x + 1
	}
	return geomean(shifted) - 1
}
