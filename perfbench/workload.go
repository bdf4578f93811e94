package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"

	"relsyn/internal/benchmarks"
	"relsyn/internal/fleet"
	"relsyn/internal/pipeline"
	"relsyn/internal/pla"
	"relsyn/internal/server"
	"relsyn/internal/tt"
)

// settings are the three assignment settings every spec is crossed
// with: conventional (no reliability-driven assignment), the paper's
// ranking at half the ranked DCs, and its LC^f threshold.
var settings = []pipeline.JobOptions{
	{Method: pipeline.JobMethodNone},
	{Method: pipeline.JobMethodRank, Fraction: 0.5},
	{Method: pipeline.JobMethodLCF, Threshold: 0.55},
}

// serviceRound is the number of requests one service-mix round sends.
// With 48 specs x 3 settings = 144
// distinct keys, each missed exactly once per round, 6% of requests are
// misses: p50 falls inside the cache-hit mode and p99 inside the miss
// mode, never on the boundary between them.
const serviceRound = 2400

// servicePool is the number of specs in the service-mix pool. The
// misses carry most of a round's time, so the pool is large enough that
// their cost averages over many seeded specs.
const servicePool = 48

// job is one distinct synthesis job: a spec crossed with one setting.
type job struct {
	label string // human-readable, e.g. "ex1010/rank"
	fn    *tt.Function
	opts  pipeline.JobOptions
	body  []byte // POST /v1/synth request body
}

// inputs is everything a run needs before its first timed job.
type inputs struct {
	jobs []job
	// served selects the timed path: requests through relsynd's handler
	// on a loopback listener instead of in-process RunJob calls.
	served bool
	// stream is one round's request sequence, as indices into jobs.
	stream []int
	// dir holds the durable stores of the service instances.
	dir string
	// first is the service instance started during set-up (service-mix
	// only); the first round uses it.
	first *instance
}

func (in *inputs) close() {
	if in.first != nil {
		_ = in.first.stop()
		in.first = nil
	}
	if in.dir != "" {
		os.RemoveAll(in.dir)
	}
}

// workloads maps each workload name to its set-up. NOTES.md gives the
// reason for each.
var workloads = map[string]func(seed int64) (*inputs, error){
	"paper-suite": setupPaperSuite,
	"service-mix": setupServiceMix,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// setupPaperSuite loads the ten Table-1 stand-ins that finish in under a
// second per job (random1 and random2 take 3-20 s each, almost all in
// verify) and crosses them with the three settings. The seed only orders
// the jobs: the stand-ins themselves are fixed.
func setupPaperSuite(seed int64) (*inputs, error) {
	var fns []*tt.Function
	for _, s := range benchmarks.Specs() {
		if s.Name == "random1" || s.Name == "random2" {
			continue
		}
		f, err := benchmarks.Load(s.Name)
		if err != nil {
			return nil, err
		}
		fns = append(fns, f)
	}
	return newInputs(seed, fns, false)
}

// setupServiceMix builds the seeded fleet pool of small specs, crosses
// it with the three settings, and starts the first service instance.
func setupServiceMix(seed int64) (*inputs, error) {
	pool, err := fleet.BuildPool(fleet.PoolParams{Inputs: 8, Outputs: 2, Size: servicePool, Seed: seed})
	if err != nil {
		return nil, err
	}
	var fns []*tt.Function
	for _, s := range pool.Specs {
		file, err := pla.Parse(strings.NewReader(s.PLA))
		if err != nil {
			return nil, err
		}
		f, err := file.ToFunction()
		if err != nil {
			return nil, err
		}
		fns = append(fns, f)
	}
	in, err := newInputs(seed, fns, true)
	if err != nil {
		return nil, err
	}
	if in.first, err = startInstance(in.dir); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

// newInputs crosses fns with the settings into jobs in a seeded order
// and builds the request stream. A served workload's round is
// serviceRound requests; otherwise a round (used only by the traced
// run) is twice as many requests as jobs: every job once, its miss,
// and as many Zipf-drawn repeats, hits.
func newInputs(seed int64, fns []*tt.Function, served bool) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{served: served}
	for _, f := range fns {
		var sb strings.Builder
		if err := pla.FromFunction(f, nil, nil).Write(&sb); err != nil {
			return nil, fmt.Errorf("serialize %s: %w", f.Name, err)
		}
		for _, o := range settings {
			body, err := json.Marshal(server.SynthRequest{PLA: sb.String(), Options: o})
			if err != nil {
				return nil, err
			}
			in.jobs = append(in.jobs, job{
				label: fmt.Sprintf("%s/%s", f.Name, o.Method),
				fn:    f,
				opts:  o,
				body:  body,
			})
		}
	}
	rng.Shuffle(len(in.jobs), func(i, j int) { in.jobs[i], in.jobs[j] = in.jobs[j], in.jobs[i] })
	keys := make([]int, len(in.jobs))
	for i := range keys {
		keys[i] = i
	}
	total := 2 * len(keys)
	if served {
		total = serviceRound
	}
	in.stream = stream(rng, keys, total)
	// run.sh points TMPDIR into the checkout's build directory.
	dir, err := os.MkdirTemp("", "perfbench-run-")
	if err != nil {
		return nil, err
	}
	in.dir = dir
	return in, nil
}

// stream returns total requests over keys: every key once (its miss)
// plus Zipf-skewed repeats (hits), shuffled. The Zipf offset of 10
// keeps the head from dominating: the hottest key draws about 4% of the
// hits and the coldest about 0.2%, so every key is hit about five times
// or more a round and hit latency averages over many specs instead of following
// whichever spec the seed makes hottest.
func stream(rng *rand.Rand, keys []int, total int) []int {
	out := append([]int(nil), keys...)
	hot := append([]int(nil), keys...)
	rng.Shuffle(len(hot), func(i, j int) { hot[i], hot[j] = hot[j], hot[i] })
	z := rand.NewZipf(rng, 1.1, 10, uint64(len(hot)-1))
	for len(out) < total {
		out = append(out, hot[z.Uint64()])
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
