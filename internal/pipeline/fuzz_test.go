package pipeline_test

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"testing"

	"relsyn/internal/pipeline"
	"relsyn/internal/tt"
)

// FuzzSynthesize is the pipeline's headline property test: any seeded
// random incompletely specified function driven through assignment,
// synthesis, and verification must (a) never panic, (b) come back
// verified by simulation of the mapped netlist, and (c) yield an
// implementation consistent with the specification's care set. The
// fuzzer varies the function shape, the DC density, and the assignment
// method.
func FuzzSynthesize(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(1), uint8(128), uint8(0))
	f.Add(int64(2), uint8(5), uint8(2), uint8(60), uint8(1))
	f.Add(int64(3), uint8(6), uint8(3), uint8(200), uint8(2))
	f.Add(int64(4), uint8(7), uint8(1), uint8(255), uint8(3))
	f.Add(int64(5), uint8(2), uint8(2), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, mRaw, dcRaw, methodRaw uint8) {
		n := 2 + int(nRaw)%6 // 2..7 inputs: full flow stays fast
		m := 1 + int(mRaw)%3 // 1..3 outputs
		dc := float64(dcRaw) / 255
		rng := rand.New(rand.NewSource(seed))
		spec := tt.New(n, m)
		for o := 0; o < m; o++ {
			for mm := 0; mm < spec.Size(); mm++ {
				if rng.Float64() < dc {
					spec.SetPhase(o, mm, tt.DC)
				} else if rng.Intn(2) == 0 {
					spec.SetPhase(o, mm, tt.On)
				}
			}
		}
		jo := []pipeline.JobOptions{
			{Method: "none"},
			{Method: "rank", Fraction: 0.5},
			{Method: "lcf", Threshold: 0.55},
			{Method: "complete"},
		}[methodRaw%4]
		jo.Objective = "delay"
		res, err := pipeline.Run(context.Background(), spec, jo, pipeline.Hooks{})
		if err != nil {
			t.Fatalf("pipeline failed on seed=%d n=%d m=%d dc=%.2f method=%d: %v",
				seed, n, m, dc, methodRaw%4, err)
		}
		if !res.Verified {
			t.Fatalf("result not verified (method %q)", res.VerifyMethod)
		}
		checkConsistent(t, spec, res)
	})
}

// FuzzJobOptions checks the invariant every cache key rests on, on
// arbitrary JSON request bodies: Normalize is idempotent and Key does
// not move under it, and any options Validate accepts run on a small
// spec to a result or a typed *StageError, never a panic. The spec runs
// in well under a minute, so a cancellation is only a valid outcome
// under a shorter timeout.
func FuzzJobOptions(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"method": "rank", "fraction": 0.5}`,
		`{"method": " LCF ", "threshold": 0.55, "fraction": 0.9, "assign_ties": true}`,
		`{"method": "complete", "assign_ties": true, "objective": "Delay", "flow": "resyn"}`,
		`{"method": "none", "objective": "power", "strict": true, "skip_verify": true}`,
		`{"method": "lcf", "threshold": 0.5, "max_aig_nodes": 1, "strict": true}`,
		`{"timeout_ms": 1, "max_conflicts": 3, "parallelism": 4}`,
		`{"timeout_ms": 9223372036854}`,
		`{"timeout_ms": 9223372036855}`,
		`{"method": "rank", "fraction": 1.5}`,
	} {
		f.Add([]byte(seed))
	}
	spec := tt.New(2, 1)
	spec.SetPhase(0, 1, tt.On)
	spec.SetPhase(0, 2, tt.DC)
	spec.SetPhase(0, 3, tt.On)
	f.Fuzz(func(t *testing.T, body []byte) {
		var o pipeline.JobOptions
		if json.Unmarshal(body, &o) != nil {
			return
		}
		n := o.Normalize()
		if nn := n.Normalize(); nn != n {
			t.Fatalf("Normalize not idempotent: %+v then %+v", n, nn)
		}
		if o.Key() != n.Key() {
			t.Fatalf("Key moved under Normalize: %+v vs %+v", o, n)
		}
		if n.Validate() != nil {
			return
		}
		jr, err := pipeline.RunJob(context.Background(), spec, o)
		var se *pipeline.StageError
		switch {
		case err == nil:
			if !n.SkipVerify && !jr.Verified {
				t.Fatalf("%+v: result not verified", n)
			}
		case !errors.As(err, &se):
			t.Fatalf("%+v: want a result or a *StageError, got %v", n, err)
		case se.Reason == pipeline.ReasonCancel && (n.TimeoutMs == 0 || n.TimeoutMs >= 60_000):
			t.Fatalf("%+v: cancelled without a short deadline: %v", n, err)
		}
	})
}
