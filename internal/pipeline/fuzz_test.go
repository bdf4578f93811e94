package pipeline_test

import (
	"context"
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
		opt := pipeline.Options{}
		switch methodRaw % 4 {
		case 0:
			opt.Assign.Method = pipeline.MethodNone
		case 1:
			opt.Assign = pipeline.AssignSpec{
				Method: pipeline.MethodRanking, Fraction: 0.5}
		case 2:
			opt.Assign = pipeline.AssignSpec{
				Method: pipeline.MethodLCF, Threshold: 0.55}
		case 3:
			opt.Assign.Method = pipeline.MethodComplete
		}
		res, err := pipeline.Run(context.Background(), spec, opt)
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
