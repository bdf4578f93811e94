package main

import (
	"crypto/sha256"
	"math/rand"
	"sort"
	"time"
)

// The host is shared, and its speed drifts by a fifth and more over
// minutes. The drift moves every timing of a run together: six
// service-mix runs, one after another on six seeds, spread 0.18 in
// pass_s, and a fixed computation timed between their rounds spread
// 0.17. In a 150-s loop alternating that computation with a fixed set
// of RunJob calls, their medians over ten alternations correlated at
// 0.96, and dividing one by the other cut the RunJob medians'
// coefficient of variation from 0.087 to 0.026.
//
// So a timed run also times the computation (the host reference)
// before every pass and once after the last, and reports each timing
// scaled to a host on which the reference takes refNominalMs:
//
//	reported = measured * refNominalMs / median(reference times)
//
// relsyn's code never runs in the reference, so a change to relsyn
// moves a scaled timing by the same share as the raw one; the host's
// speed cancels out.

// refNominalMs is about the reference's median time on the 2-vCPU host
// where the benchmark was built (44-50 ms), so scaled timings read
// close to wall time there.
const refNominalMs = 45.0

// refLoops is how many timed runs of the computation one reference
// sample makes, after one untimed warm-up run that takes the fresh
// process's page faults.
const refLoops = 8

// referenceTimes runs the reference computation once to warm up and
// then refLoops times, and returns the time of each timed run in ms.
// The computation mixes what the pipeline's time goes to: sorting
// (cache-bound compute), hashing (pure arithmetic), and allocating into
// a map (allocator, GC and memory).
func referenceTimes() []float64 {
	var times []float64
	for i := 0; i <= refLoops; i++ {
		t0 := time.Now()
		rng := rand.New(rand.NewSource(1))
		xs := make([]int, 200_000)
		for i := range xs {
			xs[i] = rng.Int()
		}
		sort.Ints(xs)
		buf := make([]byte, 2<<20)
		rng.Read(buf)
		sum := sha256.Sum256(buf)
		m := map[int]*[4]int{}
		for i := 0; i < 100_000; i++ {
			m[rng.Intn(50_000)] = &[4]int{i, xs[i], int(sum[i%len(sum)])}
		}
		if len(m) == 0 {
			panic("reference map is empty")
		}
		if i > 0 {
			times = append(times, ms(time.Since(t0)))
		}
	}
	return times
}

// hostRef collects reference times over one run. Each sample runs in a
// child process, so the reference's allocations never reach the
// measured process's heap, its GC pacing or its peak RSS.
type hostRef struct{ ms []float64 }

func (h *hostRef) sample() error {
	v, err := childValues("--reference")
	if err != nil {
		return err
	}
	h.ms = append(h.ms, v...)
	return nil
}

// median is the median reference time over every timed run of the
// computation in every sample.
func (h *hostRef) median() float64 { return median(h.ms) }

// scale is the factor that takes a timing of this run to the nominal
// host.
func (h *hostRef) scale() float64 { return refNominalMs / h.median() }
