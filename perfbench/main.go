// Command perfbench is the end-to-end and per-layer benchmark of the
// relsyn synthesis stack. It runs one named workload for a fixed time,
// checks every output, and prints one JSON object as its last line.
// From the root of the repository:
//
//	bash perfbench/run.sh --workload paper-suite --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of a timed run; with
// --trace 1 it runs the separate traced run instead and reports the
// per-layer ledger. NOTES.md explains the workloads, the metrics, the
// measured spread and the known exclusions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupChildren is how many extra cold set-ups a timed run samples in
// fresh child processes (benchmarks.Load memoizes, so a repeat inside
// one process would be warm), half before the measured passes and half
// after them, so the samples span the run's host-speed drift. setup_s
// is the median of these and the run's own set-up.
const setupChildren = 10

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts attempted and failed operations and keeps the first few
// failure messages for standard error.
type tally struct {
	attempted, failed int
	msgs              []string
}

func (t *tally) ok() { t.attempted++ }
func (t *tally) fail(format string, args ...any) {
	t.attempted++
	t.failed++
	if len(t.msgs) < 20 {
		t.msgs = append(t.msgs, fmt.Sprintf(format, args...))
	}
}

// check records one operation that passes when err is nil.
func (t *tally) check(err error) {
	if err != nil {
		t.fail("%v", err)
		return
	}
	t.ok()
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 30, "measurement time per run, seconds")
	trace := fs.Int("trace", 0, "0: timed run with end-to-end metrics; 1: traced run with per-layer metrics")
	setupOnly := fs.Bool("setup-only", false, "perform the set-up once and print its duration in seconds (used for repeated cold set-up samples)")
	reference := fs.Bool("reference", false, "time the host reference computation and print each timed run in ms (used for host-speed samples)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *reference {
		for _, v := range referenceTimes() {
			fmt.Println(strconv.FormatFloat(v, 'g', -1, 64))
		}
		return 0
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	setup, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *setupOnly {
		start := time.Now()
		in, err := setup(*seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: setup: %v\n", err)
			return 1
		}
		elapsed := time.Since(start).Seconds()
		in.close()
		fmt.Println(strconv.FormatFloat(elapsed, 'g', -1, 64))
		return 0
	}

	var setups []float64
	if *trace == 0 {
		var err error
		if setups, err = childSetups(*name, *seed, setupChildren/2); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	start := time.Now()
	in, err := setup(*seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: setup: %v\n", err)
		return 1
	}
	defer in.close()
	setups = append(setups, time.Since(start).Seconds())

	budget := time.Duration(*seconds) * time.Second
	t := &tally{}
	var m map[string]metric
	if *trace == 1 {
		m, err = traced(in, budget, t)
	} else {
		var host *hostRef
		if m, host, err = timed(in, budget, t); err == nil {
			var after []float64
			after, err = childSetups(*name, *seed, setupChildren-setupChildren/2)
			m["setup_s"] = metric{median(append(setups, after...)) * host.scale(), "s"}
			fmt.Fprintf(os.Stderr, "perfbench: host reference %.3f ms (median of %d timed runs); timings scaled by %.4f to the nominal %g ms\n",
				host.median(), len(host.ms), host.scale(), refNominalMs)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, msg := range t.msgs {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", msg)
	}
	out, err := json.Marshal(result{
		Correct:   t.failed == 0 && t.attempted > 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   m,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// childSetups runs count cold set-ups in child processes, one after
// another, and returns their durations in seconds.
func childSetups(name string, seed int64, count int) ([]float64, error) {
	var out []float64
	for i := 0; i < count; i++ {
		v, err := childValues("--setup-only", "--workload", name, "--seed", strconv.FormatInt(seed, 10))
		if err != nil {
			return nil, err
		}
		out = append(out, v...)
	}
	return out, nil
}

// childValues runs this executable with args, waits for it to exit,
// and returns the numbers it printed, one a line.
func childValues(args ...string) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate executable: %w", err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("child %v: %w", args, err)
	}
	var out []float64
	for _, line := range strings.Fields(string(b)) {
		v, err := strconv.ParseFloat(line, 64)
		if err != nil {
			return nil, fmt.Errorf("child %v printed %q: %w", args, b, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("child %v printed no number", args)
	}
	return out, nil
}

func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
