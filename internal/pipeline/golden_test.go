package pipeline

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"relsyn/internal/benchmarks"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/suite_answers.golden")

const suiteGoldenPath = "testdata/suite_answers.golden"

// goldenJobs are the four assignment settings of the Table 1 experiment
// the suite answers are pinned for, plus LC^f 0.55 under the delay
// objective and through the resyn flow, so every synthesis path the job
// options can select is pinned too.
var goldenJobs = []struct {
	label string
	opts  JobOptions
}{
	{"none", JobOptions{Method: "none"}},
	{"rank0.5", JobOptions{Method: "rank", Fraction: 0.5}},
	{"lcf0.55", JobOptions{Method: "lcf", Threshold: 0.55}},
	{"complete", JobOptions{Method: "complete"}},
	{"delay-lcf0.55", JobOptions{Method: "lcf", Threshold: 0.55, Objective: "delay"}},
	{"resyn-lcf0.55", JobOptions{Method: "lcf", Threshold: 0.55, Flow: "resyn"}},
}

// goldenLine renders the answer of one job. Counts are exact; the
// floating-point figures are printed at %.9g because fused multiply-add
// makes their last bits platform-dependent.
func goldenLine(bench, label string, r *JobResult) string {
	assigned := 0
	if r.Assign != nil {
		assigned = r.Assign.Assigned
	}
	m := r.Metrics
	return fmt.Sprintf("%s %s assigned=%d gates=%d literals=%d aig_nodes=%d aig_depth=%d area=%.9g delay_ps=%.9g power=%.9g error_rate=%.9g",
		bench, label, assigned, m.Gates, m.Literals, m.AIGNodes, m.AIGDepth,
		m.Area, m.DelayPs, m.Power, r.ErrorRate)
}

// TestSuiteAnswersGolden pins the answer of every Table 1 stand-in under
// none / rank 0.5 / lcf 0.55 / complete assignment and under lcf 0.55
// with the delay objective and the resyn flow, so a change to the
// synthesis engines that claims identical answers has to prove it.
// Regenerate with: go test ./internal/pipeline -run TestSuiteAnswersGolden -update
func TestSuiteAnswersGolden(t *testing.T) {
	want := map[string]string{}
	if !*updateGolden {
		fh, err := os.Open(suiteGoldenPath)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(fh)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) >= 2 {
				want[fields[0]+" "+fields[1]] = sc.Text()
			}
		}
		fh.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	for _, s := range benchmarks.Specs() {
		if testing.Short() && !*updateGolden && (s.Name == "random1" || s.Name == "random2") {
			continue // the two slowest stand-ins
		}
		f, err := benchmarks.Load(s.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range goldenJobs {
			res, err := RunJob(context.Background(), f, j.opts)
			if err != nil {
				t.Fatalf("%s %s: %v", s.Name, j.label, err)
			}
			if !res.Verified || res.Degraded {
				t.Fatalf("%s %s: verified=%v degraded=%v", s.Name, j.label, res.Verified, res.Degraded)
			}
			line := goldenLine(s.Name, j.label, res)
			got = append(got, line)
			if *updateGolden {
				continue
			}
			if w, ok := want[s.Name+" "+j.label]; !ok {
				t.Errorf("%s %s: no golden answer", s.Name, j.label)
			} else if w != line {
				t.Errorf("answer moved:\n got  %s\n want %s", line, w)
			}
		}
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(suiteGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(suiteGoldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
