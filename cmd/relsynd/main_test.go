package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// lockedBuffer lets the test poll output written by the daemon
// goroutine without racing.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// startDaemon runs the daemon on an ephemeral port and returns its base
// URL, signal channel, and a channel carrying the exit code.
func startDaemon(t *testing.T, args []string, out, errOut io.Writer) (string, chan os.Signal, chan int) {
	t.Helper()
	lb, ok := out.(*lockedBuffer)
	if !ok {
		t.Fatal("startDaemon needs a *lockedBuffer stdout")
	}
	sig := make(chan os.Signal, 2)
	code := make(chan int, 1)
	go func() { code <- run(append([]string{"-addr", "127.0.0.1:0"}, args...), out, errOut, sig) }()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if m := listenRE.FindStringSubmatch(lb.String()); m != nil {
			return "http://" + m[1], sig, code
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("daemon never announced its address; output: %q", lb.String())
	return "", nil, nil
}

func waitExit(t *testing.T, code chan int) int {
	t.Helper()
	select {
	case c := <-code:
		return c
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit")
		return -1
	}
}

const daemonPLA = `.i 3
.o 1
.p 4
000 1
011 1
101 1
11- -
.e
`

func TestDaemonServesAndDrainsOnSIGTERM(t *testing.T) {
	out, errOut := &lockedBuffer{}, &lockedBuffer{}
	base, sig, code := startDaemon(t, []string{"-workers", "2", "-drain-timeout", "20s"}, out, errOut)

	body, _ := json.Marshal(map[string]any{
		"pla":     daemonPLA,
		"options": map[string]any{"method": "rank", "fraction": 1.0},
	})
	resp, err := http.Post(base+"/v1/synth", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("synth status %d: %s", resp.StatusCode, raw)
	}
	var envelope struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(raw, &envelope); err != nil || envelope.Status != "done" {
		t.Fatalf("envelope %s (err %v)", raw, err)
	}

	// Queue a couple of slow-ish jobs asynchronously, then immediately
	// signal: the drain must finish them before exiting.
	for i := 0; i < 2; i++ {
		b, _ := json.Marshal(map[string]any{
			"pla":     strings.Replace(daemonPLA, "000 1", fmt.Sprintf("0%d0 1", i), 1),
			"options": map[string]any{"method": "complete"},
			"wait":    false,
		})
		r, err := http.Post(base+"/v1/synth", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatalf("async post: %v", err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusAccepted {
			t.Fatalf("async status %d", r.StatusCode)
		}
	}

	sig <- syscall.SIGTERM
	if c := waitExit(t, code); c != 0 {
		t.Fatalf("exit code %d; stderr: %s", c, errOut.String())
	}
	s := out.String()
	if !strings.Contains(s, "draining") || !strings.Contains(s, "drained cleanly") {
		t.Fatalf("missing drain messages in output: %q", s)
	}
}

func TestDaemonHealthzAndStatsz(t *testing.T) {
	out, errOut := &lockedBuffer{}, &lockedBuffer{}
	base, sig, code := startDaemon(t, nil, out, errOut)

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	resp, err = http.Get(base + "/statsz")
	if err != nil {
		t.Fatalf("statsz: %v", err)
	}
	var stats struct {
		Workers  int  `json:"workers"`
		Draining bool `json:"draining"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatalf("decode statsz: %v", err)
	}
	resp.Body.Close()
	if stats.Workers < 1 || stats.Draining {
		t.Fatalf("stats %+v", stats)
	}

	sig <- syscall.SIGTERM
	if c := waitExit(t, code); c != 0 {
		t.Fatalf("exit %d; stderr: %s", c, errOut.String())
	}
}

func TestDaemonFlagErrors(t *testing.T) {
	var out, errOut lockedBuffer
	if c := run([]string{"-no-such-flag"}, &out, &errOut, make(chan os.Signal)); c != 2 {
		t.Fatalf("bad flag exit %d", c)
	}
	if c := run([]string{"stray"}, &out, &errOut, make(chan os.Signal)); c != 2 {
		t.Fatalf("stray arg exit %d", c)
	}
	if c := run([]string{"-h"}, &out, &errOut, make(chan os.Signal)); c != 0 {
		t.Fatalf("-h exit %d", c)
	}
	if c := run([]string{"-addr", "256.0.0.1:999999"}, &out, &errOut, make(chan os.Signal)); c != 1 {
		t.Fatalf("bad listen exit %d", c)
	}
}

func TestDaemonBudgetDefaultsApplied(t *testing.T) {
	out, errOut := &lockedBuffer{}, &lockedBuffer{}
	// A 1-node AIG cap cannot fit any real spec: strict jobs must fail
	// with a budget error, proving the server-wide default reached the
	// pipeline. A 1-conflict SAT cap does the same for resyn jobs above
	// the dense ceiling.
	base, sig, code := startDaemon(t,
		[]string{"-max-aig-nodes", "1", "-max-conflicts", "1"}, out, errOut)

	body, _ := json.Marshal(map[string]any{
		"pla":     daemonPLA,
		"options": map[string]any{"method": "rank", "strict": true},
	})
	resp, err := http.Post(base+"/v1/synth", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	var envelope struct {
		Status string `json:"status"`
		Error  string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	if envelope.Status != "failed" || !strings.Contains(envelope.Error, "budget") {
		t.Fatalf("want strict budget failure, got %+v", envelope)
	}

	big, err := os.ReadFile("../../internal/network/testdata/big120.blif")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = json.Marshal(map[string]any{"blif": string(big)})
	resp, err = http.Post(base+"/v1/resyn", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	envelope.Status, envelope.Error = "", ""
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	if envelope.Status != "failed" || !strings.Contains(envelope.Error, "budget") {
		t.Fatalf("want resyn budget failure, got %+v", envelope)
	}

	sig <- syscall.SIGTERM
	if c := waitExit(t, code); c != 0 {
		t.Fatalf("exit %d; stderr: %s", c, errOut.String())
	}
}

var pprofRE = regexp.MustCompile(`pprof on (\S+)`)

// -pprof-addr serves net/http/pprof on its own listener, and the main
// mux exposes Prometheus metrics on /metrics.
func TestDaemonPprofAndMetrics(t *testing.T) {
	out, errOut := &lockedBuffer{}, &lockedBuffer{}
	base, sig, code := startDaemon(t, []string{"-pprof-addr", "127.0.0.1:0"}, out, errOut)

	m := pprofRE.FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("daemon never announced the pprof address; output: %q", out.String())
	}
	resp, err := http.Get("http://" + m[1] + "/debug/pprof/")
	if err != nil {
		t.Fatalf("pprof index: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status %d", resp.StatusCode)
	}
	// pprof stays off the service mux.
	resp, err = http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatalf("service pprof probe: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("pprof endpoints leaked onto the service mux")
	}

	// Run one job so the counters move, then scrape.
	body, _ := json.Marshal(map[string]any{"pla": daemonPLA})
	if r, err := http.Post(base+"/v1/synth", "application/json", bytes.NewReader(body)); err != nil {
		t.Fatalf("post: %v", err)
	} else {
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
	}
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	for _, want := range []string{
		"relsyn_queue_depth",
		"relsyn_jobs_submitted_total 1",
		"relsyn_stage_duration_seconds",
		"relsyn_http_requests_total",
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	sig <- syscall.SIGTERM
	if c := waitExit(t, code); c != 0 {
		t.Fatalf("exit %d; stderr: %s", c, errOut.String())
	}
}
