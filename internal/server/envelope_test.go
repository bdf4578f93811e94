package server

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"relsyn/internal/cluster"
	"relsyn/internal/pipeline"
)

// served is one HTTP reply as the client saw it.
type served struct {
	code int
	ct   string
	env  []byte
}

func do(t *testing.T, method, url string, body []byte) served {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Error(err)
		return served{}
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Error(err)
		return served{}
	}
	defer resp.Body.Close()
	env, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Error(err)
	}
	return served{resp.StatusCode, resp.Header.Get("Content-Type"), env}
}

// matchesFresh fails t unless got is exactly what cluster.WriteJSON
// writes for respond(js, cached, coalesced) with status code, at the
// moment of the check.
func matchesFresh(t *testing.T, what string, got served, code int, js *jobState, cached, coalesced bool) {
	t.Helper()
	rec := httptest.NewRecorder()
	cluster.WriteJSON(rec, code, respond(js, cached, coalesced))
	if got.code != rec.Code || got.ct != rec.Header().Get("Content-Type") || !bytes.Equal(got.env, rec.Body.Bytes()) {
		t.Errorf("%s: served %d %q\n%s\nfresh encode %d %q\n%s", what, got.code, got.ct, got.env,
			rec.Code, rec.Header().Get("Content-Type"), rec.Body.Bytes())
	}
}

func lookupJob(t *testing.T, s *Server, env []byte) *jobState {
	t.Helper()
	js, ok := s.Lookup(jobIDOf(t, env))
	if !ok {
		t.Fatalf("job of %s not registered", env)
	}
	return js
}

// Every envelope relsynd serves for a /v1/synth job, stored bytes or
// not, is byte for byte a fresh cluster.WriteJSON of respond(...) with
// the reply's flags and status code.
func TestServedEnvelopesMatchFreshEncode(t *testing.T) {
	t.Run("computed", func(t *testing.T) {
		s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, CacheSize: 8})
		body := marshalReq(t, SynthRequest{PLA: specPLA(3), Options: pipeline.JobOptions{Method: "rank", Fraction: 0.5}})
		leader := do(t, http.MethodPost, ts.URL+"/v1/synth", body)
		js := lookupJob(t, s, leader.env)
		matchesFresh(t, "leader", leader, http.StatusOK, js, false, false)
		for k := 1; k <= 2; k++ {
			matchesFresh(t, "digest hit", do(t, http.MethodPost, ts.URL+"/v1/synth", body), http.StatusOK, js, true, false)
			matchesFresh(t, "full-path hit", do(t, http.MethodPost, ts.URL+"/v1/synth", variant(body, k)), http.StatusOK, js, true, false)
			matchesFresh(t, "poll", do(t, http.MethodGet, ts.URL+"/v1/jobs/"+js.id, nil), http.StatusOK, js, false, false)
		}
		async := false
		late := marshalReq(t, SynthRequest{PLA: specPLA(3), Options: pipeline.JobOptions{Method: "rank", Fraction: 0.5}, Wait: &async})
		matchesFresh(t, "no-wait hit", do(t, http.MethodPost, ts.URL+"/v1/synth", late), http.StatusAccepted, js, true, false)
	})

	t.Run("in-flight", func(t *testing.T) {
		bb := &blockingBackend{release: make(chan struct{}), started: make(chan string, 1)}
		s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, CacheSize: 8, Backend: bb.run})
		async := false
		// Job a holds the one worker, so job b stays queued until release.
		a := do(t, http.MethodPost, ts.URL+"/v1/synth", marshalReq(t, SynthRequest{PLA: specPLA(1), Wait: &async}))
		<-bb.started
		ja := lookupJob(t, s, a.env)
		bodyB := marshalReq(t, SynthRequest{PLA: specPLA(2)})
		asyncB := marshalReq(t, SynthRequest{PLA: specPLA(2), Wait: &async})
		b := do(t, http.MethodPost, ts.URL+"/v1/synth", asyncB)
		jb := lookupJob(t, s, b.env)
		matchesFresh(t, "no-wait leader", b, http.StatusAccepted, jb, false, false)
		matchesFresh(t, "poll before done", do(t, http.MethodGet, ts.URL+"/v1/jobs/"+jb.id, nil), http.StatusOK, jb, false, false)
		matchesFresh(t, "no-wait join", do(t, http.MethodPost, ts.URL+"/v1/synth", asyncB), http.StatusAccepted, jb, false, true)

		joined := make(chan served, 1)
		go func() { joined <- do(t, http.MethodPost, ts.URL+"/v1/synth", bodyB) }()
		for deadline := time.Now().Add(10 * time.Second); s.Stats().Coalesced < 2; {
			if time.Now().After(deadline) {
				t.Fatal("the waiting duplicate never joined")
			}
			time.Sleep(time.Millisecond)
		}
		close(bb.release)
		got := <-joined
		waitDone(t, ja)
		matchesFresh(t, "coalesced join", got, http.StatusOK, jb, false, true)
		matchesFresh(t, "poll after done", do(t, http.MethodGet, ts.URL+"/v1/jobs/"+jb.id, nil), http.StatusOK, jb, false, false)
		matchesFresh(t, "no-wait leader's poll", do(t, http.MethodGet, ts.URL+"/v1/jobs/"+ja.id, nil), http.StatusOK, ja, false, false)
		matchesFresh(t, "hit", do(t, http.MethodPost, ts.URL+"/v1/synth", bodyB), http.StatusOK, jb, true, false)
	})

	t.Run("failed", func(t *testing.T) {
		s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, CacheSize: 8})
		body := marshalReq(t, SynthRequest{PLA: specPLA(1), Options: pipeline.JobOptions{
			Method: "lcf", Threshold: 0.55, MaxAIGNodes: 1, Strict: true}})
		got := do(t, http.MethodPost, ts.URL+"/v1/synth", body)
		js := lookupJob(t, s, got.env)
		if status, _, _ := js.snapshot(); status != StatusFailed {
			t.Fatalf("job status %q, want failed", status)
		}
		matchesFresh(t, "failed", got, http.StatusOK, js, false, false)
		matchesFresh(t, "failed poll", do(t, http.MethodGet, ts.URL+"/v1/jobs/"+js.id, nil), http.StatusOK, js, false, false)
	})

	t.Run("racing-hits", func(t *testing.T) {
		// 32 hits race to fill the cached form of a job whose only
		// stored form so far is the leader's.
		s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8, CacheSize: 8})
		body := marshalReq(t, SynthRequest{PLA: specPLA(5), Options: pipeline.JobOptions{Method: "rank", Fraction: 0.5}})
		js := lookupJob(t, s, do(t, http.MethodPost, ts.URL+"/v1/synth", body).env)
		const n = 32
		got := make([]served, n)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i] = do(t, http.MethodPost, ts.URL+"/v1/synth", body)
			}(i)
		}
		wg.Wait()
		for _, g := range got {
			matchesFresh(t, "racing hit", g, http.StatusOK, js, true, false)
		}
	})
}
