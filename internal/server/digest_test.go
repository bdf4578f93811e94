package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"relsyn/internal/cluster"
	"relsyn/internal/pipeline"
)

// tally is the part of the service counters a submission moves:
// relsyn_jobs_submitted_total, the result cache's hits and misses,
// failed jobs and coalesced joins.
type tally struct {
	submitted, hits, misses, failed, coalesced int64
}

func tallyOf(s *Server) tally {
	st := s.Stats()
	return tally{st.Submitted, st.Cache.Hits, st.Cache.Misses, st.Failed, st.Coalesced}
}

func (a tally) minus(b tally) tally {
	return tally{a.submitted - b.submitted, a.hits - b.hits, a.misses - b.misses,
		a.failed - b.failed, a.coalesced - b.coalesced}
}

// sent is one /v1/synth exchange and what it did to the server.
type sent struct {
	code  int
	env   []byte
	delta tally
	// indexed: the body's digest was found in the digest index.
	indexed bool
}

// sendRaw posts body as is and reports the reply and the counter moves.
func sendRaw(t *testing.T, s *Server, base string, body []byte) sent {
	t.Helper()
	before, hitsBefore := tallyOf(s), s.digests.Stats().Hits
	resp, err := http.Post(base+"/v1/synth", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	env, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return sent{
		code:    resp.StatusCode,
		env:     env,
		delta:   tallyOf(s).minus(before),
		indexed: s.digests.Stats().Hits > hitsBefore,
	}
}

// variant returns body with k leading spaces: the same JSON in other
// bytes, so its digest is new and it takes the full path.
func variant(body []byte, k int) []byte {
	return append([]byte(strings.Repeat(" ", k)), body...)
}

func marshalReq(t *testing.T, req SynthRequest) []byte {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// sameReply requires the digest-index answer fast and the full-path
// answer slow to the same request to match byte for byte and to move
// the counters alike.
func sameReply(t *testing.T, fast, slow sent) {
	t.Helper()
	if !fast.indexed || slow.indexed {
		t.Fatalf("paths: repeat indexed=%v, variant indexed=%v", fast.indexed, slow.indexed)
	}
	if fast.code != slow.code || !bytes.Equal(fast.env, slow.env) {
		t.Fatalf("replies differ:\nrepeat  %d %s\nvariant %d %s", fast.code, fast.env, slow.code, slow.env)
	}
	if fast.delta != slow.delta {
		t.Fatalf("counters moved differently: repeat %+v, variant %+v", fast.delta, slow.delta)
	}
}

// withoutJobID drops the job id from an envelope, for comparing two
// replies that each computed their job.
func withoutJobID(t *testing.T, env []byte) SynthResponse {
	t.Helper()
	var r SynthResponse
	if err := json.Unmarshal(env, &r); err != nil {
		t.Fatalf("decode %s: %v", env, err)
	}
	r.JobID = ""
	return r
}

// The digest index answers a byte-identical repeat exactly as the full
// decode/parse/hash path answers the same request in other bytes.
func TestSynthDigestMatchesFullPath(t *testing.T) {
	t.Run("repeats", func(t *testing.T) {
		s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 16, CacheSize: 16})
		body := marshalReq(t, SynthRequest{PLA: specPLA(1), Options: pipeline.JobOptions{Method: "rank", Fraction: 0.5}})
		first := sendRaw(t, s, ts.URL, body)
		if first.code != http.StatusOK || first.indexed || first.delta != (tally{submitted: 1, misses: 1}) {
			t.Fatalf("first: %d %+v indexed=%v %s", first.code, first.delta, first.indexed, first.env)
		}
		for k := 1; k <= 3; k++ {
			fast := sendRaw(t, s, ts.URL, body)
			slow := sendRaw(t, s, ts.URL, variant(body, k))
			sameReply(t, fast, slow)
			if fast.code != http.StatusOK || fast.delta != (tally{submitted: 1, hits: 1}) {
				t.Fatalf("repeat %d: %d %+v %s", k, fast.code, fast.delta, fast.env)
			}
		}
	})

	t.Run("no-wait", func(t *testing.T) {
		s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 16, CacheSize: 16})
		async := false
		body := marshalReq(t, SynthRequest{PLA: specPLA(2), Wait: &async})
		first := sendRaw(t, s, ts.URL, body)
		if first.code != http.StatusAccepted {
			t.Fatalf("first: %d %s", first.code, first.env)
		}
		js, ok := s.Lookup(jobIDOf(t, first.env))
		if !ok {
			t.Fatalf("job of %s not registered", first.env)
		}
		waitDone(t, js)
		fast := sendRaw(t, s, ts.URL, body)
		slow := sendRaw(t, s, ts.URL, variant(body, 1))
		sameReply(t, fast, slow)
		if fast.code != http.StatusAccepted || !bytes.Contains(fast.env, []byte(`"cached": true`)) {
			t.Fatalf("repeat: %d %s", fast.code, fast.env)
		}
	})

	t.Run("evicted", func(t *testing.T) {
		// The batch route fills the cache without indexing, so spec 1's
		// digest stays indexed while its key is evicted.
		s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 16, CacheSize: 2})
		body := marshalReq(t, SynthRequest{PLA: specPLA(1)})
		evict := func() {
			resp, data := postJSON(t, ts.URL+"/v1/synth/batch", BatchRequest{Jobs: []SynthRequest{
				{PLA: specPLA(2)}, {PLA: specPLA(3)},
			}})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("batch: %d %s", resp.StatusCode, data)
			}
		}
		if first := sendRaw(t, s, ts.URL, body); first.code != http.StatusOK {
			t.Fatalf("first: %d %s", first.code, first.env)
		}
		evict()
		fell := sendRaw(t, s, ts.URL, body)
		evict()
		slow := sendRaw(t, s, ts.URL, variant(body, 1))
		if !fell.indexed || slow.indexed {
			t.Fatalf("paths: repeat indexed=%v, variant indexed=%v", fell.indexed, slow.indexed)
		}
		want := tally{submitted: 1, misses: 1}
		if fell.delta != want || slow.delta != want {
			t.Fatalf("an evicted key counts one miss: repeat %+v, variant %+v", fell.delta, slow.delta)
		}
		a, b := withoutJobID(t, fell.env), withoutJobID(t, slow.env)
		if fell.code != slow.code || a.Cached || b.Cached || a.Status != StatusDone || b.Status != StatusDone {
			t.Fatalf("replies differ:\nrepeat  %d %s\nvariant %d %s", fell.code, fell.env, slow.code, slow.env)
		}
		// Recomputing re-cached the key: the next repeat is indexed again.
		again := sendRaw(t, s, ts.URL, body)
		sameReply(t, again, sendRaw(t, s, ts.URL, variant(body, 2)))
	})

	t.Run("in-flight", func(t *testing.T) {
		// An indexed body whose job is still running joins it on the
		// full path, like any other duplicate.
		bb := &blockingBackend{release: make(chan struct{}), started: make(chan string, 1)}
		s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, CacheSize: 8, Backend: bb.run})
		async := false
		body := marshalReq(t, SynthRequest{PLA: specPLA(6), Wait: &async})
		if first := sendRaw(t, s, ts.URL, body); first.code != http.StatusAccepted {
			t.Fatalf("first: %d %s", first.code, first.env)
		}
		<-bb.started
		joined := sendRaw(t, s, ts.URL, body)
		slow := sendRaw(t, s, ts.URL, variant(body, 1))
		close(bb.release)
		want := tally{submitted: 1, misses: 1, coalesced: 1}
		if !joined.indexed || joined.delta != want || slow.delta != want {
			t.Fatalf("an in-flight key joins once: repeat indexed=%v %+v, variant %+v", joined.indexed, joined.delta, slow.delta)
		}
		if joined.code != http.StatusAccepted || !bytes.Equal(joined.env, slow.env) || !bytes.Contains(joined.env, []byte(`"coalesced": true`)) {
			t.Fatalf("replies:\nrepeat  %d %s\nvariant %d %s", joined.code, joined.env, slow.code, slow.env)
		}
	})

	t.Run("draining", func(t *testing.T) {
		s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, CacheSize: 8})
		body := marshalReq(t, SynthRequest{PLA: specPLA(4)})
		if first := sendRaw(t, s, ts.URL, body); first.code != http.StatusOK {
			t.Fatalf("first: %d %s", first.code, first.env)
		}
		if err := s.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= 2; k++ {
			fell := sendRaw(t, s, ts.URL, body)
			slow := sendRaw(t, s, ts.URL, variant(body, k))
			if fell.code != http.StatusServiceUnavailable || !bytes.Equal(fell.env, slow.env) || slow.code != fell.code {
				t.Fatalf("draining replies:\nrepeat  %d %s\nvariant %d %s", fell.code, fell.env, slow.code, slow.env)
			}
			if fell.delta != (tally{}) || slow.delta != (tally{}) {
				t.Fatalf("a draining server counts nothing: repeat %+v, variant %+v", fell.delta, slow.delta)
			}
		}
	})

	t.Run("invalid", func(t *testing.T) {
		s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, CacheSize: 8})
		for name, body := range map[string][]byte{
			"json":          []byte(`{"pla": `),
			"unknown field": []byte(`{"pla": ".i 1\n.o 1\n1 1\n.e\n", "bogus": 1}`),
			"pla":           marshalReq(t, SynthRequest{PLA: ".i 2\n.o 1\n11 2x\n.e\n"}),
			"options":       marshalReq(t, SynthRequest{PLA: specPLA(1), Options: pipeline.JobOptions{Method: "nope"}}),
		} {
			first := sendRaw(t, s, ts.URL, body)
			for k := 0; k < 3; k++ {
				again := sendRaw(t, s, ts.URL, body)
				slow := sendRaw(t, s, ts.URL, variant(body, k+1))
				for _, r := range []sent{first, again, slow} {
					if r.code != http.StatusBadRequest || r.indexed || !bytes.Equal(r.env, first.env) {
						t.Fatalf("%s: %d indexed=%v %s (first %s)", name, r.code, r.indexed, r.env, first.env)
					}
				}
			}
		}
		if n := s.digests.Len(); n != 0 {
			t.Fatalf("invalid bodies indexed: %d entries", n)
		}
		if st := s.Stats(); st.Submitted != 0 || st.Cache.Hits+st.Cache.Misses != 0 {
			t.Fatalf("invalid bodies counted: %+v", st)
		}
	})

	t.Run("failed", func(t *testing.T) {
		s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, CacheSize: 8})
		body := marshalReq(t, SynthRequest{PLA: specPLA(1), Options: pipeline.JobOptions{
			Method: "lcf", Threshold: 0.55, MaxAIGNodes: 1, Strict: true}})
		want := tally{submitted: 1, misses: 1, failed: 1}
		var ids []string
		for k := 0; k < 3; k++ {
			r := sendRaw(t, s, ts.URL, body)
			slow := sendRaw(t, s, ts.URL, variant(body, k+1))
			if r.indexed != (k > 0) || slow.indexed {
				t.Fatalf("attempt %d paths: repeat indexed=%v, variant indexed=%v", k, r.indexed, slow.indexed)
			}
			if r.delta != want || slow.delta != want {
				t.Fatalf("attempt %d: a failed job recomputes: repeat %+v, variant %+v", k, r.delta, slow.delta)
			}
			a, b := withoutJobID(t, r.env), withoutJobID(t, slow.env)
			if r.code != http.StatusOK || slow.code != r.code || a.Status != StatusFailed || a.Error != b.Error || b.Status != a.Status {
				t.Fatalf("attempt %d:\nrepeat  %d %s\nvariant %d %s", k, r.code, r.env, slow.code, slow.env)
			}
			ids = append(ids, jobIDOf(t, r.env))
		}
		if ids[0] == ids[1] || ids[1] == ids[2] {
			t.Fatalf("a repeat of a failed job reused its id: %v", ids)
		}
		if st := s.Stats(); st.Cache.Len != 0 {
			t.Fatalf("failures must not be cached: %+v", st)
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 64, CacheSize: 16})
		body := marshalReq(t, SynthRequest{PLA: specPLA(5), Options: pipeline.JobOptions{Method: "rank", Fraction: 0.5}})
		const n = 32
		wave := func() [][]byte {
			envs := make([][]byte, n)
			var wg sync.WaitGroup
			for i := range envs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					resp, err := http.Post(ts.URL+"/v1/synth", "application/json", bytes.NewReader(body))
					if err != nil {
						t.Error(err)
						return
					}
					defer resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("request %d: HTTP %d", i, resp.StatusCode)
					}
					envs[i], _ = io.ReadAll(resp.Body)
				}(i)
			}
			wg.Wait()
			return envs
		}
		first := wave()
		st := s.Stats()
		if st.Submitted != n || st.Completed != 1 || st.Cache.Hits+st.Coalesced != n-1 || st.Cache.Misses != 1+st.Coalesced {
			t.Fatalf("first wave: %+v", st)
		}
		id := jobIDOf(t, first[0])
		for i, env := range first {
			if got := jobIDOf(t, env); got != id {
				t.Fatalf("request %d joined job %s, not %s", i, got, id)
			}
		}
		second := wave()
		slow := sendRaw(t, s, ts.URL, variant(body, 1))
		for i, env := range second {
			if !bytes.Equal(env, slow.env) {
				t.Fatalf("request %d:\n%s\nvariant:\n%s", i, env, slow.env)
			}
		}
		if got := s.Stats(); got.Cache.Hits-st.Cache.Hits != n+1 || got.Cache.Misses != st.Cache.Misses || got.Submitted != 2*n+1 {
			t.Fatalf("second wave: %+v", got)
		}
	})
}

// jobIDOf returns an envelope's job id.
func jobIDOf(t *testing.T, env []byte) string {
	t.Helper()
	var r SynthResponse
	if err := json.Unmarshal(env, &r); err != nil {
		t.Fatalf("decode %s: %v", env, err)
	}
	return r.JobID
}

// readBody reads a body whatever its declared length, presizing its
// buffer from a true length and capping the presize for a false one.
func TestReadBodyPresize(t *testing.T) {
	body := bytes.Repeat([]byte("x"), 3000)
	for _, c := range []struct {
		name     string
		declared int64
		maxCap   int
	}{
		{"true length", int64(len(body)), len(body) + bytes.MinRead},
		{"unknown length", -1, 1 << 20},
		{"false large length", cluster.MaxBodyBytes, maxPresize + bytes.MinRead},
	} {
		r := httptest.NewRequest(http.MethodPost, "/v1/synth", bytes.NewReader(body))
		r.ContentLength = c.declared
		got, err := readBody(httptest.NewRecorder(), r)
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("%s: read %d bytes, err %v", c.name, len(got), err)
		}
		if cap(got) > c.maxCap {
			t.Fatalf("%s: buffer cap %d, want at most %d", c.name, cap(got), c.maxCap)
		}
	}
}
