package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"relsyn/internal/census"
	"relsyn/internal/fleet"
	"relsyn/internal/obs"
	"relsyn/internal/server"
	"relsyn/internal/store"
)

// instance is one relsynd as cmd/relsynd assembles it with its defaults
// (result cache, fused-census cache, -wal-sync always), behind a
// loopback listener. Each starts empty: a fresh census engine, a fresh
// store directory and a fresh result cache.
type instance struct {
	srv    *server.Server
	st     *store.Store
	hs     *http.Server
	client *http.Client
	url    string
	dir    string
	served chan error
}

func startInstance(base string) (*instance, error) {
	census.SetDefault(census.NewEngine(census.DefaultMaxEntries, census.DefaultMaxBytes))
	census.Default.Instrument(obs.Default)
	dir, err := os.MkdirTemp(base, "store-")
	if err != nil {
		return nil, err
	}
	st, recovered, err := store.Open(store.Options{Dir: dir, Sync: store.SyncAlways, Metrics: obs.Default})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	srv := server.New(server.Config{Store: st})
	srv.Recover(recovered)
	s := &instance{
		srv:    srv,
		st:     st,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
		url:    "http://" + ln.Addr().String(),
		dir:    dir,
		served: make(chan error, 1),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// stop drains the server, closes the listener and the store, and
// removes the store directory.
func (s *instance) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	drainErr := s.srv.Drain(ctx)
	shutErr := s.hs.Shutdown(ctx)
	<-s.served
	s.client.CloseIdleConnections()
	closeErr := s.st.Close()
	os.RemoveAll(s.dir)
	for _, err := range []error{drainErr, shutErr, closeErr} {
		if err != nil {
			return err
		}
	}
	return nil
}

// storeBytes is the durable footprint of the store: WAL plus snapshot.
func (s *instance) storeBytes() int64 {
	var total int64
	for _, name := range []string{"wal.log", "snapshot.json"} {
		if fi, err := os.Stat(filepath.Join(s.dir, name)); err == nil {
			total += fi.Size()
		}
	}
	return total
}

// scrape reads /metrics and /statsz into one flat series.
func (s *instance) scrape() (fleet.Series, error) {
	series, err := s.get("/metrics", func(r io.Reader) (fleet.Series, error) { return fleet.ParsePrometheus(r) })
	if err != nil {
		return nil, err
	}
	st, err := s.get("/statsz", func(r io.Reader) (fleet.Series, error) {
		var v server.Stats
		if err := json.NewDecoder(r).Decode(&v); err != nil {
			return nil, err
		}
		return fleet.Series{
			"statsz.submitted": float64(v.Submitted),
			"statsz.coalesced": float64(v.Coalesced),
			"statsz.failed":    float64(v.Failed),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	series.Merge(st)
	return series, nil
}

func (s *instance) get(path string, parse func(io.Reader) (fleet.Series, error)) (fleet.Series, error) {
	resp, err := s.client.Get(s.url + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return parse(resp.Body)
}

// reply is one client-observed request.
type reply struct {
	job  int
	lat  time.Duration
	code int
	body []byte
	err  error
}

// round sends the stream in a closed loop from one client, which waits
// for each reply before it sends the next request, and returns every
// reply and the round's wall time.
func (s *instance) round(jobs []job, stream []int) ([]reply, time.Duration) {
	out := make([]reply, 0, len(stream))
	start := time.Now()
	for _, j := range stream {
		out = append(out, s.post(j, jobs[j].body))
	}
	return out, time.Since(start)
}

func (s *instance) post(j int, body []byte) reply {
	t0 := time.Now()
	resp, err := s.client.Post(s.url+"/v1/synth", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{job: j, lat: time.Since(t0), err: err}
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return reply{job: j, lat: time.Since(t0), code: resp.StatusCode, body: b, err: err}
}
