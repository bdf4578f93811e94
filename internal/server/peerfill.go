// Peer-to-peer cache fill: in a sharded deployment (Config.Peers), a
// shard that dequeues a cache miss first asks the key's ring owner for
// the finished result via GET /v1/cache/{key} before burning a worker
// on recomputation. Keys land on non-owners whenever the router hedges,
// fails over past a dead owner, or a client bypasses the router — all
// safe for correctness (results are content-addressed) but wasteful
// without this fetch-don't-recompute path.
//
// The fetch is strictly best-effort: one attempt, a short timeout, and
// a per-peer circuit breaker so a dead owner costs consecutive misses
// only until the breaker opens. Any failure falls through to local
// computation — peer fill can only ever save work, never lose a job.
//
// Loop safety: the cache endpoint is read-only and never initiates
// fetches of its own, so shard→owner fetches cannot cascade. The fetch
// still carries cluster.HeaderForwarded (set via the client's Header
// config) as forwarding hygiene, marking it as intra-cluster traffic.
package server

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"time"

	"relsyn/client"
	"relsyn/internal/cluster"
	"relsyn/internal/obs"
	"relsyn/internal/pipeline"
	"relsyn/internal/store"
)

// peerClient is one remote shard reachable for cache fill.
type peerClient struct {
	addr    string
	client  *client.Client
	breaker *store.Breaker
}

// peerFill is the cluster view of one shard: the placement ring plus a
// fetch client per remote peer.
type peerFill struct {
	self    string
	ring    *cluster.Ring
	peers   map[string]*peerClient // remote peers only; self excluded
	timeout time.Duration

	hits   obs.Counter
	misses obs.Counter
}

// newPeerFill wires the cluster config. Returns an error when SelfAddr
// is missing from Peers — every shard must agree on the membership list
// or placement diverges.
func newPeerFill(cfg Config, reg *obs.Registry) (*peerFill, error) {
	ring, err := cluster.NewRing(cfg.Peers, cfg.PeerVNodes)
	if err != nil {
		return nil, err
	}
	self := strings.TrimSpace(cfg.SelfAddr)
	found := false
	for _, p := range ring.Peers() {
		if p == self {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("server: self address %q not in peer list %v", self, ring.Peers())
	}
	pf := &peerFill{
		self:    self,
		ring:    ring,
		peers:   make(map[string]*peerClient, len(ring.Peers())-1),
		timeout: cfg.PeerFillTimeout,
	}
	if pf.timeout <= 0 {
		pf.timeout = time.Second
	}
	reg.SetHelp("relsyn_cluster_peer_fill_hits_total", "Cache misses completed from the ring owner's cache instead of recomputing.")
	reg.SetHelp("relsyn_cluster_peer_fill_misses_total", "Peer cache-fill attempts that fell through to local computation.")
	reg.SetHelp("relsyn_cluster_peer_degraded", "1 while the peer's circuit breaker is open (fills skip it), by peer.")
	reg.RegisterCounter("relsyn_cluster_peer_fill_hits_total", &pf.hits)
	reg.RegisterCounter("relsyn_cluster_peer_fill_misses_total", &pf.misses)
	for _, addr := range ring.Peers() {
		if addr == self {
			continue
		}
		cl, err := client.New(client.Config{
			BaseURL:     cluster.BaseURL(addr),
			HTTPClient:  &http.Client{Timeout: pf.timeout},
			MaxAttempts: 1, // best-effort: the fallback is computing locally
			Metrics:     reg,
			Header:      http.Header{cluster.HeaderForwarded: []string{self}},
		})
		if err != nil {
			return nil, fmt.Errorf("server: peer %s: %w", addr, err)
		}
		pc := &peerClient{
			addr:    addr,
			client:  cl,
			breaker: store.NewBreaker(0, 0),
		}
		reg.GaugeFunc("relsyn_cluster_peer_degraded", func() float64 {
			if pc.breaker.Degraded() {
				return 1
			}
			return 0
		}, obs.L("peer", addr))
		pf.peers[addr] = pc
	}
	return pf, nil
}

// specHashOf splits the spec-content half out of a full cache key
// ("<spec hash>|<options key>"). Ring placement uses the spec hash alone
// so every option-variant of one spec shares an owner (and its cache).
func specHashOf(key string) string {
	if i := strings.IndexByte(key, '|'); i >= 0 {
		return key[:i]
	}
	return key
}

// fetch tries to complete a cache miss from the key's ring owner.
// Returns (nil, false) — after counting a miss — on any failure: owner
// is self, breaker open, timeout, or the owner simply not holding the
// result. Only fetches targeting a remote owner count at all; locally
// owned keys are not peer-fill candidates.
func (pf *peerFill) fetch(ctx context.Context, key string) (*pipeline.JobResult, bool) {
	owner := pf.ring.Owner(specHashOf(key))
	pc := pf.peers[owner]
	if pc == nil {
		return nil, false // self-owned: compute locally, nothing to count
	}
	if !pc.breaker.Allow() {
		pf.misses.Inc()
		return nil, false
	}
	fctx, cancel := context.WithTimeout(ctx, pf.timeout)
	defer cancel()
	res, ok, err := pc.client.FetchCache(fctx, key)
	pc.breaker.Record(err)
	if err != nil || !ok || res == nil {
		pf.misses.Inc()
		return nil, false
	}
	pf.hits.Inc()
	return res, true
}
