package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"lacc/internal/cluster"
	"lacc/internal/server"
	"lacc/internal/store"
)

// node is one in-process lacc-serve instance listening on loopback.
type node struct {
	addr    string
	srv     *server.Server
	hs      *http.Server
	store   *store.Store
	cluster *cluster.Cluster
	served  chan error
}

// listen reserves a loopback port; a node's address must be known before
// its cluster client is built.
func listen() (net.Listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	return ln, nil
}

// startNode serves cfg on ln. The node owns cfg.Store and cfg.Cluster and
// closes them in close.
func startNode(ln net.Listener, cfg server.Config) *node {
	n := &node{
		addr:    ln.Addr().String(),
		srv:     server.New(cfg),
		store:   cfg.Store,
		cluster: cfg.Cluster,
		served:  make(chan error, 1),
	}
	n.hs = &http.Server{Handler: n.srv, ReadHeaderTimeout: 10 * time.Second}
	go func() { n.served <- n.hs.Serve(ln) }()
	return n
}

// close stops the listener, waits for in-flight requests and the serving
// goroutine, then closes the node's cluster client and store.
func (n *node) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	n.srv.Drain()
	err := n.hs.Shutdown(ctx)
	if serr := <-n.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if n.cluster != nil {
		n.cluster.Close()
	}
	if n.store != nil {
		if cerr := n.store.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// newClient returns an HTTP client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// post sends body to addr+path and returns the status and response body.
func post(c *http.Client, addr, path string, body []byte) (int, []byte, error) {
	resp, err := c.Post("http://"+addr+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// serverStats reads a node's /v1/stats.
func serverStats(c *http.Client, addr string) (server.Stats, error) {
	var st server.Stats
	resp, err := c.Get("http://" + addr + "/v1/stats")
	if err != nil {
		return st, fmt.Errorf("stats: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("stats: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("stats: %w", err)
	}
	return st, nil
}

// benchKey is the benchmark's own content address for a value it files
// in the direct store and cluster probes: SHA-256 of the request it
// answers.
func benchKey(request []byte) store.Key {
	return store.Key(sha256.Sum256(request))
}

// encodeProbe times server.EncodeCanonical of v and returns nanoseconds
// per encode (median of rounds) and the encoded size in bytes.
func encodeProbe(v any) (ns float64, size int, err error) {
	const rounds = 9
	times := make([]float64, 0, rounds)
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		b, err := server.EncodeCanonical(v)
		times = append(times, float64(time.Since(t0).Nanoseconds()))
		if err != nil {
			return 0, 0, err
		}
		size = len(b)
	}
	return median(times), size, nil
}

// kv is one value filed under a benchmark key.
type kv struct {
	key store.Key
	val []byte
}

// storeProbe times durable Put and Get of items in a fresh store under
// dir, then times the recovery scan of reopening it. Every Get must
// return the bytes put.
func storeProbe(tr *tracer, dir string, items []kv) (putUs, getUs, recoveryMs float64, st store.Stats, err error) {
	s, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		return 0, 0, 0, st, fmt.Errorf("store probe: %w", err)
	}
	var puts, gets []float64
	for _, it := range items {
		id := tr.begin("store.put", "probe", 0, 0)
		t0 := time.Now()
		perr := s.Put(it.key, it.val)
		puts = append(puts, float64(time.Since(t0).Nanoseconds())/1e3)
		tr.end(id)
		if perr != nil {
			err = errors.Join(err, perr)
		}
	}
	for _, it := range items {
		id := tr.begin("store.get", "probe", 0, 0)
		t0 := time.Now()
		got, ok := s.Get(it.key)
		gets = append(gets, float64(time.Since(t0).Nanoseconds())/1e3)
		tr.end(id)
		if !ok || !bytes.Equal(got, it.val) {
			err = errors.Join(err, errors.New("store probe: a value read back differs from the value put"))
		}
	}
	st = s.Stats()
	if cerr := s.Close(); cerr != nil {
		return 0, 0, 0, st, fmt.Errorf("store probe close: %w", cerr)
	}
	id := tr.begin("store.recovery", "probe", 0, 0)
	t0 := time.Now()
	s, oerr := store.Open(store.Options{Dir: dir})
	recoveryMs = float64(time.Since(t0).Nanoseconds()) / 1e6
	tr.end(id)
	if oerr != nil {
		return 0, 0, 0, st, fmt.Errorf("store probe reopen: %w", oerr)
	}
	if n := s.Stats().Entries; n != len(items) {
		err = errors.Join(err, fmt.Errorf("store probe: recovered %d entries, want %d", n, len(items)))
	}
	if cerr := s.Close(); cerr != nil {
		return 0, 0, 0, st, fmt.Errorf("store probe close: %w", cerr)
	}
	return median(puts), median(gets), recoveryMs, st, err
}

// clusterProbe files items in the peer's store and times a cluster
// client on self fetching each back over the peer protocol.
func clusterProbe(tr *tracer, self string, peer *node, items []kv) (fetchUs float64, st cluster.Stats, err error) {
	for _, it := range items {
		if perr := peer.store.Put(it.key, it.val); perr != nil {
			return 0, st, fmt.Errorf("cluster probe: filing on the peer: %w", perr)
		}
	}
	c, err := cluster.New(cluster.Config{Self: self, Peers: []string{self, peer.addr}})
	if err != nil {
		return 0, st, fmt.Errorf("cluster probe: %w", err)
	}
	defer c.Close()
	var fetches []float64
	for _, it := range items {
		id := tr.begin("cluster.fetch", "probe", 0, 0)
		t0 := time.Now()
		got, ok := c.Fetch(it.key)
		fetches = append(fetches, float64(time.Since(t0).Nanoseconds())/1e3)
		tr.end(id)
		if !ok || !bytes.Equal(got, it.val) {
			err = errors.Join(err, errors.New("cluster probe: a fetched value differs from the value filed"))
		}
	}
	return median(fetches), c.Stats(), err
}

// peerTotals sums a cluster snapshot's per-peer counters.
type peerTotals struct {
	hits, errors, breakerOpens, replicated uint64
}

func totals(st *cluster.Stats) peerTotals {
	var t peerTotals
	if st == nil {
		return t
	}
	for _, p := range st.Peers {
		t.hits += p.Hits
		t.errors += p.Errors + p.Corrupt + p.ReplicationErrors
		t.breakerOpens += p.BreakerOpens
		t.replicated += p.Replicated
	}
	return t
}

// putCluster stores cluster counters into v.
func (t peerTotals) put(v values) {
	v["cluster.hits"] = float64(t.hits)
	v["cluster.errors"] = float64(t.errors)
	v["cluster.breaker_opens"] = float64(t.breakerOpens)
	v["cluster.replicated"] = float64(t.replicated)
}

// putServer stores the server and session counter deltas between two
// /v1/stats snapshots into v.
func putServer(v values, before, after server.Stats) {
	v["server.requests"] = float64(after.Requests - before.Requests)
	v["server.coalesced"] = float64(after.CoalescedRequests - before.CoalescedRequests)
	v["server.rejected"] = float64(after.Rejected - before.Rejected)
	v["server.errors"] = float64(after.Errors - before.Errors)
	v["session.hits"] = float64(after.Session.Hits - before.Session.Hits)
	v["session.disk_hits"] = float64(after.Session.DiskHits - before.Session.DiskHits)
	v["session.peer_hits"] = float64(after.Session.PeerHits - before.Session.PeerHits)
	v["session.simulated"] = float64(after.Session.Simulated - before.Session.Simulated)
}
