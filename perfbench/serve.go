package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lacc/internal/cluster"
	"lacc/internal/experiments"
	"lacc/internal/server"
	"lacc/internal/sim"
	"lacc/internal/store"
	"lacc/internal/workloads"
)

// The serve workload: two lacc-serve nodes on loopback in a static
// two-node cluster. Node A has a durable store; node B is its peer with a
// store of its own. Closed-loop clients post to A a seeded mix of four
// request classes, named by the tier that answers them:
//
//	warm (7 in 10) the result is in A's session memory
//	disk (1 in 10) the result is only in A's store
//	peer (1 in 10) the result is only in B's store
//	cold (1 in 10) a seed never seen: A builds the corpus, simulates,
//	               stores the result and replicates it to B
//
// Every request runs the reduced machine (16 cores, 4x4 mesh, scale
// 0.1). Disk and peer keys are consumed: once answered, A remembers them,
// so each is asked once and set-up files enough of them for the run.
//
// Each client's stream is cut into rounds of roundLen requests.
// A round holds every cold request shape once, so rounds are equal work
// up to their seeds; the host-time metrics are medians over the rounds,
// which a pause or a burst of neighbour load moves less than window
// totals do.
const (
	serveCores = 16
	serveWidth = 4
	serveScale = 0.1
)

// Request classes.
const (
	classWarm = "warm"
	classDisk = "disk"
	classPeer = "peer"
	classCold = "cold"
)

var serveClasses = []string{classWarm, classDisk, classPeer, classCold}

// roundLen is the number of requests in a round: as many blocks of ten
// as there are cold request shapes, one of each kind (run, protocols,
// pct-sweep) on each cold benchmark.
var roundLen = 10 * 3 * len(coldBenches)

// minRounds is the number of rounds every client completes, however
// short the window. The peak resident set is read when the last client
// completes them, so it counts the same cold configurations on a fast
// host as on a slow one.
const minRounds = 3

// Benchmarks per role. Warm keys use fixed benchmarks, so the simulated
// ratios the warm protocol comparisons carry depend on the seed only
// through the traces. Disk and peer keys use short traces, cheap to file
// at set-up. Cold keys use traces that fit one corpus arena block but
// simulate slowly: each cold seed's corpus stays resident (the corpus
// cache is unbounded), so the run's cold count sets its memory growth.
var (
	warmRunBenches   = []string{"streamcluster", "radix", "canneal", "susan"}
	warmSweepBenches = []string{"streamcluster", "lu-nc"}
	warmProtoBenches = []string{"radix", "canneal", "streamcluster", "lu-nc"}
	poolBenches      = []string{"tsp", "lu-nc", "streamcluster", "barnes", "dedup", "patricia", "dijkstra-ap", "fluidanimate"}
	coldBenches      = []string{"canneal", "raytrace", "dfs", "concomp", "radix", "blackscholes"}
)

// maxPCT is the largest PCT override the server accepts. Disk and peer
// keys are (benchmark, protocol, PCT) triples over poolKinds.
const maxPCT = 128

var poolKinds = []sim.ProtocolKind{sim.ProtocolAdaptive, sim.ProtocolMESI}

// serveReq is one request the clients can send.
type serveReq struct {
	class string
	path  string
	body  []byte
	// claims is the number of session claims (distinct simulations) the
	// request resolves.
	claims uint64
	// want is the canonical body a direct experiments call returns; nil
	// for cold requests until a sample is checked after the run.
	want []byte
	// direct reproduces the request through the experiments layer.
	direct func(sess *experiments.Session) (any, error)
}

// serveOptions is the request machine as direct-call options.
func serveOptions(seed uint64, benches []string) experiments.Options {
	return experiments.Options{Cores: serveCores, MeshWidth: serveWidth, Scale: serveScale,
		Seed: seed, Benchmarks: benches, Parallelism: 1}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain request structs always marshal
	}
	return b
}

// runRequest builds a /v1/run request with optional protocol and PCT
// overrides.
func runRequest(class, bench string, seed uint64, protocol sim.ProtocolKind, pct int) *serveReq {
	q := server.Request{Workload: bench, Cores: serveCores, MeshWidth: serveWidth, Scale: serveScale, Seed: seed}
	if protocol != "" || pct != 0 {
		q.Config = &server.ConfigOverrides{Protocol: string(protocol), PCT: pct}
	}
	return &serveReq{class: class, path: "/v1/run", body: mustJSON(q), claims: 1,
		direct: func(sess *experiments.Session) (any, error) {
			o := serveOptions(seed, nil)
			o.Session = sess
			cfg := o.BaseConfig()
			if protocol != "" {
				cfg.ProtocolKind = protocol
			}
			if pct != 0 { // the server's PCT override rule
				cfg.Protocol.PCT = pct
				cfg.Protocol.RATMax = max(cfg.Protocol.RATMax, pct)
			}
			return experiments.Baseline(o, bench, cfg)
		}}
}

// sweepRequest builds a PCT-sweep or protocol-comparison request for one
// benchmark.
func sweepRequest(class, endpoint, bench string, seed uint64) *serveReq {
	q := server.Request{Cores: serveCores, MeshWidth: serveWidth, Scale: serveScale, Seed: seed, Benchmarks: []string{bench}}
	claims := len(experiments.Fig8PCTs) // the default sweep
	if endpoint == "protocols" {
		claims = len(sim.ProtocolKinds())
	}
	return &serveReq{class: class, path: "/v1/experiments/" + endpoint, body: mustJSON(q), claims: uint64(claims),
		direct: func(sess *experiments.Session) (any, error) {
			o := serveOptions(seed, []string{bench})
			o.Session = sess
			if endpoint == "protocols" {
				return experiments.ProtocolComparison(o, nil)
			}
			return experiments.RunPCTSweep(o, nil)
		}}
}

// resolveDirect runs r's direct call on a fresh session and records the
// expected body and the claims it made.
func (r *serveReq) resolveDirect() (any, error) {
	sess := experiments.NewSession()
	v, err := r.direct(sess)
	if err != nil {
		return nil, err
	}
	if r.want, err = server.EncodeCanonical(v); err != nil {
		return nil, err
	}
	r.claims = sess.Stats().Misses
	return v, nil
}

// poolPerClient is how many disk and peer keys set-up files per client:
// the rounds every window runs, plus about 1.6 times what a window
// of the run's length consumes on a 2-vCPU host (16 per client-second),
// within the key space.
func poolPerClient(cfg config) int {
	return min(len(poolBenches)*len(poolKinds)*maxPCT/(2*cfg.workers), minRounds*roundLen/10+int(25*cfg.seconds.Seconds()))
}

// serveRig is one set-up: the nodes, the key sets, and what they cost.
type serveRig struct {
	dir        string
	a, b       *node
	warm       [][]*serveReq // per client
	warmVals   []any         // direct results of every warm key, in key order
	disk, peer [][]*serveReq // per client, consumed in order
	recoveryMs float64
}

func (rig *serveRig) close() error {
	var err error
	for _, n := range []*node{rig.a, rig.b} {
		if n != nil {
			err = errors.Join(err, n.close())
		}
	}
	return errors.Join(err, os.RemoveAll(rig.dir))
}

// serveKeys draws the run's warm, disk and peer requests from its seed,
// one list per client.
func serveKeys(cfg config) (warm, disk, peer [][]*serveReq, err error) {
	workers := cfg.workers
	rng := rand.New(rand.NewPCG(cfg.seed, 0x5e7e))
	// Warm keys: each client gets its own, so two clients never post
	// byte-identical bodies at once (the server would coalesce them and
	// the tier accounting would not add up).
	warm = make([][]*serveReq, workers)
	kinds := sim.ProtocolKinds()
	for c := 0; c < workers; c++ {
		for i, bench := range warmRunBenches {
			if i%workers == c {
				warm[c] = append(warm[c], runRequest(classWarm, bench, cfg.seed, kinds[rng.IntN(len(kinds))], 0))
			}
		}
		for i, bench := range warmSweepBenches {
			if i%workers == c {
				warm[c] = append(warm[c], sweepRequest(classWarm, "pct-sweep", bench, cfg.seed))
			}
		}
		for i, bench := range warmProtoBenches {
			if i%workers == c {
				warm[c] = append(warm[c], sweepRequest(classWarm, "protocols", bench, cfg.seed))
			}
		}
	}
	// Disk and peer keys: distinct (benchmark, protocol, PCT) triples
	// over one trace seed, dealt out in a seeded order.
	poolSeed := cfg.seed + 1
	var triples [][3]int
	for b := range poolBenches {
		for k := range poolKinds {
			for pct := 1; pct <= maxPCT; pct++ {
				triples = append(triples, [3]int{b, k, pct})
			}
		}
	}
	rng.Shuffle(len(triples), func(i, j int) { triples[i], triples[j] = triples[j], triples[i] })
	perClient := poolPerClient(cfg)
	if need := 2 * workers * perClient; need > len(triples) {
		return nil, nil, nil, fmt.Errorf("serve: %d disk and peer keys needed, %d available", need, len(triples))
	}
	deal := func(class string) [][]*serveReq {
		out := make([][]*serveReq, workers)
		for c := range out {
			for i := 0; i < perClient; i++ {
				p := triples[0]
				triples = triples[1:]
				out[c] = append(out[c], runRequest(class, poolBenches[p[0]], poolSeed, poolKinds[p[1]], p[2]))
			}
		}
		return out
	}
	return warm, deal(classDisk), deal(classPeer), nil
}

// setupServe builds a serve rig from nothing: fresh corpora, stores
// populated with the disk and peer keys, the recovery scan of A's store,
// both nodes, and A warmed with the warm keys.
func setupServe(cfg config, tr *tracer) (_ *serveRig, took time.Duration, err error) {
	workloads.FlushCorpora()
	runtime.GC() // free the previous set-up's corpora before timing this one
	t0 := time.Now()
	sid := tr.begin("setup", "serve", 0, 0)
	defer tr.end(sid)
	rig := &serveRig{}
	defer func() {
		if err != nil {
			rig.close()
		}
	}()
	if rig.dir, err = os.MkdirTemp(cfg.outDir, "serve-"); err != nil {
		return nil, 0, err
	}
	workers := cfg.workers
	if rig.warm, rig.disk, rig.peer, err = serveKeys(cfg); err != nil {
		return nil, 0, err
	}

	// Populate: the disk keys into A's store only, the peer keys into
	// B's only, through sessions over each store, recording the bodies a
	// direct call returns.
	dirA, dirB := filepath.Join(rig.dir, "a"), filepath.Join(rig.dir, "b")
	id := tr.begin("setup.populate", "", sid, 0)
	for _, p := range []struct {
		dir  string
		keys [][]*serveReq
	}{{dirA, rig.disk}, {dirB, rig.peer}} {
		if err := populate(p.dir, p.keys, workers); err != nil {
			return nil, 0, err
		}
	}
	for _, keys := range rig.warm {
		for _, r := range keys {
			v, err := r.resolveDirect()
			if err != nil {
				return nil, 0, err
			}
			rig.warmVals = append(rig.warmVals, v)
		}
	}
	tr.end(id)
	if err := checkWarmJob(cfg, tr, sid, rig.warmVals); err != nil {
		return nil, 0, err
	}

	id = tr.begin("store.recovery", "a", sid, 0)
	rt := time.Now()
	stA, err := store.Open(store.Options{Dir: dirA})
	rig.recoveryMs = float64(time.Since(rt).Nanoseconds()) / 1e6
	tr.end(id)
	if err != nil {
		return nil, 0, err
	}
	stB, err := store.Open(store.Options{Dir: dirB})
	if err != nil {
		stA.Close()
		return nil, 0, err
	}
	if err := rig.startNodes(stA, stB, workers); err != nil {
		return nil, 0, err
	}

	// Warm A: each warm key simulates once, then lives in A's memory.
	id = tr.begin("setup.prewarm", "", sid, 0)
	client := newClient(workers)
	defer client.CloseIdleConnections()
	for _, keys := range rig.warm {
		for _, r := range keys {
			status, body, err := post(client, rig.a.addr, r.path, r.body)
			if err != nil || status != http.StatusOK || !bytes.Equal(body, r.want) {
				return nil, 0, fmt.Errorf("serve: warming %s: status %d, err %v, body equal %t", r.body, status, err, bytes.Equal(body, r.want))
			}
		}
	}
	rig.a.cluster.FlushReplication()
	tr.end(id)
	return rig, time.Since(t0), nil
}

// checkWarmJob runs the adaptive job of the first warm protocol
// comparison on a fresh simulator with the value checker on; its result
// must equal the one the comparison returned.
func checkWarmJob(cfg config, tr *tracer, parent int, vals []any) error {
	for _, v := range vals {
		r, ok := v.(*experiments.ProtocolComparisonResult)
		if !ok {
			continue
		}
		bench := r.Benches[0]
		c := serveOptions(cfg.seed, r.Benches).BaseConfig()
		c.ProtocolKind = sim.ProtocolAdaptive
		j := simJob{bench: bench, spec: workloads.Spec{Cores: serveCores, Scale: serveScale, Seed: cfg.seed}, cfg: c}
		id := tr.begin("sim.checked_run", j.label(), parent, 0)
		res, err := checkedJob(j)
		tr.end(id)
		if err != nil {
			return err
		}
		if same, err := sameResult(res, r.Results[bench][sim.ProtocolAdaptive]); err != nil || !same {
			return fmt.Errorf("serve: value-checked fresh run of %s differs from the served comparison (err %v)", j.label(), err)
		}
		return nil
	}
	return errors.New("serve: no warm protocol comparison to check")
}

// populate files keys into a store at dir through a session over it,
// running workers simulations at a time, and records each key's body.
func populate(dir string, keys [][]*serveReq, workers int) error {
	st, err := store.Open(store.Options{Dir: dir, NoSync: true})
	if err != nil {
		return err
	}
	sess := experiments.NewSessionWithStore(st, nil)
	queue := make(chan *serveReq, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := range queue {
				if errs[w] != nil {
					continue
				}
				v, err := r.direct(sess)
				if err == nil {
					r.want, err = server.EncodeCanonical(v)
				}
				errs[w] = err
			}
		}(w)
	}
	for _, ks := range keys {
		for _, r := range ks {
			queue <- r
		}
	}
	close(queue)
	wg.Wait()
	err = errors.Join(errs...)
	if s := st.Stats(); err == nil && s.PutErrors > 0 {
		err = fmt.Errorf("populating %s: %d store put errors", dir, s.PutErrors)
	}
	if serr := st.Sync(); err == nil {
		err = serr
	}
	return errors.Join(err, st.Close())
}

// startNodes starts A and B as a two-node cluster over their stores.
func (rig *serveRig) startNodes(stA, stB *store.Store, workers int) error {
	lnA, err := listen()
	if err != nil {
		return errors.Join(err, stA.Close(), stB.Close())
	}
	lnB, err := listen()
	if err != nil {
		lnA.Close()
		return errors.Join(err, stA.Close(), stB.Close())
	}
	peers := []string{lnA.Addr().String(), lnB.Addr().String()}
	cA, errA := cluster.New(cluster.Config{Self: peers[0], Peers: peers})
	cB, errB := cluster.New(cluster.Config{Self: peers[1], Peers: peers})
	if err := errors.Join(errA, errB); err != nil {
		lnA.Close()
		lnB.Close()
		return errors.Join(err, stA.Close(), stB.Close())
	}
	// One simulation per execution: with one execution per client, no
	// more simulations run at once than the host has cores.
	rig.a = startNode(lnA, server.Config{Store: stA, Cluster: cA, Parallelism: 1, MaxInFlight: workers})
	rig.b = startNode(lnB, server.Config{Store: stB, Cluster: cB, Parallelism: 1, MaxInFlight: workers})
	return nil
}

// sample is one completed request. Bodies are checked as they arrive
// and dropped, so the clients hold no more memory than the server sends
// them at once; only the cold bodies checked after the window are kept.
type sample struct {
	req   *serveReq
	ms    float64
	ok    bool   // answered 200
	wrong bool   // the body differs from the direct call's
	acc   uint64 // simulated accesses in a cold response
	body  []byte // a cold body to check against a direct call later
}

// coldRequest returns a client's i-th cold request: runs under each
// protocol, protocol comparisons and PCT sweeps, in turn, over the cold
// benchmarks, all on seed.
func coldRequest(i int, seed uint64) *serveReq {
	bench := coldBenches[(i/3)%len(coldBenches)]
	switch i % 3 {
	case 0:
		kinds := sim.ProtocolKinds()
		return runRequest(classCold, bench, seed, kinds[(i/3)%len(kinds)], 0)
	case 1:
		return sweepRequest(classCold, "protocols", bench, seed)
	default:
		return sweepRequest(classCold, "pct-sweep", bench, seed)
	}
}

// classBlock returns the next ten request classes: seven warm and one
// each of disk, peer and cold, in a seeded order. Dealing classes in
// blocks holds the mix at 7:1:1:1 in every run, not only on average.
func classBlock(rng *rand.Rand) []string {
	b := []string{classWarm, classWarm, classWarm, classWarm, classWarm, classWarm, classWarm, classDisk, classPeer, classCold}
	rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	return b
}

// simulatedAccesses sums the L1-D accesses of every result in a run,
// protocol-comparison or PCT-sweep body.
func simulatedAccesses(body []byte) (uint64, error) {
	var b struct {
		DataAccesses uint64
		Results      map[string]map[string]struct{ DataAccesses uint64 }
	}
	if err := json.Unmarshal(body, &b); err != nil {
		return 0, err
	}
	n := b.DataAccesses
	for _, m := range b.Results {
		for _, r := range m {
			n += r.DataAccesses
		}
	}
	return n, nil
}

// coldSeed returns the seed of client c's n-th cold request: disjoint
// from every other seed the run uses.
func coldSeed(seed uint64, c, n int) uint64 {
	return 1<<40 + seed<<20 + uint64(c)<<16 + uint64(n)
}

// round is one client's completed round.
type round struct {
	rps     float64 // requests per second
	coldAcc uint64  // simulated accesses in its cold responses
	coldMs  float64 // summed latency of its cold requests
}

// windowResult is what a window measured.
type windowResult struct {
	samples [][]sample // per client
	rounds  []round    // completed rounds, but each client's first
	wall    time.Duration
	// rssMB is the peak resident set when the last client completed
	// minRounds rounds; 0 if one never did.
	rssMB     float64
	exhausted bool // a client ran out of disk or peer keys
}

// window runs the closed-loop clients against A for cfg.seconds, and
// until each has completed minRounds rounds. A client's first round warms
// up, and a round the window cuts short is not recorded.
func (rig *serveRig) window(cfg config, tr *tracer) windowResult {
	workers := len(rig.warm)
	var w windowResult
	w.samples = make([][]sample, workers)
	client := newClient(workers)
	defer client.CloseIdleConnections()
	var mu sync.Mutex
	var reached atomic.Int32
	var flipped atomic.Bool
	flipped.Store(!cfg.corrupt)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(cfg.seed, uint64(c)+1))
			disk, peer := rig.disk[c], rig.peer[c]
			warm := rig.warm[c]
			warmOrder := rng.Perm(len(warm))
			var block []string
			var warmN, coldN int
			var cur round
			roundStart := time.Now()
			for n := 0; time.Since(t0) < cfg.seconds || n < minRounds*roundLen; n++ {
				if len(block) == 0 {
					block = classBlock(rng)
				}
				class := block[0]
				block = block[1:]
				var r *serveReq
				switch {
				case class == classWarm:
					r = warm[warmOrder[warmN%len(warm)]]
					warmN++
				case class == classDisk && len(disk) > 0:
					r, disk = disk[0], disk[1:]
				case class == classPeer && len(peer) > 0:
					r, peer = peer[0], peer[1:]
				case class == classCold:
					r = coldRequest(coldN+c, coldSeed(cfg.seed, c, coldN))
					coldN++
				default:
					mu.Lock()
					w.exhausted = true
					mu.Unlock()
					return
				}
				id := tr.begin("http.request", r.class, 0, int64(c)<<32|int64(n+1))
				start := time.Now()
				status, body, err := post(client, rig.a.addr, r.path, r.body)
				s := sample{req: r, ms: float64(time.Since(start).Nanoseconds()) / 1e6}
				tr.end(id)
				s.ok = err == nil && status == http.StatusOK
				if s.ok && r.want != nil && flipped.CompareAndSwap(false, true) {
					body[len(body)/2] ^= 1
				}
				switch {
				case !s.ok:
				case r.want != nil:
					s.wrong = !bytes.Equal(body, r.want)
				default: // cold
					s.acc, err = simulatedAccesses(body)
					s.wrong = err != nil
					cur.coldAcc += s.acc
					cur.coldMs += s.ms
					if coldN%8 == 1 {
						s.body = body
					}
				}
				w.samples[c] = append(w.samples[c], s)
				if (n+1)%roundLen == 0 {
					cur.rps = float64(roundLen) / time.Since(roundStart).Seconds()
					if n+1 > roundLen { // the first round warms up
						mu.Lock()
						w.rounds = append(w.rounds, cur)
						mu.Unlock()
					}
					if n+1 == minRounds*roundLen && int(reached.Add(1)) == workers {
						w.rssMB = peakRSSMB()
					}
					cur, roundStart = round{}, time.Now()
				}
			}
		}(c)
	}
	wg.Wait()
	w.wall = time.Since(t0)
	return w
}

// serveFigures is what the window measured.
type serveFigures struct {
	lat       map[string][]float64
	all       []float64
	claims    map[string]uint64
	completed int
}

// check tallies the samples, failing wrong and refused answers, and
// checks the kept cold bodies against direct calls made now.
func check(out *outcome, samples [][]sample) (serveFigures, error) {
	f := serveFigures{lat: map[string][]float64{}, claims: map[string]uint64{}}
	for _, ss := range samples {
		for _, s := range ss {
			out.attempted++
			r := s.req
			f.claims[r.class] += r.claims
			if s.body != nil && !s.wrong {
				v, err := r.direct(experiments.NewSession())
				if err != nil {
					return f, err
				}
				want, err := server.EncodeCanonical(v)
				if err != nil {
					return f, err
				}
				s.wrong = !bytes.Equal(s.body, want)
			}
			switch {
			case !s.ok:
				out.failed++
				out.fail("%s request %s failed", r.class, r.body)
				continue
			case s.wrong:
				out.failed++
				out.fail("%s request %s: served body differs from the direct call", r.class, r.body)
				continue
			}
			f.lat[r.class] = append(f.lat[r.class], s.ms)
			f.all = append(f.all, s.ms)
			f.completed++
		}
	}
	return f, nil
}

// checkTiers requires the session counters to account for every class:
// each tier answered exactly the claims of the class named after it.
func checkTiers(out *outcome, f serveFigures, before, after server.Stats) {
	d := func(a, b uint64) uint64 { return a - b }
	for _, c := range []struct {
		class string
		got   uint64
	}{
		{classWarm, d(after.Session.Hits, before.Session.Hits)},
		{classDisk, d(after.Session.DiskHits, before.Session.DiskHits)},
		{classPeer, d(after.Session.PeerHits, before.Session.PeerHits)},
		{classCold, d(after.Session.Simulated, before.Session.Simulated)},
	} {
		if c.got != f.claims[c.class] {
			out.fail("tier accounting: %s requests made %d claims, the tier counted %d", c.class, f.claims[c.class], c.got)
		}
	}
	if n := d(after.CoalescedRequests, before.CoalescedRequests); n != 0 {
		out.fail("tier accounting: %d requests coalesced", n)
	}
}

// protocolRatios is the geomean over the warm protocol comparisons of
// adaptive's completion time and energy relative to MESI.
func protocolRatios(vals []any) (cycles, energy float64) {
	var cs, es []float64
	for _, v := range vals {
		if r, ok := v.(*experiments.ProtocolComparisonResult); ok {
			cs = append(cs, r.Completion[sim.ProtocolAdaptive])
			es = append(es, r.Energy[sim.ProtocolAdaptive])
		}
	}
	return geomean(cs), geomean(es)
}

// runServe runs the serve workload.
func runServe(cfg config, tr *tracer) (*outcome, error) {
	out := &outcome{vals: values{}}
	v := out.vals
	rig, took, err := setupServe(cfg, tr)
	if err != nil {
		return nil, err
	}
	defer rig.close()

	client := newClient(1)
	defer client.CloseIdleConnections()
	before, err := serverStats(client, rig.a.addr)
	if err != nil {
		return nil, err
	}
	w := rig.window(cfg, tr)
	rig.a.cluster.FlushReplication()
	after, err := serverStats(client, rig.a.addr)
	if err != nil {
		return nil, err
	}
	f, err := check(out, w.samples)
	if err != nil {
		return nil, err
	}
	checkTiers(out, f, before, after)
	if w.exhausted {
		out.note("a client ran out of disk or peer keys before the window closed")
	}
	out.lat, out.served, out.wall = f.lat, f.completed, w.wall
	if tr == nil {
		if w.rssMB == 0 {
			return nil, fmt.Errorf("serve: a client did not complete %d rounds of %d requests", minRounds, roundLen)
		}
		// Every client is busy throughout, so the serve rate is the
		// client count times one client's median round rate.
		rps := make([]float64, len(w.rounds))
		maccess := make([]float64, len(w.rounds))
		for i, r := range w.rounds {
			rps[i] = float64(len(rig.warm)) * r.rps
			maccess[i] = float64(r.coldAcc) / (r.coldMs / 1e3) / 1e6
		}
		v["setup_s"] = took.Seconds()
		v["peak_rss_mb"] = w.rssMB
		v["ops_per_s"] = median(rps)
		v["op_p50_ms"] = median(f.all)
		v["sim_maccess_per_s"] = median(maccess)
		v["sim_cycles_ratio"], v["sim_energy_ratio"] = protocolRatios(rig.warmVals)
		out.samples = map[string][]float64{"ops_per_s": rps, "sim_maccess_per_s": maccess, "op_p50_ms": f.all}
		out.note("rounds=%d of %d requests", len(w.rounds), roundLen)
		return out, nil
	}
	return out, traceServe(cfg, tr, out, rig, f, before, after)
}

// serveNotes reports the request rate and each class's latency: count,
// median and the highest of p90/p99/p99.9 with at least ten samples
// beyond it.
func serveNotes(out *outcome) {
	out.note("serve_rps = %.6g 1/s over %.3f s (%d requests)", float64(out.served)/out.wall.Seconds(), out.wall.Seconds(), out.served)
	for _, class := range serveClasses {
		lat := out.lat[class]
		line := fmt.Sprintf("%s: n=%d p50=%.4g ms", class, len(lat), median(lat))
		if q, x, ok := tailQuantile(lat, 0.9, 0.99, 0.999); ok {
			line += fmt.Sprintf(" p%g=%.4g ms", 100*q, x)
		}
		out.note("%s", line)
	}
}

// traceServe adds the per-layer metrics of a traced serve run.
func traceServe(cfg config, tr *tracer, out *outcome, rig *serveRig, f serveFigures, before, after server.Stats) error {
	v := out.vals
	putServer(v, before, after)
	ct := totals(after.Cluster)
	cb := totals(before.Cluster)
	peerTotals{ct.hits - cb.hits, ct.errors - cb.errors, ct.breakerOpens - cb.breakerOpens, ct.replicated - cb.replicated}.put(v)
	v["store.recovery_ms"] = rig.recoveryMs

	// Corpus builds at the cold requests' shape, on seeds no request uses.
	var jobs []simJob
	for i, b := range coldBenches {
		jobs = append(jobs, simJob{bench: b, spec: workloads.Spec{Cores: serveCores, Scale: serveScale, Seed: coldSeed(cfg.seed, 255, i)}})
	}
	acc, took, heap, err := buildCorpora(tr, 0, jobs)
	if err != nil {
		return err
	}
	putCorpus(v, acc, took, heap)

	// The simulations behind the warm protocol comparisons, replayed.
	jobs = jobs[:0]
	var want []*sim.Result
	for _, val := range rig.warmVals {
		r, ok := val.(*experiments.ProtocolComparisonResult)
		if !ok {
			continue
		}
		base := serveOptions(cfg.seed, r.Benches).BaseConfig()
		for _, k := range r.Protocols {
			c := base
			c.ProtocolKind = k
			jobs = append(jobs, simJob{bench: r.Benches[0], spec: workloads.Spec{Cores: serveCores, Scale: serveScale, Seed: cfg.seed}, cfg: c})
			want = append(want, r.Results[r.Benches[0]][k])
		}
	}
	rcfg := cfg
	rcfg.seconds = min(cfg.seconds/4, 3*time.Second)
	ledger, overhead, err := replayFor(rcfg, tr, out, jobs, func(recs []jobRecord) error {
		for i, rec := range recs {
			if same, err := sameResult(rec.res, want[i]); err != nil || !same {
				return fmt.Errorf("replayed %s differs from the served comparison", rec.job.label())
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	v["trace.overhead_frac"] = overhead
	sub := probeSubstrate(tr, cfg.seed, serveWidth)
	sub.put(v)
	ledger.put(v, sub)
	if err := putSimProbes(v, tr, jobs[0]); err != nil {
		return err
	}

	// Encoding the warm responses, and what the warm path costs beyond it.
	var encNs, kb float64
	var perReq []float64
	for _, val := range rig.warmVals {
		ns, size, err := encodeProbe(val)
		if err != nil {
			return err
		}
		encNs += ns
		kb += float64(size) / 1024
		perReq = append(perReq, ns)
	}
	v["encode.ns_per_kb"] = encNs / kb
	v["encode.response_kb"] = kb / float64(len(rig.warmVals))
	warmP50 := median(f.lat[classWarm])
	v["http.warm_p50_ms"] = warmP50
	v["http.warm_residual_us"] = warmP50*1e3 - median(perReq)/1e3

	// Direct store and cluster calls on the disk and peer keys' bodies.
	var diskItems, peerItems []kv
	for c := range rig.disk {
		for i := 0; i < min(32, len(rig.disk[c])); i++ {
			diskItems = append(diskItems, kv{key: benchKey(rig.disk[c][i].body), val: rig.disk[c][i].want})
			peerItems = append(peerItems, kv{key: benchKey(rig.peer[c][i].body), val: rig.peer[c][i].want})
		}
	}
	dir, err := os.MkdirTemp(cfg.outDir, "serve-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	putUs, getUs, _, st, err := storeProbe(tr, dir, diskItems)
	if err != nil {
		out.fail("%v", err)
	}
	v["store.put_us"] = putUs
	v["store.get_us"] = getUs
	var aPut, aRead uint64
	if after.Store != nil && before.Store != nil {
		aPut = after.Store.PutErrors - before.Store.PutErrors
		aRead = after.Store.ReadErrors - before.Store.ReadErrors
	}
	v["store.put_errors"] = float64(st.PutErrors + aPut)
	v["store.read_errors"] = float64(st.ReadErrors + aRead)
	fetchUs, _, err := clusterProbe(tr, rig.a.addr, rig.b, peerItems)
	if err != nil {
		out.fail("%v", err)
	}
	v["cluster.fetch_us"] = fetchUs
	return nil
}
