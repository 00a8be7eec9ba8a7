package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"lacc/internal/experiments"
	"lacc/internal/server"
	"lacc/internal/sim"
	"lacc/internal/store"
	"lacc/internal/workloads"
)

// batchSpec is a batch workload: repeated protocol-comparison passes on
// one machine, each over a fresh experiments.Session.
type batchSpec struct {
	name    string
	cores   int
	width   int
	scale   float64
	benches []string
	kinds   []sim.ProtocolKind // nil: every registered protocol
}

// paper64Spec is the paper's Table 1 machine: L1-hit-dominated lu-nc,
// dijkstra-ap, susan and water-sp beside streamcluster and the
// write-shared radix, under all six protocols.
func paper64Spec(tiny bool) batchSpec {
	b := batchSpec{name: "paper64", cores: 64, width: 8, scale: 1,
		benches: []string{"lu-nc", "dijkstra-ap", "susan", "water-sp", "streamcluster", "radix"}}
	if tiny {
		b.cores, b.width, b.scale = 16, 4, 0.05
		b.benches = []string{"lu-nc", "radix"}
	}
	return b
}

// mesh256Spec is the large-mesh machine: miss-dominated streamcluster,
// canneal and concomp on 256 cores, adaptive against MESI.
func mesh256Spec(tiny bool) batchSpec {
	b := batchSpec{name: "mesh256", cores: 256, width: 16, scale: 0.1,
		benches: []string{"streamcluster", "canneal", "concomp"},
		kinds:   []sim.ProtocolKind{sim.ProtocolMESI, sim.ProtocolAdaptive}}
	if tiny {
		b.scale = 0.01
		b.benches = []string{"canneal"}
	}
	return b
}

func (b batchSpec) options(seed uint64, workers int) experiments.Options {
	return experiments.Options{Cores: b.cores, MeshWidth: b.width, Scale: b.scale,
		Seed: seed, Benchmarks: b.benches, Parallelism: workers}
}

// jobs lists the pass's simulations in the order ProtocolComparison
// schedules them.
func (b batchSpec) jobs(seed uint64) []simJob {
	kinds := b.kinds
	if kinds == nil {
		kinds = []sim.ProtocolKind{sim.ProtocolMESI, sim.ProtocolDragon, sim.ProtocolDLS,
			sim.ProtocolNeat, sim.ProtocolHybrid, sim.ProtocolAdaptive}
	}
	base := b.options(seed, 1).BaseConfig()
	spec := workloads.Spec{Cores: b.cores, Scale: b.scale, Seed: seed}
	var out []simJob
	for _, bench := range b.benches {
		for _, k := range kinds {
			cfg := base
			cfg.ProtocolKind = k
			out = append(out, simJob{bench: bench, spec: spec, cfg: cfg})
		}
	}
	return out
}

// requestBody is the served request equivalent to one pass.
func (b batchSpec) requestBody(seed uint64) []byte {
	q := server.Request{Cores: b.cores, MeshWidth: b.width, Scale: b.scale, Seed: seed, Benchmarks: b.benches}
	for _, k := range b.kinds {
		q.Protocols = append(q.Protocols, string(k))
	}
	body, err := json.Marshal(q)
	if err != nil {
		panic(err) // a plain struct always marshals
	}
	return body
}

// batchSetup is one set-up's products.
type batchSetup struct {
	checkJob simJob
	checked  *sim.Result
	// corpus build totals: accesses generated, build time, live heap.
	corpusAcc  uint64
	corpusTook time.Duration
	corpusHeap uint64
}

// setupBatch builds the workload's corpora from scratch and runs the
// value-checked correctness job on a fresh simulator.
func setupBatch(tr *tracer, b batchSpec, seed uint64) (batchSetup, time.Duration, error) {
	workloads.FlushCorpora()
	runtime.GC() // free the previous set-up's corpora before timing this one
	t0 := time.Now()
	id := tr.begin("setup", b.name, 0, 0)
	defer tr.end(id)
	jobs := b.jobs(seed)
	var bs batchSetup
	var err error
	if bs.corpusAcc, bs.corpusTook, bs.corpusHeap, err = buildCorpora(tr, id, jobs); err != nil {
		return batchSetup{}, 0, err
	}
	// The checked job is the last (adaptive) job of the benchmark with
	// the shortest trace: the smallest run the checker covers.
	check := jobs[len(jobs)-1]
	var best uint64
	for _, j := range jobs {
		src, err := j.corpus()
		if err != nil {
			return batchSetup{}, 0, err
		}
		if n := corpusSize(src); j.kind() == check.kind() && (best == 0 || n < best) {
			best, check = n, j
		}
	}
	cid := tr.begin("sim.checked_run", check.label(), id, 0)
	bs.checkJob = check
	bs.checked, err = checkedJob(check)
	tr.end(cid)
	if err != nil {
		return batchSetup{}, 0, err
	}
	return bs, time.Since(t0), nil
}

// passOutcome is one timed protocol-comparison pass.
type passOutcome struct {
	res    *experiments.ProtocolComparisonResult
	body   []byte
	digest [32]byte
	wall   time.Duration
	acc    uint64
}

// runPass runs one ProtocolComparison over a fresh session.
func runPass(b batchSpec, o experiments.Options, sess *experiments.Session) (passOutcome, error) {
	o.Session = sess
	t0 := time.Now()
	res, err := experiments.ProtocolComparison(o, b.kinds)
	wall := time.Since(t0)
	if err != nil {
		return passOutcome{}, err
	}
	body, err := server.EncodeCanonical(res)
	if err != nil {
		return passOutcome{}, err
	}
	var acc uint64
	for _, m := range res.Results {
		for _, r := range m {
			acc += r.DataAccesses
		}
	}
	return passOutcome{res: res, body: body, digest: sha256.Sum256(body), wall: wall, acc: acc}, nil
}

// checkPass compares a pass with the reference pass and the setup's
// value-checked job, recording any mismatch.
func checkPass(out *outcome, cfg config, ref, p passOutcome, setup batchSetup, i int) {
	digest := p.digest
	if cfg.corrupt && i == 1 {
		digest[0] ^= 1
	}
	if digest != ref.digest {
		out.failed++
		out.fail("pass %d canonical bytes differ from pass 1", i+1)
	}
	if i != 0 {
		return
	}
	j := setup.checkJob
	pooled := p.res.Results[j.bench][j.kind()]
	if same, err := sameResult(setup.checked, pooled); err != nil || !same {
		out.fail("value-checked fresh run of %s differs from the pooled result (err %v)", j.label(), err)
	}
}

// runBatch runs a batch workload: timed passes untraced, or the traced
// layer ledger.
func runBatch(cfg config, b batchSpec, tr *tracer) (*outcome, error) {
	if tr != nil {
		return traceBatch(cfg, b, tr)
	}
	out := &outcome{vals: values{}}
	setup, took, err := setupBatch(nil, b, cfg.seed)
	if err != nil {
		return nil, err
	}
	o := b.options(cfg.seed, cfg.workers)
	// Every pass is timed, the first too: like a fresh lacc-bench process,
	// it starts with an empty simulator pool. Pass 1 is the reference the
	// later passes must reproduce.
	var ref passOutcome
	var passMs, rates []float64
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < cfg.seconds; i++ {
		out.attempted++
		p, err := runPass(b, o, experiments.NewSession())
		if err != nil {
			return nil, fmt.Errorf("%s: pass %d: %w", b.name, i+1, err)
		}
		if i == 0 {
			ref = p
		}
		checkPass(out, cfg, ref, p, setup, i)
		passMs = append(passMs, float64(p.wall.Nanoseconds())/1e6)
		rates = append(rates, float64(p.acc)/p.wall.Seconds()/1e6)
	}
	out.digest = fmt.Sprintf("%x", ref.digest)
	out.vals["setup_s"] = took.Seconds()
	out.vals["sim_maccess_per_s"] = median(rates)
	out.vals["sim_cycles_ratio"] = ref.res.Completion[sim.ProtocolAdaptive]
	out.vals["sim_energy_ratio"] = ref.res.Energy[sim.ProtocolAdaptive]
	out.vals["op_p50_ms"] = median(passMs)
	out.vals["ops_per_s"] = 1000 / median(passMs)
	passRate := make([]float64, len(passMs))
	for i, ms := range passMs {
		passRate[i] = 1000 / ms
	}
	out.samples = map[string][]float64{"sim_maccess_per_s": rates, "op_p50_ms": passMs, "ops_per_s": passRate}
	out.note("passes=%d accesses_per_pass=%d jobs_per_pass=%d pass_ms=%.0f", len(passMs), ref.acc, len(b.jobs(cfg.seed)), passMs)
	return out, nil
}

// traceBatch is the traced run: set up once, run one reference pass
// through the experiments layer, replay the pass's jobs on a worker pool
// for the measured seconds (alternate replays untraced, for the tracing
// overhead), then probe every layer the workload's results pass through.
func traceBatch(cfg config, b batchSpec, tr *tracer) (*outcome, error) {
	out := &outcome{vals: values{}}
	v := out.vals
	setup, _, err := setupBatch(tr, b, cfg.seed)
	if err != nil {
		return nil, err
	}
	putCorpus(v, setup.corpusAcc, setup.corpusTook, setup.corpusHeap)
	jobs := b.jobs(cfg.seed)

	sess := experiments.NewSession()
	out.attempted++
	ref, err := runPass(b, b.options(cfg.seed, cfg.workers), sess)
	if err != nil {
		return nil, err
	}
	checkPass(out, cfg, ref, ref, setup, 0)

	ledger, overhead, err := replayFor(cfg, tr, out, jobs, func(recs []jobRecord) error {
		for _, r := range recs {
			want := ref.res.Results[r.job.bench][r.job.kind()]
			if same, err := sameResult(r.res, want); err != nil || !same {
				return fmt.Errorf("replayed %s differs from the experiments layer's result", r.job.label())
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	v["trace.overhead_frac"] = overhead

	sub := probeSubstrate(tr, cfg.seed, b.width)
	sub.put(v)
	ledger.put(v, sub)
	if err := putSimProbes(v, tr, jobs[len(jobs)-1]); err != nil {
		return nil, err
	}

	// The tiers a served copy of this pass's result would cross.
	ns, size, err := encodeProbe(ref.res)
	if err != nil {
		return nil, err
	}
	v["encode.ns_per_kb"] = ns / (float64(size) / 1024)
	v["encode.response_kb"] = float64(size) / 1024
	var items []kv
	for _, j := range jobs {
		body, err := server.EncodeCanonical(ref.res.Results[j.bench][j.kind()])
		if err != nil {
			return nil, err
		}
		items = append(items, kv{key: benchKey([]byte(fmt.Sprintf("%s/%d/%s", b.name, cfg.seed, j.label()))), val: body})
	}
	if err := tierProbes(cfg, tr, out, b, sess, ref, ns, items); err != nil {
		return nil, err
	}
	return out, nil
}

// replayFor replays jobs for cfg.seconds (at least two traced and two
// untraced passes), checking each traced pass with check. It returns the
// ledger of the traced passes and the tracing overhead: the median
// traced pass wall time over the median untraced one, minus 1.
func replayFor(cfg config, tr *tracer, out *outcome, jobs []simJob, check func([]jobRecord) error) (*simLedger, float64, error) {
	rp := newReplayer(cfg.workers)
	ledger := &simLedger{workers: cfg.workers}
	var traced, untraced []float64
	start := time.Now()
	for i := 0; i < 4 || time.Since(start) < cfg.seconds; i++ {
		out.attempted++
		if i%2 == 1 {
			_, wall, _, err := rp.pass(nil, jobs)
			if err != nil {
				return nil, 0, err
			}
			untraced = append(untraced, wall.Seconds())
			continue
		}
		recs, wall, busy, err := rp.pass(tr, jobs)
		if err != nil {
			return nil, 0, err
		}
		if err := check(recs); err != nil {
			out.failed++
			out.fail("replay pass %d: %v", i+1, err)
		}
		ledger.add(recs, wall, busy)
		traced = append(traced, wall.Seconds())
	}
	// One job per protocol the pass lacks, so every run loop is timed.
	if extra := coverJobs(jobs); len(extra) > 0 {
		recs, _, _, err := rp.pass(tr, extra)
		if err != nil {
			return nil, 0, err
		}
		ledger.recs = append(ledger.recs, recs...)
	}
	return ledger, median(traced)/median(untraced) - 1, nil
}

// putCorpus stores the corpus-build metrics.
func putCorpus(v values, acc uint64, took time.Duration, heap uint64) {
	v["workloads.corpus_build_s"] = took.Seconds()
	v["workloads.corpus_maccess_per_s"] = float64(acc) / took.Seconds() / 1e6
	v["workloads.corpus_mb"] = float64(heap) / (1 << 20)
}

// putSimProbes stores the single-goroutine simulator probes for j.
func putSimProbes(v values, tr *tracer, j simJob) error {
	newMs, newMB, resetMs, resetKB, runB, err := simProbes(tr, j)
	if err != nil {
		return err
	}
	v["sim.new_ms"] = newMs
	v["sim.new_alloc_mb"] = newMB
	v["sim.reset_ms"] = resetMs
	v["sim.reset_alloc_kb"] = resetKB
	v["sim.run_alloc_b_per_access"] = runB
	return nil
}

// tierProbes measures the serving tiers on a batch workload's result:
// warm requests for the pass answered by a node over the pass's session,
// direct store Put/Get/recovery of the per-job results, and cluster
// fetches of them from a peer node.
func tierProbes(cfg config, tr *tracer, out *outcome, b batchSpec, sess *experiments.Session, ref passOutcome, encodeNs float64, items []kv) error {
	v := out.vals
	dir, err := os.MkdirTemp(cfg.outDir, b.name+"-tiers-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	lnA, err := listen()
	if err != nil {
		return err
	}
	a := startNode(lnA, server.Config{Session: sess, Parallelism: cfg.workers})
	defer a.close()
	lnB, err := listen()
	if err != nil {
		return err
	}
	stB, err := store.Open(store.Options{Dir: filepath.Join(dir, "peer")})
	if err != nil {
		return err
	}
	peer := startNode(lnB, server.Config{Store: stB, Parallelism: cfg.workers})
	defer peer.close()

	client := newClient(cfg.workers)
	defer client.CloseIdleConnections()
	before, err := serverStats(client, a.addr)
	if err != nil {
		return err
	}
	body := b.requestBody(cfg.seed)
	var warm []float64
	deadline := time.Now().Add(min(cfg.seconds/4, 2*time.Second))
	for i := 0; i < 50 || time.Now().Before(deadline); i++ {
		out.attempted++
		id := tr.begin("http.request", "warm", 0, int64(i+1))
		t0 := time.Now()
		status, got, err := post(client, a.addr, "/v1/experiments/protocols", body)
		warm = append(warm, float64(time.Since(t0).Nanoseconds())/1e6)
		tr.end(id)
		if err != nil || status != http.StatusOK || !bytes.Equal(got, ref.body) {
			out.failed++
			out.fail("warm request %d: status %d err %v, body equal %t", i+1, status, err, bytes.Equal(got, ref.body))
		}
	}
	after, err := serverStats(client, a.addr)
	if err != nil {
		return err
	}
	putServer(v, before, after)
	p50 := median(warm)
	v["http.warm_p50_ms"] = p50
	v["http.warm_residual_us"] = p50*1e3 - encodeNs/1e3

	putUs, getUs, recMs, st, err := storeProbe(tr, filepath.Join(dir, "probe"), items)
	if err != nil {
		out.fail("%v", err)
	}
	v["store.put_us"] = putUs
	v["store.get_us"] = getUs
	v["store.recovery_ms"] = recMs
	v["store.put_errors"] = float64(st.PutErrors)
	v["store.read_errors"] = float64(st.ReadErrors)

	fetchUs, cst, err := clusterProbe(tr, a.addr, peer, items)
	if err != nil {
		out.fail("%v", err)
	}
	v["cluster.fetch_us"] = fetchUs
	totals(&cst).put(v)
	return nil
}
