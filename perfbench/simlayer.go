package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"time"

	"lacc/internal/server"
	"lacc/internal/sim"
	"lacc/internal/trace"
	"lacc/internal/workloads"
)

// simJob is one simulation: a benchmark's corpus at spec under cfg.
type simJob struct {
	bench string
	spec  workloads.Spec
	cfg   sim.Config
}

func (j simJob) kind() sim.ProtocolKind {
	if j.cfg.ProtocolKind == "" {
		return sim.ProtocolAdaptive
	}
	return j.cfg.ProtocolKind
}

func (j simJob) label() string { return j.bench + "/" + string(j.kind()) }

// corpus returns the job's materialized trace from the process-wide
// corpus cache, building it on first use.
func (j simJob) corpus() (trace.Source, error) {
	w, ok := workloads.ByName(j.bench)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", j.bench)
	}
	return w.Corpus(j.spec), nil
}

// jobRecord is what a traced replay learned about one job.
type jobRecord struct {
	job   simJob
	res   *sim.Result
	runNs int64
}

// replayer runs job lists the way the experiments layer's worker pool
// does: a fixed set of workers, each owning one simulator that it builds
// with sim.New on first use and Resets for every later job, across
// passes.
type replayer struct {
	sims []*sim.Simulator
}

func newReplayer(workers int) *replayer {
	return &replayer{sims: make([]*sim.Simulator, workers)}
}

// pass runs jobs once on the worker pool. With a tracer, every call into
// a layer gets a span under the pass span and the per-job records are
// returned; without one, only the wall time is measured. busy is the
// summed duration of the job spans.
func (rp *replayer) pass(tr *tracer, jobs []simJob) (recs []jobRecord, wall time.Duration, busy int64, err error) {
	passID := tr.begin("experiments.pass", "", 0, 0)
	recs = make([]jobRecord, len(jobs))
	queue := make(chan int, len(jobs))
	for i := range jobs {
		queue <- i
	}
	close(queue)
	errs := make([]error, len(rp.sims))
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := range rp.sims {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range queue {
				if errs[w] != nil {
					continue
				}
				recs[i], errs[w] = rp.runJob(tr, passID, w, jobs[i])
			}
		}(w)
	}
	wg.Wait()
	wall = time.Since(t0)
	tr.end(passID)
	for _, e := range errs {
		if e != nil {
			return nil, 0, 0, e
		}
	}
	if tr != nil {
		for _, s := range tr.closed("experiments.job") {
			if s.Parent == passID {
				busy += s.dur()
			}
		}
	}
	return recs, wall, busy, nil
}

// runJob runs one job on worker w's simulator.
func (rp *replayer) runJob(tr *tracer, parent, w int, j simJob) (jobRecord, error) {
	jobID := tr.begin("experiments.job", j.label(), parent, 0)
	defer tr.end(jobID)
	id := tr.begin("workloads.corpus", j.bench, jobID, 0)
	src, err := j.corpus()
	tr.end(id)
	if err != nil {
		return jobRecord{}, err
	}
	if rp.sims[w] == nil {
		id = tr.begin("sim.new", j.label(), jobID, 0)
		rp.sims[w], err = sim.New(j.cfg)
	} else {
		id = tr.begin("sim.reset", j.label(), jobID, 0)
		err = rp.sims[w].Reset(j.cfg)
	}
	tr.end(id)
	if err != nil {
		return jobRecord{}, fmt.Errorf("%s: %w", j.label(), err)
	}
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	id = tr.begin("sim.run", string(j.kind()), jobID, 0)
	res, err := rp.sims[w].Run(src.Streams())
	tr.end(id)
	if err != nil {
		return jobRecord{}, fmt.Errorf("%s: %w", j.label(), err)
	}
	rec := jobRecord{job: j, res: res}
	if tr != nil {
		rec.runNs = time.Since(t0).Nanoseconds()
	}
	return rec, nil
}

// sameResult reports whether two results encode to identical canonical
// bytes.
func sameResult(a, b *sim.Result) (bool, error) {
	ea, err := server.EncodeCanonical(a)
	if err != nil {
		return false, err
	}
	eb, err := server.EncodeCanonical(b)
	if err != nil {
		return false, err
	}
	return bytes.Equal(ea, eb), nil
}

// checkedJob runs j on a freshly constructed simulator with the
// golden-store value checker on: the run panics on any stale read or
// directory inconsistency, and its result must equal the pooled,
// checker-off result the workload produced for the same job.
func checkedJob(j simJob) (res *sim.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("value checker: %s: %v", j.label(), p)
		}
	}()
	cfg := j.cfg
	cfg.CheckValues = true
	s, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	src, err := j.corpus()
	if err != nil {
		return nil, err
	}
	return s.Run(src.Streams())
}

// corpusSize returns a source's length in accesses.
func corpusSize(src trace.Source) uint64 {
	if c, ok := src.(interface{ Total() uint64 }); ok {
		return c.Total()
	}
	return 0
}

// buildCorpora builds each job's corpus under a "workloads.corpus" span
// and reports the accesses generated and the build time. Traced, it also
// reports the live heap the corpora added (two forced collections, which
// an untraced set-up does not pay).
func buildCorpora(tr *tracer, parent int, jobs []simJob) (accesses uint64, took time.Duration, heapBytes uint64, err error) {
	seen := map[string]bool{}
	var before uint64
	if tr != nil {
		before = heapInUse()
	}
	for _, j := range jobs {
		key := fmt.Sprintf("%s/%d/%g/%d", j.bench, j.spec.Cores, j.spec.Scale, j.spec.Seed)
		if seen[key] {
			continue
		}
		seen[key] = true
		id := tr.begin("workloads.corpus", j.bench, parent, 0)
		t0 := time.Now()
		src, e := j.corpus()
		took += time.Since(t0)
		tr.end(id)
		if e != nil {
			return 0, 0, 0, e
		}
		accesses += corpusSize(src)
	}
	if tr != nil {
		if after := heapInUse(); after > before {
			heapBytes = after - before
		}
	}
	return accesses, took, heapBytes, nil
}

// simLedger turns a traced replay into the sim, experiments and share
// metrics.
type simLedger struct {
	recs      []jobRecord // every traced job, all passes
	passRecs  []jobRecord // one pass's jobs (the count metrics)
	busy      int64
	wallTimes time.Duration
	workers   int
}

// add folds one traced pass into the ledger.
func (l *simLedger) add(recs []jobRecord, wall time.Duration, busy int64) {
	if l.passRecs == nil {
		l.passRecs = recs
	}
	l.recs = append(l.recs, recs...)
	l.busy += busy
	l.wallTimes += wall
}

// put stores the ledger's metrics into v; sub supplies the probe times
// the share estimates multiply by.
func (l *simLedger) put(v values, sub substrate) {
	// Simulated counts over one pass: they repeat exactly for a seed.
	var acc, miss, msgs, flits, dramR, inv, bcast, words uint64
	var cycles []float64
	for _, r := range l.passRecs {
		res := r.res
		acc += res.DataAccesses
		miss += res.L1D.TotalMisses()
		msgs += res.Messages
		flits += res.LinkFlits
		dramR += res.DRAMReads
		inv += res.Invalidations
		bcast += res.BroadcastInvalidations
		words += res.WordReads + res.WordWrites
		cycles = append(cycles, float64(res.CompletionCycles))
	}
	fa := float64(acc)
	v["sim.l1d_miss_rate"] = float64(miss) / fa
	v["sim.messages_per_access"] = float64(msgs) / fa
	v["sim.link_flits_per_access"] = float64(flits) / fa
	v["sim.dram_reads_per_kaccess"] = 1000 * float64(dramR) / fa
	v["sim.invalidations_per_kaccess"] = 1000 * float64(inv) / fa
	v["sim.broadcasts_per_kaccess"] = 1000 * float64(bcast) / fa
	v["sim.word_accesses_per_kaccess"] = 1000 * float64(words) / fa
	v["sim.completion_cycles_geomean"] = geomean(cycles)

	// Host time in Run over every traced job, and the counts the share
	// estimates multiply probe times by.
	runNs := map[sim.ProtocolKind]int64{}
	runAcc := map[sim.ProtocolKind]uint64{}
	var totalNs int64
	var allAcc, allMiss, allMsgs, allDRAM uint64
	for _, r := range l.recs {
		k := r.job.kind()
		runNs[k] += r.runNs
		runAcc[k] += r.res.DataAccesses
		totalNs += r.runNs
		allAcc += r.res.DataAccesses
		allMiss += r.res.L1D.TotalMisses()
		allMsgs += r.res.Messages
		allDRAM += r.res.DRAMReads + r.res.DRAMWrites
	}
	for _, k := range sim.ProtocolKinds() {
		v["sim.ns_per_access."+string(k)] = float64(runNs[k]) / float64(runAcc[k])
	}
	ns := float64(totalNs)
	v["network.est_share"] = float64(allMsgs) * sub.unicastOwn / ns
	v["cache.est_share"] = (float64(allAcc)*sub.probeHit + float64(allMiss)*sub.probeMissInsert) / ns
	v["dram.est_share"] = float64(allDRAM) * sub.dramRead / ns
	v["experiments.parallel_eff"] = float64(l.busy) / (float64(l.wallTimes.Nanoseconds()) * float64(l.workers))
	v["experiments.jobs"] = float64(len(l.passRecs))
}

// coverJobs returns one job per registered protocol that jobs lack, on
// the first job's benchmark and machine, so every protocol's run loop is
// timed on every workload.
func coverJobs(jobs []simJob) []simJob {
	have := map[sim.ProtocolKind]bool{}
	for _, j := range jobs {
		have[j.kind()] = true
	}
	var out []simJob
	for _, k := range sim.ProtocolKinds() {
		if !have[k] {
			j := jobs[0]
			j.cfg.ProtocolKind = k
			out = append(out, j)
		}
	}
	return out
}

// simProbes times simulator construction, Reset and one Run of j on a
// single goroutine, measuring what each allocates.
func simProbes(tr *tracer, j simJob) (newMs, newAllocMB, resetMs, resetAllocKB, runAllocB float64, err error) {
	src, err := j.corpus()
	if err != nil {
		return 0, 0, 0, 0, 0, err
	}
	const news, resets = 3, 5
	var s *sim.Simulator
	var newTimes, resetTimes []float64
	var newAlloc, resetAlloc uint64
	for i := 0; i < news; i++ {
		s = nil
		runtime.GC()
		a0 := allocBytes()
		id := tr.begin("sim.new", "probe", 0, 0)
		t0 := time.Now()
		s, err = sim.New(j.cfg)
		newTimes = append(newTimes, float64(time.Since(t0).Nanoseconds()))
		tr.end(id)
		newAlloc += allocBytes() - a0
		if err != nil {
			return 0, 0, 0, 0, 0, err
		}
	}
	for i := 0; i < resets; i++ {
		a0 := allocBytes()
		id := tr.begin("sim.reset", "probe", 0, 0)
		t0 := time.Now()
		err = s.Reset(j.cfg)
		resetTimes = append(resetTimes, float64(time.Since(t0).Nanoseconds()))
		tr.end(id)
		resetAlloc += allocBytes() - a0
		if err != nil {
			return 0, 0, 0, 0, 0, err
		}
	}
	a0 := allocBytes()
	res, err := s.Run(src.Streams())
	if err != nil {
		return 0, 0, 0, 0, 0, err
	}
	runAlloc := allocBytes() - a0
	return median(newTimes) / 1e6, float64(newAlloc) / news / (1 << 20),
		median(resetTimes) / 1e6, float64(resetAlloc) / resets / 1024,
		float64(runAlloc) / float64(res.DataAccesses), nil
}
