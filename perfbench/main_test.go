package main

import (
	"crypto/sha256"
	"encoding/json"
	"io"
	"os"
	"sync"
	"testing"
	"time"
)

// tinyConfig is a seconds-long run of workload: the same code paths as
// a measured run on shrunken inputs.
func tinyConfig(t *testing.T, workload string, seed uint64, traced bool) config {
	return config{
		workload: workload,
		seed:     seed,
		seconds:  500 * time.Millisecond,
		trace:    traced,
		outDir:   t.TempDir(),
		workers:  2,
		parts:    1,
		tiny:     true,
	}
}

var (
	runsMu sync.Mutex
	runs   = map[string]report{}
)

// tinyRun runs (once per test binary) a tiny run and returns its report.
func tinyRun(t *testing.T, workload string, traced bool) report {
	t.Helper()
	key := workload
	if traced {
		key += "/traced"
	}
	runsMu.Lock()
	defer runsMu.Unlock()
	if r, ok := runs[key]; ok {
		return r
	}
	r, err := run(tinyConfig(t, workload, 1, traced), io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	runs[key] = r
	return r
}

// benchmarkJSON reads the repository's benchmark definition.
func benchmarkJSON(t *testing.T) (workloads []string, e2e, layer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range def.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range def.PerLayer {
		layer[m.Name] = m.Unit
	}
	for _, w := range def.Workloads {
		workloads = append(workloads, w.Name)
	}
	return workloads, e2e, layer
}

// TestEveryMetricEmitted runs every workload untraced and traced and
// requires exactly the metrics BENCHMARK.json names, each with its unit,
// from a correct run.
func TestEveryMetricEmitted(t *testing.T) {
	names, e2e, layer := benchmarkJSON(t)
	if len(names) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	for i, w := range names {
		if w != workloadNames[i] {
			t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
		}
		for _, traced := range []bool{false, true} {
			want := e2e
			if traced {
				want = layer
			}
			r := tinyRun(t, w, traced)
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d", w, traced, r.Correct, r.Attempted, r.Failed)
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s traced=%t: %d metrics, BENCHMARK.json names %d", w, traced, len(r.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := r.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%t: %s not emitted", w, traced, name)
				case m.Unit != unit:
					t.Errorf("%s traced=%t: %s unit %q, BENCHMARK.json says %q", w, traced, name, m.Unit, unit)
				}
			}
		}
	}
}

// inputDigest hashes the inputs a workload generates from seed: every
// access of every batch corpus, or the serve workload's request bodies.
func inputDigest(t *testing.T, workload string, seed uint64) [32]byte {
	t.Helper()
	h := sha256.New()
	cfg := tinyConfig(t, workload, seed, false)
	switch workload {
	case "serve":
		warm, disk, peer, err := serveKeys(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, set := range [][][]*serveReq{warm, disk, peer} {
			for _, reqs := range set {
				for _, r := range reqs {
					h.Write(r.body)
				}
			}
		}
		for n := 0; n < 8; n++ {
			h.Write(coldRequest(n, coldSeed(seed, 0, n)).body)
		}
	default:
		spec := paper64Spec(true)
		if workload == "mesh256" {
			spec = mesh256Spec(true)
		}
		for _, j := range spec.jobs(seed) {
			src, err := j.corpus()
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range src.Streams() {
				for {
					a, ok := s.Next()
					if !ok {
						break
					}
					if err := json.NewEncoder(h).Encode(a); err != nil {
						t.Fatal(err)
					}
				}
				s.Close()
			}
		}
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

// TestSeedChangesInputs requires a different seed to give different
// inputs, and the same seed the same ones.
func TestSeedChangesInputs(t *testing.T) {
	for _, w := range workloadNames {
		a, again, b := inputDigest(t, w, 1), inputDigest(t, w, 1), inputDigest(t, w, 2)
		if a != again {
			t.Errorf("%s: seed 1 gave different inputs on two builds", w)
		}
		if a == b {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs", w)
		}
	}
}

// TestCorruptionCaught flips one byte of a pass digest (batch) or of a
// served body (serve) and requires the run to report the failure.
func TestCorruptionCaught(t *testing.T) {
	for _, w := range []string{"paper64", "serve"} {
		cfg := tinyConfig(t, w, 1, false)
		cfg.corrupt = true
		r, err := run(cfg, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if r.Correct || r.Failed == 0 {
			t.Errorf("%s: a flipped byte went unnoticed (correct=%t failed=%d)", w, r.Correct, r.Failed)
		}
	}
}

// TestSelfTime pins the self-time definition: a span's duration minus
// the part of it its children cover, overlaps counted once.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60},
		{ID: 4, Parent: 1, Start: 90, End: 120},
	}
	if got := selfTimes(spans)[1]; got != 40 {
		t.Errorf("self time %d, want 40", got)
	}
}
