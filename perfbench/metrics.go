package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// metricDef names one reported metric and its unit. The two lists below
// are the benchmark's contract with BENCHMARK.json: an untraced run
// reports exactly endToEnd, a traced run exactly perLayer, on every
// workload (TestMetricsMatchBenchmarkJSON keeps the three in step).
type metricDef struct {
	name string
	unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"sim_maccess_per_s", "Maccess/s"},
	{"sim_cycles_ratio", "ratio"},
	{"sim_energy_ratio", "ratio"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
}

var perLayer = []metricDef{
	{"workloads.corpus_build_s", "s"},
	{"workloads.corpus_maccess_per_s", "Maccess/s"},
	{"workloads.corpus_mb", "MB"},
	{"sim.new_ms", "ms"},
	{"sim.new_alloc_mb", "MB"},
	{"sim.reset_ms", "ms"},
	{"sim.reset_alloc_kb", "KB"},
	{"sim.ns_per_access.adaptive", "ns"},
	{"sim.ns_per_access.mesi", "ns"},
	{"sim.ns_per_access.dragon", "ns"},
	{"sim.ns_per_access.dls", "ns"},
	{"sim.ns_per_access.neat", "ns"},
	{"sim.ns_per_access.hybrid", "ns"},
	{"sim.run_alloc_b_per_access", "B"},
	{"sim.l1d_miss_rate", "ratio"},
	{"sim.messages_per_access", "count"},
	{"sim.link_flits_per_access", "count"},
	{"sim.dram_reads_per_kaccess", "count"},
	{"sim.invalidations_per_kaccess", "count"},
	{"sim.broadcasts_per_kaccess", "count"},
	{"sim.word_accesses_per_kaccess", "count"},
	{"sim.completion_cycles_geomean", "cycles"},
	{"network.unicast_ns.8x8", "ns"},
	{"network.unicast_ns.16x16", "ns"},
	{"network.broadcast_ns.16x16", "ns"},
	{"dram.read_ns", "ns"},
	{"coherence.sharer_update_ns.ackwise4", "ns"},
	{"coherence.sharer_update_ns.fullmap256", "ns"},
	{"cache.probe_hit_ns", "ns"},
	{"cache.probe_miss_insert_ns", "ns"},
	{"core.classify_ns", "ns"},
	{"flatmap.get_ns", "ns"},
	{"network.est_share", "ratio"},
	{"cache.est_share", "ratio"},
	{"dram.est_share", "ratio"},
	{"experiments.parallel_eff", "ratio"},
	{"experiments.jobs", "count"},
	{"server.requests", "count"},
	{"server.coalesced", "count"},
	{"server.rejected", "count"},
	{"server.errors", "count"},
	{"session.hits", "count"},
	{"session.disk_hits", "count"},
	{"session.peer_hits", "count"},
	{"session.simulated", "count"},
	{"encode.ns_per_kb", "ns"},
	{"encode.response_kb", "KB"},
	{"http.warm_p50_ms", "ms"},
	{"http.warm_residual_us", "us"},
	{"store.get_us", "us"},
	{"store.put_us", "us"},
	{"store.recovery_ms", "ms"},
	{"store.put_errors", "count"},
	{"store.read_errors", "count"},
	{"cluster.fetch_us", "us"},
	{"cluster.hits", "count"},
	{"cluster.errors", "count"},
	{"cluster.breaker_opens", "count"},
	{"cluster.replicated", "count"},
	{"trace.overhead_frac", "ratio"},
	{"error_rate", "ratio"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line. Part is set only in the
// result line of a child process of a split run.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Part      *partData         `json:"part,omitempty"`
}

// partData carries a part's raw figures to its parent.
type partData struct {
	Samples  map[string][]float64 `json:"samples,omitempty"`
	Digest   string               `json:"digest,omitempty"`
	Lat      map[string][]float64 `json:"lat,omitempty"`
	Served   int                  `json:"served,omitempty"`
	WallS    float64              `json:"wall_s,omitempty"`
	Problems []string             `json:"problems,omitempty"`
	Notes    []string             `json:"notes,omitempty"`
}

// values collects a run's measurements by name; finish turns them into
// the metrics a report carries, in the unit the catalog gives them.
type values map[string]float64

// finish selects defs from v. A metric the run did not measure is a
// benchmark bug, reported as an error rather than a silent zero.
func (v values) finish(defs []metricDef) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	var missing []string
	for _, d := range defs {
		x, ok := v[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, x)
		}
		out[d.name] = metric{Value: x, Unit: d.unit}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	return out, nil
}

// quantile returns the q-quantile of xs (linear interpolation between
// closest ranks); xs is sorted in place. Zero samples give 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// median is quantile(xs, 0.5) on a copy, leaving xs unsorted.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// tailQuantile returns the highest of the quantiles qs that keeps at
// least 10 samples beyond it, with that quantile; ok is false when even
// the lowest leaves fewer than 10 samples beyond it.
func tailQuantile(xs []float64, qs ...float64) (q, v float64, ok bool) {
	for i := len(qs) - 1; i >= 0; i-- {
		if float64(len(xs))*(1-qs[i]) >= 10 {
			return qs[i], quantile(append([]float64(nil), xs...), qs[i]), true
		}
	}
	return 0, 0, false
}

// geomean returns the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB, falling
// back to the Go runtime's total obtained memory where /proc is absent.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// allocBytes returns the cumulative bytes allocated by the process.
func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// heapInUse returns live heap bytes after full collections. Two are
// needed: sync.Pool contents survive one collection in a victim cache.
func heapInUse() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
