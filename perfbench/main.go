// Command perfbench is the repository's benchmark: it runs one of three
// workloads against the simulator and the server built on it, checks
// the outputs, and prints every metric by name and unit. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced
// run (--trace 1) replays the same workload with spans around every call
// into a layer and reports the per-layer metrics. README.md in this
// directory defines every metric and workload.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload paper64 --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	// outDir receives temp stores and the span file.
	outDir string
	// workers bounds simulation parallelism and client connections.
	workers int
	// parts splits an untraced run into that many child processes, each
	// setting up once and measuring an equal share of the seconds; the
	// run reports the median over the parts (setup_s too). Each process
	// draws its own physical memory layout, which moves the simulator's
	// host speed by up to a fifth from one process to the next.
	parts int
	// part marks a child process of a split run: it reports the raw
	// figures its parent pools.
	part bool

	// tiny shrinks every workload to a seconds-long smoke run (tests).
	tiny bool
	// corrupt flips one byte of the first checked body or digest, so
	// tests can prove the correctness gate catches a wrong answer.
	corrupt bool
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"paper64", "mesh256", "serve"}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", ")+", or all of them in turn")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	traced := fs.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	outDir := fs.String("out", filepath.Join(".bench_build", "runs"), "directory for temp stores and spans")
	part := fs.Bool("part", false, "run as one part of a split run (internal)")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if fs.NArg() > 0 {
		return config{}, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	known := *workload == "all"
	for _, w := range workloadNames {
		known = known || w == *workload
	}
	if !known {
		return config{}, fmt.Errorf("unknown workload %q (want one of %s, or all)", *workload, strings.Join(workloadNames, ", "))
	}
	if *seconds <= 0 || *seconds > 120 {
		return config{}, fmt.Errorf("seconds %g out of range (0, 120]", *seconds)
	}
	if *traced != 0 && *traced != 1 {
		return config{}, fmt.Errorf("trace must be 0 or 1, got %d", *traced)
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *traced == 1,
		outDir:   *outDir,
		workers:  min(2, runtime.NumCPU()),
		parts:    5,
		part:     *part,
	}
	if cfg.part || cfg.trace {
		cfg.parts = 1
	}
	return cfg, nil
}

// outcome is what a workload run measured and checked.
type outcome struct {
	vals      values
	attempted int64
	failed    int64
	// problems lists every failed correctness check.
	problems []string
	// notes are extra report lines (named values with units) printed
	// before the result line.
	notes []string

	// Raw figures a parent run pools across its parts: the batch
	// reference pass digest; the serve class latencies, requests
	// completed and window length; and, for metrics that are medians
	// over passes or rounds, every pass's or round's value, so the
	// parent reports the median over all of them.
	samples map[string][]float64
	digest  string
	lat     map[string][]float64
	served  int
	wall    time.Duration
}

// fail records a correctness failure.
func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// note records a report line.
func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// run executes cfg's workload, prints the report lines to w and returns
// the result.
func run(cfg config, w io.Writer) (report, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return report{}, fmt.Errorf("output dir: %w", err)
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var out *outcome
	var err error
	switch {
	case cfg.parts > 1:
		out, err = runParts(cfg)
	case cfg.workload == "paper64":
		out, err = runBatch(cfg, paper64Spec(cfg.tiny), tr)
	case cfg.workload == "mesh256":
		out, err = runBatch(cfg, mesh256Spec(cfg.tiny), tr)
	case cfg.workload == "serve":
		out, err = runServe(cfg, tr)
	default:
		err = fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		return report{}, err
	}
	if out.attempted < 1 {
		return report{}, errors.New("no operation was attempted")
	}
	out.vals["error_rate"] = float64(out.failed) / float64(out.attempted)
	if out.lat != nil && !cfg.part {
		serveNotes(out)
	}
	defs := endToEnd
	switch {
	case cfg.trace:
		defs = perLayer
		path, err := tr.write(cfg.outDir, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
		if err != nil {
			return report{}, err
		}
		out.note("spans written to %s", path)
	case cfg.parts == 1:
		if _, ok := out.vals["peak_rss_mb"]; !ok { // serve reads it mid-window
			out.vals["peak_rss_mb"] = peakRSSMB()
		}
	}
	ms, err := out.vals.finish(defs)
	if err != nil {
		return report{}, err
	}
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %s seed=%d seconds=%g trace=%t workers=%d\n", cfg.workload, cfg.seed, cfg.seconds.Seconds(), cfg.trace, cfg.workers)
	for _, n := range names {
		fmt.Fprintf(w, "%-40s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
	for _, n := range out.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, p := range out.problems {
		fmt.Fprintf(w, "# CHECK FAILED: %s\n", p)
	}
	rep := report{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   ms,
	}
	if cfg.part {
		rep.Part = &partData{Samples: out.samples, Digest: out.digest, Lat: out.lat, Served: out.served,
			WallS: out.wall.Seconds(), Problems: out.problems, Notes: out.notes}
	}
	return rep, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = workloadNames
	}
	status := 0
	for _, name := range names {
		c := cfg
		c.workload = name
		rep, err := run(c, os.Stdout)
		if err == nil {
			var line []byte
			if line, err = json.Marshal(rep); err == nil {
				fmt.Println(string(line))
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		if !rep.Correct || rep.Failed > 0 {
			status = 1
		}
	}
	os.Exit(status)
}
