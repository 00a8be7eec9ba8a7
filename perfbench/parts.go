package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// partsBudget bounds a split run's child processes together.
const partsBudget = 170 * time.Second

// runParts runs cfg as cfg.parts child processes in turn, each measuring
// cfg.seconds/cfg.parts, and pools them: a metric the parts sample per
// pass or round is the median over every part's samples, every other
// end-to-end metric the median over the parts; counts add up, serve
// latencies are pooled, and every part's reference pass must produce the
// same canonical bytes.
func runParts(cfg config) (*outcome, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating the benchmark binary: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), partsBudget)
	defer cancel()
	out := &outcome{vals: values{}}
	per := cfg.seconds.Seconds() / float64(cfg.parts)
	byName := map[string][]float64{}
	pooled := map[string][]float64{}
	for k := 0; k < cfg.parts; k++ {
		cmd := exec.CommandContext(ctx, exe, "--part",
			"--workload", cfg.workload,
			"--seed", strconv.FormatUint(cfg.seed, 10),
			"--seconds", strconv.FormatFloat(per, 'g', -1, 64),
			"--trace", "0",
			"--out", cfg.outDir)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		var exitErr *exec.ExitError
		if err != nil && !errors.As(err, &exitErr) {
			return nil, fmt.Errorf("part %d: %w", k+1, err)
		}
		r, perr := lastReport(stdout)
		if perr != nil || r.Part == nil {
			return nil, fmt.Errorf("part %d: no result (%v, %v)", k+1, err, perr)
		}
		for name, m := range r.Metrics {
			byName[name] = append(byName[name], m.Value)
		}
		for name, xs := range r.Part.Samples {
			pooled[name] = append(pooled[name], xs...)
		}
		out.attempted += r.Attempted
		out.failed += r.Failed
		for _, p := range r.Part.Problems {
			out.fail("part %d: %s", k+1, p)
		}
		if d := r.Part.Digest; d != "" {
			if out.digest == "" {
				out.digest = d
			} else if d != out.digest {
				out.failed++
				out.fail("part %d canonical bytes differ from part 1's", k+1)
			}
		}
		if r.Part.Lat != nil {
			if out.lat == nil {
				out.lat = map[string][]float64{}
			}
			for class, xs := range r.Part.Lat {
				out.lat[class] = append(out.lat[class], xs...)
			}
			out.served += r.Part.Served
			out.wall += time.Duration(r.Part.WallS * float64(time.Second))
		}
		out.notes = append(out.notes, r.Part.Notes...)
	}
	for name, xs := range byName {
		if name != "error_rate" {
			out.vals[name] = median(xs)
		}
	}
	for name, xs := range pooled {
		out.vals[name] = median(xs)
	}
	out.note("%d parts of %.3g s each; each metric is the median over the parts' passes or rounds, or over the parts", cfg.parts, per)
	return out, nil
}

// lastReport parses the result line a part printed last.
func lastReport(stdout []byte) (report, error) {
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var r report
	if len(lines) == 0 {
		return r, errors.New("empty output")
	}
	return r, json.Unmarshal(lines[len(lines)-1], &r)
}
