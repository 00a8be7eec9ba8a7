package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Times are
// nanoseconds since the tracer started; Parent is the causing span's ID
// (0 for a root) and Req groups the spans of one served request.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Tag    string `json:"tag,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
}

// dur is the span's duration in nanoseconds.
func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run writes them out. A nil
// *tracer records nothing, so untraced runs share the traced code paths
// at the cost of a nil check per span.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name, tag string, parent int, req int64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Name: name, Tag: tag, Start: now, End: -1, Parent: parent, Req: req})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// closed returns a copy of every finished span named name (any name when
// name is empty).
func (t *tracer) closed(name string) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.End >= 0 && (name == "" || s.Name == name) {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each finished span's self time: its duration minus
// the part of its interval covered by its children's spans.
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered, reach int64 = 0, s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}

// write stores every span as one JSON line under dir, followed by a
// per-name summary (count, total and self time), and returns the path.
func (t *tracer) write(dir, base string) (string, error) {
	spans := t.closed("")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, base+".trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type summary struct {
		Name   string `json:"summary"`
		Count  int    `json:"count"`
		Total  int64  `json:"total_ns"`
		SelfNs int64  `json:"self_ns"`
	}
	self := selfTimes(spans)
	byName := map[string]*summary{}
	var names []string
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return "", fmt.Errorf("trace encode: %w", err)
		}
		sm := byName[s.Name]
		if sm == nil {
			sm = &summary{Name: s.Name}
			byName[s.Name] = sm
			names = append(names, s.Name)
		}
		sm.Count++
		sm.Total += s.dur()
		sm.SelfNs += self[s.ID]
	}
	sort.Strings(names)
	for _, n := range names {
		if err := enc.Encode(byName[n]); err != nil {
			return "", fmt.Errorf("trace encode: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return "", fmt.Errorf("trace flush: %w", err)
	}
	return path, f.Close()
}
