package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the benchmark makes into a layer. Spans of one op
// share its id; Parent indexes the enclosing span (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the traced pass's spans in memory. A nil *tracer records
// nothing, so the untraced pass runs exactly the same benchmark code.
type tracer struct {
	t0    time.Time
	op    int
	open  int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), open: -1} }

// startOp tags the following spans with op id and makes them roots.
func (t *tracer) startOp(id int) {
	if t != nil {
		t.op, t.open = id, -1
	}
}

// begin opens a span nested in the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: t.open, Start: int64(time.Since(t.t0))})
	t.open = len(t.spans) - 1
	return t.open
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.spans[id].Parent
}

// selfTimes sums, per span name, each span's self time: its duration minus
// the part of it that its child spans cover. Calls are sequential, so
// children never overlap.
func (t *tracer) selfTimes() map[string]time.Duration {
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		self[s.Name] += time.Duration(s.End - s.Start)
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= time.Duration(s.End - s.Start)
		}
	}
	return self
}

// durations lists the durations of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start).Seconds())
		}
	}
	return out
}

// write saves the spans, with the machine they were taken on, as JSON.
func (t *tracer) write(path string, m machine) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Machine machine `json:"machine"`
		Spans   []span  `json:"spans"`
	}{m, t.spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
