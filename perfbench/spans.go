package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed step of a traced run: workload → scenario → set-up
// / event loop / digest, with the layer probes as children of the
// workload. Every span of a run carries the run's trace id.
type span struct {
	ID     int            `json:"id"`
	Parent int            `json:"parent,omitempty"`
	Trace  string         `json:"trace"`
	Name   string         `json:"name"`
	Start  int64          `json:"start_ns"`
	End    int64          `json:"end_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// tracer keeps a run's spans in memory until write. A nil tracer
// records nothing, which is how untraced runs use it.
type tracer struct {
	t0    time.Time
	trace string
	spans []span
}

func newTracer(trace string) *tracer {
	return &tracer{t0: time.Now(), trace: trace}
}

// add records a span and returns its id (0 on a nil tracer).
func (t *tracer) add(parent int, name string, start, end time.Time, attrs map[string]any) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Trace: t.trace, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
		Attrs: attrs,
	})
	return id
}

// setEnd closes a span opened with add before its end was known.
func (t *tracer) setEnd(id int, end time.Time) {
	if t != nil && id > 0 {
		t.spans[id-1].End = end.Sub(t.t0).Nanoseconds()
	}
}

// write stores the spans as one JSON array under dir.
func (t *tracer) write(dir string) (string, error) {
	if t == nil {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	path := filepath.Join(dir, t.trace+".json")
	js, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	if err := os.WriteFile(path, js, 0o644); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	return path, nil
}
