package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Span is one timed call into a layer: its name, start and end (ns
// since the tracer started), the span that caused it (-1 for a root),
// and the trace it belongs to — every span for one analog shares that
// analog's name.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur is the span's wall duration.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps spans in memory until Write. It is used from one
// goroutine: spans wrap calls into the layers, never code inside them.
type Tracer struct {
	t0    time.Time
	spans []Span
}

func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Start opens a span under parent (-1 for a root) and returns its id.
func (t *Tracer) Start(trace, name string, parent int) int {
	id := len(t.spans)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Trace: trace, Name: name,
		Start: int64(time.Since(t.t0))})
	return id
}

// End closes span id and returns it.
func (t *Tracer) End(id int) Span {
	t.spans[id].End = int64(time.Since(t.t0))
	return t.spans[id]
}

// Spans returns every span recorded so far.
func (t *Tracer) Spans() []Span { return t.spans }

// Write dumps the spans as JSON.
func (t *Tracer) Write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// SelfTime is a span's duration minus the part of its interval that
// its direct children cover. Overlapping children count once, and any
// part of a child outside the parent's interval is ignored.
func SelfTime(s Span, spans []Span) time.Duration {
	var iv [][2]int64
	for _, c := range spans {
		if c.Parent != s.ID || c.ID == s.ID {
			continue
		}
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if lo < hi {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	covered, end := int64(0), s.Start
	for _, v := range iv {
		lo := max(v[0], end)
		if v[1] > lo {
			covered += v[1] - lo
			end = v[1]
		}
	}
	return s.Dur() - time.Duration(covered)
}

// Net is a consumer's own time when it is fed by a replay: the span of
// replaying a stream into the consumer, less the span of replaying the
// same stream into a counting sink (the decode cost both share).
// Clamped at zero, since the two are measured in separate calls.
func Net(consumer, replay Span) time.Duration {
	return max(consumer.Dur()-replay.Dur(), 0)
}
