package metrics

import "time"

// spanFamily is the histogram family every span records into; each
// span path ("cell", "cell/record", "pass/walk") is one labeled member
// holding nanosecond durations.
const spanFamily = "spans_ns"

// Span attributes wall time inside a phase of work. Spans nest: a child
// records under "parent/child", so the suite's per-cell breakdown
// (record → replay → assemble) reads directly out of a snapshot as
//
//	spans_ns{cell}          — whole cells
//	spans_ns{cell/record}   — trace recording inside a cell
//	spans_ns{pass/walk}     — one replay pass's walk over its stream
//	spans_ns{cell/replay}   — pipeline replay inside a timing cell
//
// A Span is a 3-word value, started with one clock read and ended with
// one clock read plus one histogram observe — cheap enough to wrap
// every cell without moving the suite benchmark. Spans are not
// goroutine-local or context-propagated; the caller hands a child span
// down explicitly where nesting crosses a function boundary.
type Span struct {
	vec   *HistogramVec
	path  string
	start time.Time
}

// StartSpan opens a top-level span named path.
func (r *Registry) StartSpan(path string) Span {
	return Span{vec: r.HistogramVec(spanFamily), path: path, start: time.Now()}
}

// Child opens a nested span recording under parent.path + "/" + name.
func (s Span) Child(name string) Span {
	return Span{vec: s.vec, path: s.path + "/" + name, start: time.Now()}
}

// End records the span's elapsed nanoseconds. End on a zero Span is a
// no-op, so span plumbing can be optional at call sites.
func (s Span) End() {
	if s.vec == nil {
		return
	}
	s.vec.With(s.path).Observe(int64(time.Since(s.start)))
}

// ObserveSpan records d under path without clocking it, for work whose
// duration is apportioned rather than measured directly (a replay pass
// divides its time among the cells it runs).
func (r *Registry) ObserveSpan(path string, d time.Duration) {
	r.HistogramVec(spanFamily).With(path).Observe(int64(d))
}
