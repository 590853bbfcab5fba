package main

import (
	"testing"
	"time"
)

func TestSelfTime(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 30},  // child
		{ID: 2, Parent: 0, Start: 20, End: 40},  // overlaps child 1: union 10..40
		{ID: 3, Parent: 0, Start: 90, End: 120}, // clipped to 90..100
		{ID: 4, Parent: 1, Start: 12, End: 18},  // grandchild: not subtracted from 0
		{ID: 5, Parent: -1, Start: 50, End: 60}, // unrelated root
	}
	cases := []struct {
		id   int
		want time.Duration
	}{
		{0, 100 - 30 - 10},
		{1, 20 - 6},
		{4, 6},
		{5, 10},
	}
	for _, c := range cases {
		if got := SelfTime(spans[c.id], spans); got != c.want {
			t.Errorf("SelfTime(span %d) = %d, want %d", c.id, got, c.want)
		}
	}
}

func TestNet(t *testing.T) {
	engine := Span{Start: 100, End: 400}
	replay := Span{Start: 500, End: 600}
	if got := Net(engine, replay); got != 200 {
		t.Errorf("Net = %d, want 200", got)
	}
	if got := Net(replay, engine); got != 0 {
		t.Errorf("Net with a longer replay = %d, want 0 (clamped)", got)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("go_like", "analog", -1)
	child := tr.Start("go_like", "trace.replay", root)
	tr.End(child)
	r := tr.End(root)
	s := tr.Spans()
	if len(s) != 2 || s[1].Parent != root || s[1].Trace != "go_like" {
		t.Fatalf("spans = %+v", s)
	}
	if r.End < s[1].End || s[1].Start < r.Start {
		t.Errorf("child %+v not inside root %+v", s[1], r)
	}
	if got := SelfTime(r, s); got != r.Dur()-s[1].Dur() {
		t.Errorf("SelfTime(root) = %d, want %d", got, r.Dur()-s[1].Dur())
	}
}
