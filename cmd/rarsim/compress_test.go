package main

import (
	"strings"
	"testing"

	"rarpred/internal/experiments"
	"rarpred/internal/trace"
)

// Compression must be invisible in the report: it changes how streams
// are stored, never what events they contain. These tests use size 6,
// which no other CLI test uses, so the shared trace cache cannot serve
// a stream recorded under the other mode.

func dropSize6(t *testing.T) {
	t.Helper()
	for _, ab := range []string{"go", "gcc"} {
		experiments.TraceCache().Drop(trace.Key{Workload: wname(t, ab), Size: 6, MaxInsts: defaultMaxInsts})
	}
}

func TestCompressOnOffByteIdentical(t *testing.T) {
	dropSize6(t)
	code, on, errw := runCLI("-exp", "fig2,fig5", "-size", "6", "-bench", "go,gcc", "-tracecompress=on")
	if code != 0 {
		t.Fatalf("compressed run exit %d: %s", code, errw)
	}
	dropSize6(t)
	code, off, errw := runCLI("-exp", "fig2,fig5", "-size", "6", "-bench", "go,gcc", "-tracecompress=off")
	if code != 0 {
		t.Fatalf("uncompressed run exit %d: %s", code, errw)
	}
	dropSize6(t)
	if on != off {
		t.Fatalf("report differs across -tracecompress:\n--- on ---\n%s--- off ---\n%s", on, off)
	}
}

func TestCompressBadValueExitsTwo(t *testing.T) {
	code, _, errw := runCLI("-exp", "fig2", "-tracecompress=maybe")
	if code != 2 || !strings.Contains(errw, "-tracecompress") {
		t.Fatalf("exit %d, stderr %q; want usage error", code, errw)
	}
}

// TestTraceStatsListsStreams: -tracestats itemizes every resident
// stream with raw and resident sizes, and compression actually shrinks
// the resident side.
func TestTraceStatsListsStreams(t *testing.T) {
	dropSize6(t)
	defer dropSize6(t)
	code, _, errw := runCLI("-exp", "fig2", "-size", "6", "-bench", "go,gcc", "-tracestats", "-tracecompress=on")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errw)
	}
	for _, w := range []string{wname(t, "go"), wname(t, "gcc")} {
		if !strings.Contains(errw, w) {
			t.Errorf("tracestats missing stream %s:\n%s", w, errw)
		}
	}
	if !strings.Contains(errw, "MiB raw ->") {
		t.Errorf("tracestats missing per-stream raw/resident listing:\n%s", errw)
	}
}
