package main

import (
	"strings"
	"testing"

	"rarpred/internal/experiments"
	"rarpred/internal/trace"
)

// Sealed (compressed) chunks are the only resident trace form. The
// -tracestats test uses size 6, which no other CLI test uses, so it
// lists only the streams it recorded itself.

func dropSize6(t *testing.T) {
	t.Helper()
	for _, ab := range []string{"go", "gcc"} {
		experiments.TraceCache().Drop(trace.Key{Workload: wname(t, ab), Size: 6, MaxInsts: defaultMaxInsts})
	}
}

// TestCompressBadValueExitsTwo: the retired raw-resident switch and
// the retired -p alias are unknown flags, a usage error.
func TestCompressBadValueExitsTwo(t *testing.T) {
	for _, flag := range []string{"-tracecompress=off", "-parallelism=4"} {
		code, _, errw := runCLI("-exp", "fig2", flag)
		name := strings.SplitN(flag, "=", 2)[0]
		if code != 2 || !strings.Contains(errw, "flag provided but not defined: "+name) {
			t.Errorf("%s: exit %d, stderr %q; want unknown-flag usage error", flag, code, errw)
		}
	}
}

// TestTraceStatsListsStreams: -tracestats itemizes every resident
// stream with raw and resident sizes.
func TestTraceStatsListsStreams(t *testing.T) {
	dropSize6(t)
	defer dropSize6(t)
	code, _, errw := runCLI("-exp", "fig2", "-size", "6", "-bench", "go,gcc", "-tracestats")
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
