package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rarpred/internal/experiments"
	"rarpred/internal/faultsim"
	"rarpred/internal/trace"
	"rarpred/internal/workload"
)

// The persistence tests drive run() in-process, so they share the
// process-wide trace cache with every other test. Each uses a unique
// -size (see main_test.go) and, where the disk tier must actually be
// read, evicts the relevant key from the memory cache first — in a real
// resume the process restarted and the memory cache is empty, which is
// exactly the state Drop reproduces.

// defaultMaxInsts mirrors Options.maxInsts()'s default, which is part
// of the cache key and so of the artifact filename.
const defaultMaxInsts = 2_000_000_000

func readBench(t *testing.T, path string) map[string]any {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func benchStoreField(t *testing.T, m map[string]any, field string) float64 {
	t.Helper()
	st, ok := m["store"].(map[string]any)
	if !ok {
		t.Fatalf("benchjson has no store section: %v", m)
	}
	v, ok := st[field].(float64)
	if !ok {
		t.Fatalf("store section missing %s: %v", field, st)
	}
	return v
}

func TestResumeRequiresStore(t *testing.T) {
	code, _, errw := runCLI("-exp", "fig2", "-resume")
	if code != 2 || !strings.Contains(errw, "-resume requires -store") {
		t.Fatalf("exit %d, stderr %q", code, errw)
	}
}

// TestStorePersistsAndServesAcrossRuns: a second run over the same
// store directory reads its traces from disk instead of re-simulating —
// the cross-process flow, with the memory cache evicted to stand in for
// the process restart.
func TestStorePersistsAndServesAcrossRuns(t *testing.T) {
	dir := t.TempDir()
	bench1 := filepath.Join(dir, "b1.json")
	code, out1, errw := runCLI("-exp", "fig2", "-size", "5", "-bench", "go,gcc",
		"-store", dir, "-benchjson", bench1)
	if code != 0 {
		t.Fatalf("first run exit %d: %s", code, errw)
	}
	m1 := readBench(t, bench1)
	if benchStoreField(t, m1, "bytes_written") == 0 || benchStoreField(t, m1, "disk_misses") == 0 {
		t.Fatalf("first run wrote nothing to the store: %v", m1["store"])
	}
	if v := m1["schema_version"].(float64); v != benchSchemaVersion {
		t.Fatalf("benchjson schema_version = %v, want %d", v, benchSchemaVersion)
	}

	for _, ab := range []string{"go", "gcc"} {
		experiments.TraceCache().Drop(trace.Key{Workload: wname(t, ab), Size: 5, MaxInsts: defaultMaxInsts})
	}
	bench2 := filepath.Join(dir, "b2.json")
	code, out2, errw := runCLI("-exp", "fig2", "-size", "5", "-bench", "go,gcc",
		"-store", dir, "-benchjson", bench2)
	if code != 0 {
		t.Fatalf("second run exit %d: %s", code, errw)
	}
	if out1 != out2 {
		t.Fatalf("disk-served run differs:\n%s\nvs\n%s", out1, out2)
	}
	m2 := readBench(t, bench2)
	if benchStoreField(t, m2, "disk_hits") < 2 {
		t.Fatalf("second run did not read from disk: %v", m2["store"])
	}
}

// TestResumeReplaysJournaledCells: the full resume flow through the CLI
// — run, resume over the same store, byte-identical report with every
// cell replayed from the journal.
func TestResumeReplaysJournaledCells(t *testing.T) {
	dir := t.TempDir()
	code, ref, errw := runCLI("-exp", "fig2,table51", "-size", "7", "-bench", "go,tom", "-store", dir)
	if code != 0 {
		t.Fatalf("first run exit %d: %s", code, errw)
	}
	bench := filepath.Join(dir, "b.json")
	code, out, errw := runCLI("-exp", "fig2,table51", "-size", "7", "-bench", "go,tom",
		"-store", dir, "-resume", "-benchjson", bench)
	if code != 0 {
		t.Fatalf("resume exit %d: %s", code, errw)
	}
	if !strings.Contains(errw, "resuming: 4 cell(s)") {
		t.Fatalf("resume did not report journaled cells: %q", errw)
	}
	if out != ref {
		t.Fatalf("resumed report differs:\n--- fresh ---\n%s--- resumed ---\n%s", ref, out)
	}
	if got := benchStoreField(t, readBench(t, bench), "resumed_cells"); got != 4 {
		t.Fatalf("resumed_cells = %v, want 4", got)
	}
}

// TestResumeAfterInterruption is the kill-mid-suite drill: a run cut off
// by its deadline journals only what completed; resuming without the
// deadline finishes the rest, and the combined report is byte-identical
// to one from an uninterrupted sweep. The journal fingerprint
// deliberately excludes -timeout so exactly this recovery is legal.
func TestResumeAfterInterruption(t *testing.T) {
	// Each run must start the way a fresh process would: no size-9
	// streams resident in the shared memory cache.
	dropSize9 := func() {
		for _, ab := range []string{"go", "gcc"} {
			experiments.TraceCache().Drop(trace.Key{Workload: wname(t, ab), Size: 9, MaxInsts: defaultMaxInsts})
			experiments.TraceCache().Drop(trace.Key{Workload: wname(t, ab), Size: 9, MaxInsts: defaultMaxInsts, Timing: true})
		}
	}

	refDir := t.TempDir()
	code, ref, errw := runCLI("-exp", "all", "-size", "9", "-bench", "go,gcc", "-store", refDir)
	if code != 0 {
		t.Fatalf("reference run exit %d: %s", code, errw)
	}

	dir := t.TempDir()
	// A short deadline cuts the sweep off partway: some cells journal,
	// some never run. Any split (even none completed) must resume
	// cleanly.
	dropSize9()
	code, _, _ = runCLI("-exp", "all", "-size", "9", "-bench", "go,gcc",
		"-store", dir, "-timeout", "500ms")
	if code == 0 {
		t.Skip("sweep finished inside the interruption deadline; nothing to resume")
	}

	dropSize9()
	code, out, errw := runCLI("-exp", "all", "-size", "9", "-bench", "go,gcc",
		"-store", dir, "-resume")
	if code != 0 {
		t.Fatalf("resume exit %d: %s", code, errw)
	}
	if out != ref {
		t.Fatalf("resume after interruption differs from uninterrupted run:\n--- reference ---\n%s--- resumed ---\n%s", ref, out)
	}
}

// TestCorruptArtifactQuarantinedAndRerecorded: a damaged on-disk trace
// is detected by checksum, quarantined, and the suite completes by
// re-recording live — the stored corruption never reaches a result.
func TestCorruptArtifactQuarantinedAndRerecorded(t *testing.T) {
	dir := t.TempDir()
	code, ref, errw := runCLI("-exp", "fig2", "-size", "11", "-bench", "go", "-store", dir)
	if code != 0 {
		t.Fatalf("first run exit %d: %s", code, errw)
	}
	key := trace.Key{Workload: wname(t, "go"), Size: 11, MaxInsts: defaultMaxInsts}
	experiments.TraceCache().Drop(key)

	// Flip one bit in the middle of the stored artifact.
	arts, err := filepath.Glob(filepath.Join(dir, "traces", wname(t, "go")+"_*_mem.rart"))
	if err != nil || len(arts) != 1 {
		t.Fatalf("artifact glob: %v, %v", arts, err)
	}
	data, err := os.ReadFile(arts[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(arts[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	bench := filepath.Join(dir, "b.json")
	code, out, errw := runCLI("-exp", "fig2", "-size", "11", "-bench", "go",
		"-store", dir, "-benchjson", bench)
	if code != 0 {
		t.Fatalf("run over corrupt artifact exit %d: %s", code, errw)
	}
	if out != ref {
		t.Fatalf("re-recorded run differs from original:\n%s\nvs\n%s", out, ref)
	}
	if got := benchStoreField(t, readBench(t, bench), "quarantines"); got != 1 {
		t.Fatalf("quarantines = %v, want 1", got)
	}
	if _, err := os.Stat(arts[0] + ".quarantined"); err != nil {
		t.Fatalf("corrupt artifact not quarantined: %v", err)
	}
}

// TestDiskFaultDuringStoreIsNonFatal: injected write failures while
// persisting cost durability, never the run.
func TestDiskFaultDuringStoreIsNonFatal(t *testing.T) {
	defer faultsim.Reset()
	faultsim.InjectDisk(wname(t, "go"), faultsim.DiskFault{Kind: faultsim.DiskENOSPC})
	dir := t.TempDir()
	bench := filepath.Join(dir, "b.json")
	code, _, errw := runCLI("-exp", "fig2", "-size", "21", "-bench", "go",
		"-store", dir, "-benchjson", bench)
	if code != 0 {
		t.Fatalf("run with failing store exit %d: %s", code, errw)
	}
	m := readBench(t, bench)
	if benchStoreField(t, m, "save_errors") != 1 {
		t.Fatalf("store stats under injected ENOSPC: %v", m["store"])
	}
}

// TestDeadDiskNeverFailsTheRun: with every artifact write failing
// (ENOSPC on each .rart path), the sweep still exits 0 and prints
// exactly the report of a run without -store; the lost persistence
// shows up only as save errors in -benchjson.
func TestDeadDiskNeverFailsTheRun(t *testing.T) {
	defer faultsim.Reset()
	args := []string{"-exp", "table51,fig2", "-size", "4"}
	code, ref, errw := runCLI(args...)
	if code != 0 {
		t.Fatalf("reference run exit %d: %s", code, errw)
	}
	// Empty the memory tier so the stored run records (and tries to
	// persist) every stream afresh.
	for _, w := range workload.All() {
		experiments.TraceCache().Drop(trace.Key{Workload: w.Name, Size: 4, MaxInsts: defaultMaxInsts})
	}

	faultsim.InjectDisk(".rart", faultsim.DiskFault{Kind: faultsim.DiskENOSPC})
	dir := t.TempDir()
	bench := filepath.Join(dir, "b.json")
	code, out, errw := runCLI(append(args, "-store", dir, "-benchjson", bench)...)
	if code != 0 {
		t.Fatalf("run over a dead disk exit %d: %s", code, errw)
	}
	if out != ref {
		t.Fatalf("dead-disk report differs:\n--- without -store ---\n%s--- dead disk ---\n%s", ref, out)
	}
	if got := benchStoreField(t, readBench(t, bench), "save_errors"); got == 0 {
		t.Fatalf("save_errors = 0 with every artifact write failing")
	}
}
