package main

import (
	"math"
	"os"
	"strings"
	"testing"

	"rarpred/internal/experiments"
	"rarpred/internal/faultsim"
	"rarpred/internal/workload"
)

func readFile(path string) (string, error) {
	data, err := os.ReadFile(path)
	return string(data), err
}

// TestSuiteOutputDeterministic is the scheduler's contract: `-exp all`
// prints byte-identical stdout under a single-worker pool and a wide
// pool, and both equal the sequential per-experiment renderer the -check
// shadow oracle compares against.
func TestSuiteOutputDeterministic(t *testing.T) {
	ws := []string{"go", "gcc"}
	base := []string{"-exp", "all", "-size", "3", "-bench", strings.Join(ws, ",")}
	run := func(extra ...string) string {
		t.Helper()
		args := append(append([]string{}, base...), extra...)
		code, out, errw := runCLI(args...)
		if code != 0 {
			t.Fatalf("%v: exit %d; stderr:\n%s", extra, code, errw)
		}
		return out
	}
	opt := experiments.Options{Size: 3}
	for _, ab := range ws {
		w, _ := workload.ByAbbrev(ab)
		opt.Workloads = append(opt.Workloads, w)
	}
	seq, err := renderSequential(opt, experiments.All())
	if err != nil {
		t.Fatal(err)
	}
	p1 := run("-p", "1")
	pN := run("-p", "4")
	if seq != p1 {
		t.Errorf("-p 1 output differs from sequential:\n--- seq ---\n%s\n--- p 1 ---\n%s", seq, p1)
	}
	if seq != pN {
		t.Errorf("-p 4 output differs from sequential:\n--- seq ---\n%s\n--- p 4 ---\n%s", seq, pN)
	}

	// -check arms the oracles and invariant sweeps; none of them may
	// perturb the report, at any parallelism. These runs also exercise
	// the sequential shadow comparison end to end (a divergence would
	// exit non-zero inside run above).
	for _, extra := range [][]string{{"-check", "-p", "1"}, {"-check", "-p", "4"}} {
		if out := run(extra...); out != seq {
			t.Errorf("%v output differs from sequential:\n--- seq ---\n%s\n--- checked ---\n%s", extra, seq, out)
		}
	}
}

// TestSchedulerIsolatesPanickingCells: under the shared pool, a
// workload that panics on every recording attempt fails exactly its own
// (experiment × workload) cells — both experiments still render their
// other rows and annotate only the faulted workload, at any
// parallelism.
func TestSchedulerIsolatesPanickingCells(t *testing.T) {
	defer faultsim.Reset()
	faultsim.Inject(wname(t, "gcc"), faultsim.Fault{Kind: faultsim.Panic, Times: 100})

	code, out, errw := runCLI("-exp", "table51,fig2", "-keepgoing",
		"-size", "23", "-bench", "go,gcc", "-p", "4")
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, errw)
	}
	if n := strings.Count(out, "partial result"); n != 2 {
		t.Errorf("%d partial annotations, want 2 (gcc cell in each experiment):\n%s", n, out)
	}
	for _, id := range []string{"table51", "fig2"} {
		if !strings.Contains(out, "== "+id+":") {
			t.Errorf("experiment %s missing from output:\n%s", id, out)
		}
	}
	// Every per-workload failure annotation must name the faulted
	// workload — the healthy cell shares the pool but not the blast
	// radius.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "!!   ") && !strings.Contains(line, wname(t, "gcc")) {
			t.Errorf("failure annotation for an unexpected workload: %q", line)
		}
	}
}

// TestBenchJSONWritten: -benchjson emits the machine-readable suite
// report with per-experiment cells and scheduler utilization. Schema v10
// carries each experiment's busy_seconds, the sum of its cells'
// seconds, a machine fingerprint and the streams the run used, and no
// supervision section, store breaker stats or store retries count, even
// with -store armed.
func TestBenchJSONWritten(t *testing.T) {
	path := t.TempDir() + "/suite.json"
	code, _, errw := runCLI("-exp", "table51,fig2", "-size", "3",
		"-bench", "go,gcc", "-store", t.TempDir(), "-benchjson", path)
	if code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, errw)
	}
	data, err := readFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"experiments"`, `"scheduler"`, `"trace_cache"`,
		`"utilization"`, `"cells"`, `"workload"`} {
		if !strings.Contains(data, want) {
			t.Errorf("bench report lacks %s:\n%s", want, data)
		}
	}

	m := readBench(t, path)
	if v := m["schema_version"].(float64); v != 10 {
		t.Errorf("schema_version = %v, want 10", v)
	}
	mach, ok := m["machine"].(map[string]any)
	if !ok {
		t.Fatalf("bench report has no machine section:\n%s", data)
	}
	for _, k := range []string{"cpu_model", "nproc", "gomaxprocs", "go_version", "commit", "size"} {
		if _, ok := mach[k]; !ok {
			t.Errorf("machine section lacks %s:\n%s", k, data)
		}
	}
	if v := mach["size"].(float64); v != 3 {
		t.Errorf("machine size = %v, want 3", v)
	}
	if v := mach["nproc"].(float64); v < 1 {
		t.Errorf("machine nproc = %v, want at least 1", v)
	}
	streams, _ := m["trace_cache"].(map[string]any)["streams"].([]any)
	for _, w := range []string{wname(t, "go"), wname(t, "gcc")} {
		found := false
		for _, raw := range streams {
			s := raw.(map[string]any)
			found = found || (s["workload"] == w && s["size"].(float64) == 3 && s["raw_bytes"].(float64) > 0)
		}
		if !found {
			t.Errorf("trace_cache streams lack %s at size 3:\n%s", w, data)
		}
	}
	for _, raw := range m["experiments"].([]any) {
		e := raw.(map[string]any)
		busy, ok := e["busy_seconds"].(float64)
		if !ok {
			t.Fatalf("experiment %v lacks busy_seconds:\n%s", e["id"], data)
		}
		var sum float64
		for _, c := range e["cells"].([]any) {
			sum += c.(map[string]any)["seconds"].(float64)
		}
		if math.Abs(busy-sum) > 1e-6 {
			t.Errorf("%v: busy_seconds %v, want the cells' sum %v", e["id"], busy, sum)
		}
	}
	if _, ok := m["supervise"]; ok {
		t.Errorf("bench report carries a supervise section:\n%s", data)
	}
	st, ok := m["store"].(map[string]any)
	if !ok {
		t.Fatalf("bench report has no store section:\n%s", data)
	}
	if _, ok := st["breaker"]; ok {
		t.Errorf("store section carries breaker stats:\n%s", data)
	}
	if _, ok := st["retries"]; ok {
		t.Errorf("store section carries a retries count:\n%s", data)
	}
}

// TestBenchJSONOmitsSupervisionWhenUnarmed: a plain run without -store
// emits neither a supervise section nor store breaker stats, matching
// the v10 schema.
func TestBenchJSONOmitsSupervisionWhenUnarmed(t *testing.T) {
	path := t.TempDir() + "/suite.json"
	code, _, errw := runCLI("-exp", "fig2", "-size", "14", "-bench", "go,gcc",
		"-benchjson", path)
	if code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, errw)
	}
	data, err := readFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(data, `"supervise"`) {
		t.Errorf("unarmed run emitted a supervise section:\n%s", data)
	}
	if strings.Contains(data, `"breaker"`) {
		t.Errorf("run without -store emitted breaker stats:\n%s", data)
	}
}
