package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rarpred/internal/metrics"
)

// TestMonitoredStdoutByteIdentical is the tentpole's observability
// contract: turning on -progress and -httpmon must not perturb the
// suite report on stdout by a single byte — all monitoring output goes
// to stderr or the HTTP server.
func TestMonitoredStdoutByteIdentical(t *testing.T) {
	base := []string{"-exp", "table51,fig2", "-size", "3", "-bench", "go,gcc"}
	code, plain, errw := runCLI(base...)
	if code != 0 {
		t.Fatalf("plain run exit %d; stderr:\n%s", code, errw)
	}
	args := append(append([]string{}, base...), "-progress", "-httpmon", "127.0.0.1:0")
	code, monitored, errw := runCLI(args...)
	if code != 0 {
		t.Fatalf("monitored run exit %d; stderr:\n%s", code, errw)
	}
	if !strings.Contains(errw, "monitoring on http://") {
		t.Errorf("-httpmon did not announce its address on stderr:\n%s", errw)
	}
	if !strings.Contains(errw, "rarsim: ") {
		t.Errorf("-progress produced no status line on stderr:\n%s", errw)
	}
	if plain != monitored {
		t.Errorf("monitored stdout differs from plain:\n--- plain ---\n%s\n--- monitored ---\n%s",
			plain, monitored)
	}
}

// TestHTTPMonServesMetricsAndPprof drives the monitor server directly:
// /metrics returns a decodable registry snapshot containing the shared
// instruments, the pprof index answers, and shutdown returns cleanly.
func TestHTTPMonServesMetricsAndPprof(t *testing.T) {
	var errw strings.Builder
	shutdown, err := startHTTPMon("127.0.0.1:0", &errw)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	// The announce line is the documented way to learn the bound port.
	line := errw.String()
	start := strings.Index(line, "http://")
	if start < 0 {
		t.Fatalf("no address announced: %q", line)
	}
	base := strings.TrimSpace(line[start:])
	base = strings.TrimSuffix(base, "/metrics")

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	var snap metrics.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decoding /metrics: %v", err)
	}
	// The trace cache registers on the default registry at package init,
	// so its instruments must be visible even before any run.
	if _, ok := snap.Counters["trace.cache.hits"]; !ok {
		t.Errorf("snapshot lacks trace.cache.hits; counters: %v", snap.Counters)
	}
	if _, ok := snap.Gauges["trace.cache.budget"]; !ok {
		t.Errorf("snapshot lacks trace.cache.budget; gauges: %v", snap.Gauges)
	}

	pp, err := http.Get(base + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	pp.Body.Close()
	if pp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status %d", pp.StatusCode)
	}
}

// TestBenchJSONMetricsConsistent: schema v5 embeds the registry
// snapshot, and because the legacy trace_cache section and the snapshot
// read the same atomics, the two views in one report must agree
// exactly.
func TestBenchJSONMetricsConsistent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	code, _, errw := runCLI("-exp", "table51,fig2", "-size", "3",
		"-bench", "go,gcc", "-benchjson", path)
	if code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, errw)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		SchemaVersion int `json:"schema_version"`
		TraceCache    struct {
			Hits               uint64 `json:"hits"`
			Misses             uint64 `json:"misses"`
			Evictions          uint64 `json:"evictions"`
			TraceRawBytes      int64  `json:"trace_raw_bytes"`
			TraceResidentBytes int64  `json:"trace_resident_bytes"`
		} `json:"trace_cache"`
		Metrics metrics.Snapshot `json:"metrics"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.SchemaVersion != benchSchemaVersion {
		t.Fatalf("schema_version = %d, want %d", rep.SchemaVersion, benchSchemaVersion)
	}
	for name, want := range map[string]uint64{
		"trace.cache.hits":      rep.TraceCache.Hits,
		"trace.cache.misses":    rep.TraceCache.Misses,
		"trace.cache.evictions": rep.TraceCache.Evictions,
	} {
		if got := rep.Metrics.Counters[name]; got != want {
			t.Errorf("metrics counter %s = %d, legacy section says %d", name, got, want)
		}
	}
	if got := rep.Metrics.Gauges["trace.cache.bytes"]; got != rep.TraceCache.TraceResidentBytes {
		t.Errorf("metrics gauge trace.cache.bytes = %d, legacy section says %d",
			got, rep.TraceCache.TraceResidentBytes)
	}
	if got := rep.Metrics.Gauges["trace.cache.raw_bytes"]; got != rep.TraceCache.TraceRawBytes {
		t.Errorf("metrics gauge trace.cache.raw_bytes = %d, legacy section says %d",
			got, rep.TraceCache.TraceRawBytes)
	}
	// The run simulated something, so the throughput counter moved and
	// the suite gauges retired every cell.
	if rep.Metrics.Counters["funcsim.insts_committed"] == 0 {
		t.Error("funcsim.insts_committed = 0 after a suite run")
	}
	if done, total := rep.Metrics.Gauges["suite.cells_done"], rep.Metrics.Gauges["suite.cells_total"]; done != total || total == 0 {
		t.Errorf("suite cells done/total = %d/%d, want equal and non-zero", done, total)
	}
	// Per-cell spans landed in the histogram family.
	h, ok := rep.Metrics.Histograms["spans_ns{cell}"]
	if !ok || h.Count == 0 {
		t.Errorf("spans_ns{cell} missing or empty: %+v", h)
	}
}

// benchDoc renders a minimal parseable benchjson payload whose single
// cell takes sec seconds — enough for loadBenchSeconds to distinguish
// which file it read.
func benchDoc(sec float64) string {
	return fmt.Sprintf(`{"experiments":[{"id":"e","cells":[{"workload":"w","seconds":%g}]}]}`, sec)
}

// TestLoadBenchSecondsPrefersNewerFile covers the cost-model staleness
// bug: when both the -benchjson path and BENCH_suite.json exist, the
// more recently modified file wins; an exact mtime tie keeps the
// explicitly named path; and a corrupt newer file falls through to the
// older one rather than discarding estimates.
func TestLoadBenchSecondsPrefersNewerFile(t *testing.T) {
	dir := t.TempDir()
	t.Chdir(dir)
	named := filepath.Join(dir, "last.json")
	fallback := "BENCH_suite.json"
	old := time.Now().Add(-time.Hour)
	write := func(path, content string, mtime time.Time) {
		t.Helper()
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(path, mtime, mtime); err != nil {
			t.Fatal(err)
		}
	}
	secondsOf := func(m map[[2]string]float64) float64 {
		t.Helper()
		if m == nil {
			t.Fatal("loadBenchSeconds returned nil")
		}
		return m[[2]string{"e", "w"}]
	}

	// Fallback strictly newer than the named file: fallback wins.
	write(named, benchDoc(1), old)
	write(fallback, benchDoc(2), old.Add(time.Minute))
	if got := secondsOf(loadBenchSeconds(named)); got != 2 {
		t.Errorf("newer BENCH_suite.json ignored: got %g seconds, want 2", got)
	}

	// Named file strictly newer: named wins.
	write(named, benchDoc(1), old.Add(2*time.Minute))
	if got := secondsOf(loadBenchSeconds(named)); got != 1 {
		t.Errorf("newer -benchjson file ignored: got %g seconds, want 1", got)
	}

	// Exact tie: the explicitly named path wins.
	write(named, benchDoc(1), old)
	write(fallback, benchDoc(2), old)
	if got := secondsOf(loadBenchSeconds(named)); got != 1 {
		t.Errorf("mtime tie did not prefer the named file: got %g seconds, want 1", got)
	}

	// Corrupt newer file: fall through to the older parseable one.
	write(named, "not json", old.Add(time.Minute))
	if got := secondsOf(loadBenchSeconds(named)); got != 2 {
		t.Errorf("corrupt newer file did not fall through: got %g seconds, want 2", got)
	}

	// No named path at all: fallback alone.
	if got := secondsOf(loadBenchSeconds("")); got != 2 {
		t.Errorf("empty -benchjson path: got %g seconds, want 2", got)
	}
}
