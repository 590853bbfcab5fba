package experiments

import (
	"sync"
	"testing"

	"rarpred/internal/metrics"
	"rarpred/internal/workload"
)

// TestSuiteLPTCostTieKeepsConstructionOrder covers the cost-model tie
// (ISSUE 9 satellite): when every cell reports the same cost the stable
// sort must leave the queue in construction (experiment-major) order,
// so two runs of one suite schedule identically and a benchjson file
// and journal that agree on seconds cannot reorder anything.
func TestSuiteLPTCostTieKeepsConstructionOrder(t *testing.T) {
	ws := workload.All()[:3]
	var mu sync.Mutex
	var order []string
	exps := []Experiment{
		orderedExperiment("synthT1", &mu, &order),
		orderedExperiment("synthT2", &mu, &order),
	}
	opt := Options{
		Workloads:   ws,
		Parallelism: 1,
		CellCost:    func(exp, wl string) (float64, bool) { return 2.5, true },
	}
	renderSuite(t, opt, exps)

	want := []string{
		"synthT1/" + ws[0].Name, "synthT1/" + ws[1].Name, "synthT1/" + ws[2].Name,
		"synthT2/" + ws[0].Name, "synthT2/" + ws[1].Name, "synthT2/" + ws[2].Name,
	}
	if len(order) != len(want) {
		t.Fatalf("ran %d cells, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("tied-cost order[%d] = %s, want construction order %v", i, order[i], want)
		}
	}
}

// TestSuiteGaugesAndSpans: after a suite run the registry's gauges have
// retired every scheduled cell, the queue and busy-worker gauges are
// back to zero, and each cell produced a span observation.
func TestSuiteGaugesAndSpans(t *testing.T) {
	ws := workload.All()[:3]
	var mu sync.Mutex
	var order []string
	exps := []Experiment{
		orderedExperiment("synthG1", &mu, &order),
		orderedExperiment("synthG2", &mu, &order),
	}
	before := metrics.Default().Snapshot().Histograms["spans_ns{cell}"].Count
	renderSuite(t, Options{Workloads: ws, Parallelism: 2}, exps)

	s := metrics.Default().Snapshot()
	cells := int64(len(exps) * len(ws))
	if got := s.Gauges["suite.cells_total"]; got != cells {
		t.Fatalf("suite.cells_total = %d, want %d", got, cells)
	}
	if got := s.Gauges["suite.cells_done"]; got != cells {
		t.Fatalf("suite.cells_done = %d, want %d", got, cells)
	}
	if got := s.Gauges["suite.queue_depth"]; got != 0 {
		t.Fatalf("suite.queue_depth = %d after the run, want 0", got)
	}
	if got := s.Gauges["suite.workers_busy"]; got != 0 {
		t.Fatalf("suite.workers_busy = %d after the run, want 0", got)
	}
	if got := s.Gauges["suite.workers"]; got != 2 {
		t.Fatalf("suite.workers = %d, want 2", got)
	}
	if got := s.Histograms["spans_ns{cell}"].Count - before; got != uint64(cells) {
		t.Fatalf("spans_ns{cell} grew by %d, want %d", got, cells)
	}
}
