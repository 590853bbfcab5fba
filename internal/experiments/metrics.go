package experiments

import (
	"math"

	"rarpred/internal/metrics"
)

// Suite-level instruments on the default registry. RunSuite resets the
// gauges at suite start (a process runs suites sequentially), workers
// update them as cells move through the pool, and the -progress ticker
// and /metrics endpoint read them lock-free:
//
//	suite.cells_total / suite.cells_done — scheduled (non-resumed) cells
//	suite.queue_depth                    — cells not yet picked up
//	suite.workers / suite.workers_busy   — pool size and occupancy
//	suite.cost_total_ms / cost_done_ms   — LPT cost estimates, for ETA
//
// Wall time inside cells is attributed through spans (spans_ns{cell},
// {cell/record}, {pass/walk}, {cell/replay}, {assemble}).
var (
	suiteCellsTotal  = metrics.Default().Gauge("suite.cells_total")
	suiteCellsDone   = metrics.Default().Gauge("suite.cells_done")
	suiteQueueDepth  = metrics.Default().Gauge("suite.queue_depth")
	suiteWorkers     = metrics.Default().Gauge("suite.workers")
	suiteWorkersBusy = metrics.Default().Gauge("suite.workers_busy")
	suiteCostTotal   = metrics.Default().Gauge("suite.cost_total_ms")
	suiteCostDone    = metrics.Default().Gauge("suite.cost_done_ms")
)

func init() {
	// The process-wide stream cache reports through the same registry
	// the CLI snapshots, so -benchjson, -progress, and /metrics all see
	// one set of books.
	traceCache.RegisterMetrics(metrics.Default(), "trace.cache")
}

// startSpan opens a phase span on the default registry.
func startSpan(path string) metrics.Span { return metrics.Default().StartSpan(path) }

// estimateCosts turns per-job LPT costs (seconds; +Inf = unknown) into
// per-job ETA estimates: unknown cells take the mean of the known ones,
// or one second each when nothing is known, so a fresh run still shows
// proportional progress.
func estimateCosts(cost []float64) []float64 {
	known, sum := 0, 0.0
	for _, c := range cost {
		if !math.IsInf(c, 1) {
			known++
			sum += c
		}
	}
	fill := 1.0
	if known > 0 {
		fill = sum / float64(known)
	}
	est := make([]float64, len(cost))
	for i, c := range cost {
		if math.IsInf(c, 1) {
			est[i] = fill
		} else {
			est[i] = c
		}
	}
	return est
}
