package experiments

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rarpred/internal/metrics"
	"rarpred/internal/runerr"
	"rarpred/internal/trace"
)

// SuiteItem is one experiment's completed outcome, delivered to the
// caller in suite (paper) order as soon as it and every experiment
// before it have finished.
type SuiteItem struct {
	// Index is the experiment's position in the suite.
	Index int
	Exp   Experiment
	// Result and Err mirror Experiment.Run's contract (Err is stamped
	// with the experiment id; a partial run arrives as *PartialResult).
	Result Result
	Err    error
	// NotRun reports that the run context ended before any of the
	// experiment's cells started; Err carries the context error.
	NotRun bool
	// Elapsed spans the experiment's first cell starting to its result
	// assembling. Under the shared pool experiments overlap, so these
	// durations sum to more than the suite's wall time.
	Elapsed time.Duration
	// Cells holds per-cell timings in workload order.
	Cells []CellStat
}

// CellStat times one (experiment × workload) cell.
type CellStat struct {
	Workload string
	Elapsed  time.Duration
	Failed   bool
	// Resumed reports the cell was replayed from the suite run journal
	// (Options.Journal) instead of simulated: a previous interrupted run
	// completed it and journaled its row.
	Resumed bool
}

// SuiteStats summarises a RunSuite call for benchmarking: utilization is
// Busy / (Wall × Workers).
type SuiteStats struct {
	Experiments int
	Cells       int
	Workers     int
	Wall        time.Duration
	// Busy is total time workers spent executing cells (excludes idle
	// waits on the jobs queue and delivery).
	Busy time.Duration
}

// suiteExp is one experiment's in-flight state under the pool.
type suiteExp struct {
	exp   Experiment
	rows  []any
	errs  []error
	stats []CellStat

	pending   atomic.Int32 // cells not yet finished
	startOnce sync.Once
	start     time.Time
	started   atomic.Bool // any cell began with the run context alive
}

// suiteJob is one unit of the pool: a single cell, or a workload's
// replay pass over its member cells.
type suiteJob struct {
	wi  int
	eis []int // the cell's experiment; a pass's members in suite order
	// key is the stream the job consumes, pinned from construction until
	// the job has run when pin is set.
	key   trace.Key
	pin   bool
	costs []float64 // per-cell cost estimates, seconds (+Inf = unknown)
}

// cost is the job's LPT cost: the sum of its cells' costs, unknown
// (+Inf) if any cell's is.
func (j *suiteJob) cost() float64 {
	var sum float64
	for _, c := range j.costs {
		sum += c
	}
	return sum
}

// RunSuite executes the experiments as one work pool: every cell from
// every experiment feeds a single queue drained by
// Options.parallelism() workers, so a slow experiment no longer
// serialises the suite behind it — its cells interleave with
// everyone else's. Cells of stream-consuming experiments are grouped
// into one replay pass job per (workload, stream key) that acquires the
// stream once, decodes each chunk once and runs each distinct shared
// cloak engine once for all of them (see runPass); every other cell is
// its own job under runCell's isolation (panic capture, per-workload
// deadline), identical to the standalone per-experiment pools. Each
// job pins its stream's cache entry (trace.Cache.Retain) from
// construction until it has run, so eviction cannot drop a stream that
// queued jobs still need; a pass job drops its memory stream from the
// cache once it has run, since no other job of the suite reads it.
//
// A pass's members stay (experiment × workload) cells everywhere a cell
// is visible: each gets its own row, error, journal entry and CellStat,
// SuiteStats.Cells and the -progress gauges count cells, not jobs, and
// a member's Elapsed is its own time plus an equal share of the pass's
// shared time.
//
// Results are assembled the moment an experiment's last cell retires and
// delivered in suite order — deliver(item) is called exactly once per
// experiment, ordered, from whichever worker completed the ordering
// gap. deliver returning false stops the suite: the remaining jobs are
// drained without running and nothing further is delivered.
//
// If the run context ends mid-suite, experiments whose cells never
// started are delivered with NotRun set; experiments caught mid-flight
// get the context error as a hard failure, exactly like their
// standalone Run would.
//
// With Options.Journal set the suite is resumable: cells a previous run
// journaled are prefilled from their decoded rows (CellStat.Resumed)
// and never scheduled — no simulation, no stream pin, no seat in a pass
// (a pass whose cells are all journaled never touches its stream) — and
// each cell that completes successfully in this run is journaled as it
// retires. Because delivery order, row order, and assembly are
// unchanged, a resumed run's aggregate output is byte-identical to an
// uninterrupted one.
func RunSuite(opt Options, exps []Experiment, deliver func(SuiteItem) bool) SuiteStats {
	begin := time.Now()
	runCtx := opt.ctx()
	// The internal cancel propagates a deliver=false stop to every
	// not-yet-run job; the run context's own end is observed through it
	// too.
	ctx, cancel := context.WithCancel(runCtx)
	defer cancel()

	ws := opt.workloads()
	states := make([]*suiteExp, len(exps))
	var jobs []*suiteJob
	passes := make(map[trace.Key]*suiteJob)
	var fullyResumed []int // experiments with every cell journaled
	cells := 0
	for ei, e := range exps {
		st := &suiteExp{
			exp:   e,
			rows:  make([]any, len(ws)),
			errs:  make([]error, len(ws)),
			stats: make([]CellStat, len(ws)),
		}
		// Prefill cells the journal already holds: the decoded row lands
		// exactly where the worker would have put it, so assembly cannot
		// tell a resumed cell from a fresh one. An undecodable journal row
		// (foreign build's gob layout, say) just re-runs the cell — resume
		// is an optimisation, never a correctness risk.
		resumed := make([]bool, len(ws))
		if codec, ok := e.Cells.(RowCodec); ok && opt.Journal != nil {
			for wi, w := range ws {
				enc, hit := opt.Journal.Lookup(e.ID, w.Name)
				if !hit {
					continue
				}
				row, derr := codec.DecodeRow(enc)
				if derr != nil {
					continue
				}
				resumed[wi] = true
				st.rows[wi] = row
				st.stats[wi] = CellStat{Workload: w.Name, Resumed: true}
			}
		}
		_, isPass := e.Cells.(passRunner)
		remaining := 0
		for wi, w := range ws {
			if resumed[wi] {
				continue
			}
			remaining++
			cost := math.Inf(1)
			if opt.CellCost != nil {
				if sec, ok := opt.CellCost(e.ID, w.Name); ok {
					cost = sec
				}
			}
			j := &suiteJob{wi: wi}
			if sk, ok := e.Cells.(StreamKeyer); ok {
				j.key, j.pin = sk.StreamKey(opt, w)
			}
			// A stream-consuming cell joins its workload's pass. Under
			// Options.Live there is no shared stream to group by, so each
			// cell is a pass of its own and records its own stream.
			if isPass && j.pin {
				if pj, ok := passes[j.key]; ok {
					j = pj
				} else {
					passes[j.key] = j
				}
			}
			if len(j.eis) == 0 {
				jobs = append(jobs, j)
				// Pin the stream this job will consume, so the cache
				// cannot evict it between now and the pool reaching the
				// job. Resumed cells never touch their stream, so they
				// take no pin.
				if j.pin {
					traceCache.Retain(j.key)
				}
			}
			j.eis = append(j.eis, ei)
			j.costs = append(j.costs, cost)
		}
		cells += remaining
		st.pending.Store(int32(remaining))
		if remaining == 0 {
			st.startOnce.Do(func() { st.start = time.Now() })
			fullyResumed = append(fullyResumed, ei)
		}
		states[ei] = st
	}

	// In-order delivery: completed experiments buffer until the suite
	// prefix before them is delivered.
	var (
		delMu   sync.Mutex
		ready   = make([]*SuiteItem, len(exps))
		next    int
		stopped bool
	)
	complete := func(ei int, item SuiteItem) {
		delMu.Lock()
		defer delMu.Unlock()
		ready[ei] = &item
		for next < len(exps) && ready[next] != nil {
			if !stopped && !deliver(*ready[next]) {
				stopped = true
				cancel()
			}
			ready[next] = nil // release the Result once delivered
			next++
		}
	}

	assemble := func(ei int) {
		st := states[ei]
		item := SuiteItem{Index: ei, Exp: st.exp, Elapsed: time.Since(st.start), Cells: st.stats}
		switch {
		case runCtx.Err() != nil && !st.started.Load():
			item.NotRun = true
			item.Err = runCtx.Err()
		case runCtx.Err() != nil:
			// Hard abort mid-experiment, exactly like runCells (and the
			// error is stamped with the experiment id, like Run's).
			_, item.Err = stamp(st.exp.ID, nil, runerr.Classify(runCtx.Err()))
		default:
			outRows, outWs, fails, err := collectCells(ws, st.rows, st.errs)
			if err == nil {
				item.Result, err = assembleCells(opt, st.exp.Cells, outWs, outRows, fails)
			}
			item.Result, item.Err = stamp(st.exp.ID, item.Result, err)
		}
		if item.Err != nil {
			item.Result = nil
		}
		complete(ei, item)
	}

	// Experiments the journal completed outright assemble before the pool
	// starts: their rows are all present, and in-order delivery buffers
	// them behind any still-running predecessors as usual.
	for _, ei := range fullyResumed {
		assemble(ei)
	}

	// Longest-processing-time-first: with a cost model, pull the slowest
	// jobs to the front of the queue so the pool never drains down to
	// one worker grinding a long job it picked up last. Jobs with an
	// unknown cell sort first (an unknown cell may be the one that has
	// to record its workload's stream — starting it early is the safe
	// bet); the sort is stable, so with no estimates at all the original
	// order survives. Only execution order changes: stream pins were
	// taken above and delivery is buffered into suite order regardless.
	// Without a cost model (rarsim sets none) jobs run in construction
	// order: the suite opens with stream experiments, so every
	// workload's pass is queued ahead of the timing cells.
	if opt.CellCost != nil {
		sort.SliceStable(jobs, func(a, b int) bool { return jobs[a].cost() > jobs[b].cost() })
	}

	// Reset the suite gauges the -progress ticker reads.
	workers := opt.parallelism()
	suiteCellsTotal.Set(int64(cells))
	suiteCellsDone.Set(0)
	suiteQueueDepth.Set(int64(cells))
	suiteWorkers.Set(int64(workers))
	suiteWorkersBusy.Set(0)

	var busy int64 // nanoseconds, atomic
	// retire records one finished cell and assembles its experiment once
	// the experiment's last cell is in.
	retire := func(ei, wi int, m *member) {
		st := states[ei]
		w := ws[wi]
		row, err, elapsed := m.row, m.err, m.elapsed
		if m.started {
			st.started.Store(true)
		}
		metrics.Default().ObserveSpan("cell", elapsed)
		suiteCellsDone.Add(1)
		if err == nil && opt.Journal != nil {
			// Journal the finished cell durably, best effort: a failed
			// append costs only this cell's resumability, never the run.
			if codec, ok := st.exp.Cells.(RowCodec); ok {
				if enc, eerr := codec.EncodeRow(row); eerr == nil {
					_ = opt.Journal.Record(st.exp.ID, w.Name, enc)
				}
			}
		}
		atomic.AddInt64(&busy, int64(elapsed))
		st.rows[wi], st.errs[wi] = row, err
		st.stats[wi] = CellStat{Workload: w.Name, Elapsed: elapsed, Failed: err != nil}
		if st.pending.Add(-1) == 0 {
			assemble(ei)
		}
	}

	queue := make(chan *suiteJob, len(jobs))
	for _, j := range jobs {
		queue <- j
	}
	close(queue)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				for _, ei := range j.eis {
					st := states[ei]
					st.startOnce.Do(func() { st.start = time.Now() })
				}
				suiteQueueDepth.Add(-int64(len(j.eis)))
				suiteWorkersBusy.Add(1)
				w := ws[j.wi]
				// A cell job's outcome rides in a member too, so both
				// kinds of job retire the same way.
				ms := make([]*member, len(j.eis))
				_, isPass := states[j.eis[0]].exp.Cells.(passRunner)
				if isPass {
					for k, ei := range j.eis {
						ms[k] = &member{r: states[ei].exp.Cells.(passRunner)}
					}
					runPass(ctx, opt, w, ms)
				} else {
					m := &member{err: ctx.Err()}
					cellStart := time.Now()
					if m.started = m.err == nil; m.started {
						m.row, m.err = runCell(ctx, opt, states[j.eis[0]].exp.Cells, w)
					}
					m.elapsed = time.Since(cellStart)
					ms[0] = m
				}
				if j.pin {
					traceCache.Release(j.key)
					// A pass job is the only reader of its memory stream in
					// this suite (the timing cells read the workload's
					// instruction stream, a separate key), so the stream
					// leaves memory with it; the cache's ledger still
					// lists it for the run's reports.
					if isPass {
						traceCache.Drop(j.key)
					}
				}
				suiteWorkersBusy.Add(-1)
				for k, m := range ms {
					retire(j.eis[k], j.wi, m)
				}
			}
		}()
	}
	wg.Wait()

	return SuiteStats{
		Experiments: len(exps),
		Cells:       cells,
		Workers:     workers,
		Wall:        time.Since(begin),
		Busy:        time.Duration(atomic.LoadInt64(&busy)),
	}
}
