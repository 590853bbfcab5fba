// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 2 and Section 5). Each experiment is registered
// under the paper's table/figure id (table51, fig2, fig5, fig6, fig7a,
// fig7b, table52, fig9, fig10) plus this repository's ablations, and
// prints rows/series in the paper's layout so results can be compared
// side by side (see EXPERIMENTS.md).
package experiments

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"rarpred/internal/faultsim"
	"rarpred/internal/funcsim"
	"rarpred/internal/runerr"
	"rarpred/internal/trace"
	"rarpred/internal/workload"
)

// Options parameterises an experiment run.
type Options struct {
	// Size is the workload size parameter (0 selects each experiment's
	// default: workload.ReferenceSize for accuracy studies,
	// workload.TimingSize for the cycle-level studies).
	Size int

	// Workloads restricts the suite (nil = all 18 analogs).
	Workloads []workload.Workload

	// MaxInsts bounds each functional run as a safety net (0 = default).
	MaxInsts uint64

	// Parallelism bounds concurrent workload simulations (0 = GOMAXPROCS).
	Parallelism int

	// Live forces the functional experiments onto the pre-cache path:
	// each experiment assembles its workloads fresh and re-simulates them
	// with the baseline Step interpreter over paged memory, instead of
	// replaying the shared memory-trace cache. The results are identical
	// either way (both paths commit the exact same stream); Live exists so
	// the equivalence can be asserted and the pipeline's speedup measured
	// against the costs it removed.
	Live bool

	// Context cancels the whole run: simulators poll it every
	// funcsim.InterruptEvery committed instructions and the runner
	// aborts (hard error, no partial result) once it is done. nil means
	// context.Background().
	Context context.Context

	// WorkloadTimeout bounds each workload's simulation inside an
	// experiment. An exceeded deadline fails only that workload — it is
	// collected as a runerr.ErrDeadline failure while the rest of the
	// suite completes (0 = no per-workload bound).
	WorkloadTimeout time.Duration

	// Journal, when non-nil, makes the suite run resumable: RunSuite
	// consults it before scheduling each (experiment × workload) cell —
	// a journaled cell's row is decoded and delivered without
	// re-simulation — and records each successfully completed cell's
	// encoded row as it retires. The implementation lives in
	// internal/store; this seam keeps experiments free of the
	// persistence layer.
	Journal SuiteJournal

	// CellCost, when non-nil, estimates one (experiment × workload)
	// cell's runtime in seconds so RunSuite can order its job queue
	// longest-processing-time-first, shrinking the makespan tail where a
	// long cell picked up last overhangs an otherwise drained pool. The
	// second return reports whether an estimate exists; cells with no
	// estimate sort ahead of estimated ones (an unknown cell may be the
	// one that must record a stream — starting it early is the safe
	// bet). Ordering changes only which worker runs a cell when; results
	// still assemble and deliver in suite order, so output is
	// byte-identical with or without it. nil keeps construction order.
	CellCost func(exp, workload string) (float64, bool)

	// Check arms the run's differential oracle: the first time each
	// cached reference stream is served, it is re-recorded live on the
	// independent baseline interpreter and the two streams compared
	// event by event (trace.DiffStreams). A divergence fails the
	// workload with the first differing event. The cloak/pipeline
	// invariant sweeps are armed separately via their packages'
	// SetSelfCheck (cmd/rarsim -check does both).
	Check bool
}

func (o Options) workloads() []workload.Workload {
	if o.Workloads != nil {
		return o.Workloads
	}
	return workload.All()
}

func (o Options) size(def int) int {
	if o.Size > 0 {
		return o.Size
	}
	return def
}

func (o Options) maxInsts() uint64 {
	if o.MaxInsts > 0 {
		return o.MaxInsts
	}
	return 2_000_000_000
}

func (o Options) parallelism() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

// Result is what every experiment produces: a rendered, paper-layout
// report. Concrete result types expose the underlying numbers.
type Result interface{ fmt.Stringer }

// PartialResult wraps an experiment's Result when one or more workloads
// failed: the embedded Result covers the survivors and Fails carries one
// typed error per failed workload (each a runerr.WorkloadError stamped
// with the experiment id). String renders the underlying report followed
// by the failure annotations, so partial output is never mistaken for a
// complete run.
type PartialResult struct {
	Result
	Fails []*runerr.WorkloadError
}

// Failures returns the per-workload errors behind the annotations.
func (p *PartialResult) Failures() []*runerr.WorkloadError { return p.Fails }

// String renders the survivors' report plus one annotation per failure.
func (p *PartialResult) String() string {
	var sb strings.Builder
	sb.WriteString(p.Result.String())
	fmt.Fprintf(&sb, "!! partial result: %d workload(s) failed\n", len(p.Fails))
	for _, f := range p.Fails {
		msg := f.Error()
		if i := strings.IndexByte(msg, '\n'); i >= 0 {
			msg = msg[:i] + " ..." // keep panic stacks out of the report
		}
		fmt.Fprintf(&sb, "!!   %s\n", msg)
	}
	return sb.String()
}

// annotate wraps res as partial when any workload failed.
func annotate(res Result, fails []*runerr.WorkloadError) Result {
	if len(fails) == 0 {
		return res
	}
	return &PartialResult{Result: res, Fails: fails}
}

// Experiment is one runnable reproduction of a paper table or figure.
type Experiment struct {
	// ID is the paper's identifier (e.g. "fig6") or an ablation id.
	ID string
	// Title describes what the paper reports there.
	Title string
	// Run executes the experiment standalone: a private workload pool
	// over Cells plus Assemble (set at registration).
	Run func(Options) (Result, error)
	// Cells decomposes the experiment into independent per-workload
	// units, letting the suite scheduler pool them with every other
	// experiment's cells (see RunSuite).
	Cells CellRunner
}

var registry []Experiment

// register adds e to the registry. Every experiment is decomposed into
// cells, so a nil Cells panics at init. Run is derived from Cells and
// attributes every error leaving the experiment layer: hard errors gain
// the experiment id prefix and per-workload failures in a PartialResult
// are stamped with it (completing the runerr.WorkloadError taxonomy).
func register(e Experiment) {
	if e.Cells == nil {
		panic("experiments: " + e.ID + " registered without Cells")
	}
	id, r := e.ID, e.Cells
	e.Run = func(opt Options) (Result, error) {
		res, err := runCells(opt, r)
		return stamp(id, res, err)
	}
	registry = append(registry, e)
}

// stamp attributes an experiment's outcome to its id: hard errors gain
// the id prefix, per-workload failures inside a PartialResult are
// stamped with it. Both the standalone Run wrapper and the suite
// scheduler funnel through here, so attribution is identical on either
// path.
func stamp(id string, res Result, err error) (Result, error) {
	if err != nil {
		return nil, fmt.Errorf("%s: %w", id, err)
	}
	if p, ok := res.(*PartialResult); ok {
		for _, f := range p.Fails {
			if f.Experiment == "" {
				f.Experiment = id
			}
		}
	}
	return res, nil
}

// All returns the experiments in registration (paper) order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns all experiment ids, sorted.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for _, e := range registry {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}

// CellRunner decomposes an experiment into independent per-workload
// cells plus an assembly step. It is the contract the suite scheduler
// pools work through: one (experiment × workload) cell is the unit of
// scheduling, and Assemble turns the surviving cells back into the
// experiment's paper-layout Result. Cell must be safe to call for
// different workloads concurrently.
type CellRunner interface {
	// Cell runs the experiment's unit of work for one workload under
	// ctx (the run context plus any per-workload deadline).
	Cell(ctx context.Context, opt Options, w workload.Workload) (any, error)
	// Assemble combines the surviving cells (suite order, index-aligned
	// with ws) and the per-workload failures into the Result.
	Assemble(opt Options, ws []workload.Workload, rows []any, fails []*runerr.WorkloadError) (Result, error)
}

// SuiteJournal is the resume seam between the suite scheduler and the
// durable run journal. Lookup returns the encoded row a previous run
// journaled for one cell; Record durably appends a cell that just
// completed. Both must be safe for concurrent use. Only successful
// cells are journaled — failures re-run on resume, because a failure
// may have been environmental (deadline, fault) and deserves a fresh
// attempt.
type SuiteJournal interface {
	Lookup(exp, workload string) ([]byte, bool)
	// Record appends one completed cell's encoded row.
	Record(exp, workload string, row []byte) error
}

// RowCodec is implemented by cell runners whose rows can round-trip
// through the suite run journal. The typed cellRunner implements it
// with gob over the concrete row type, so every experiment built from
// cells/tracedCells/timingCells journals for free; a runner without the
// interface simply is not journaled (its cells re-run on resume).
type RowCodec interface {
	// EncodeRow serializes one cell's row (as returned by Cell).
	EncodeRow(row any) ([]byte, error)
	// DecodeRow reverses EncodeRow into the concrete row type Assemble
	// expects.
	DecodeRow(data []byte) (any, error)
}

// StreamKeyer is implemented by cell runners whose cells consume the
// recorded reference stream. The suite scheduler uses it to draw the
// dependency edge from each pending cell to its workload's stream,
// pinning the trace-cache entry (trace.Cache.Retain) until the cell has
// run so eviction never drops a stream that is still needed.
type StreamKeyer interface {
	// StreamKey returns the trace-cache key the cell will consume, or
	// ok=false when the run bypasses the cache (Options.Live).
	StreamKey(opt Options, w workload.Workload) (key trace.Key, ok bool)
}

// cellRunner adapts a typed per-workload function and assembler to the
// boxed CellRunner contract.
type cellRunner[T any] struct {
	cell     func(ctx context.Context, opt Options, w workload.Workload) (T, error)
	assemble func(opt Options, ws []workload.Workload, rows []T, fails []*runerr.WorkloadError) (Result, error)
}

func (r cellRunner[T]) Cell(ctx context.Context, opt Options, w workload.Workload) (any, error) {
	return r.cell(ctx, opt, w)
}

func (r cellRunner[T]) Assemble(opt Options, ws []workload.Workload, rows []any, fails []*runerr.WorkloadError) (Result, error) {
	typed := make([]T, len(rows))
	for i, row := range rows {
		typed[i] = row.(T)
	}
	return r.assemble(opt, ws, typed, fails)
}

// EncodeRow implements RowCodec: gob over the concrete row type. Row
// types are plain structs of exported fields (plus an embedded
// workload.Workload, whose unexported build function gob skips and the
// workload registry rehydrates), so gob needs no registration.
func (r cellRunner[T]) EncodeRow(row any) ([]byte, error) {
	t, ok := row.(T)
	if !ok {
		return nil, fmt.Errorf("journal: row is %T, want %T", row, *new(T))
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&t); err != nil {
		return nil, fmt.Errorf("journal: encoding row: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeRow implements RowCodec.
func (r cellRunner[T]) DecodeRow(data []byte) (any, error) {
	var t T
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&t); err != nil {
		return nil, fmt.Errorf("journal: decoding row: %w", err)
	}
	return t, nil
}

// cells builds a CellRunner from a typed per-workload function and
// assembler (the cycle-level experiments, which re-simulate live).
func cells[T any](
	cell func(ctx context.Context, opt Options, w workload.Workload) (T, error),
	assemble func(opt Options, ws []workload.Workload, rows []T, fails []*runerr.WorkloadError) (Result, error),
) CellRunner {
	return cellRunner[T]{cell: cell, assemble: assemble}
}

// tracedRunner is the CellRunner of an experiment that consumes the
// committed memory stream: its cells are members of their workload's
// replay pass (see runPass), and StreamKey exposes the stream's cache
// key for the scheduler to group and pin passes by.
type tracedRunner[T any] struct {
	cellRunner[T]
	defSize int
	attach  func(opt Options, w workload.Workload, m *member) func() (T, error)
}

func (r tracedRunner[T]) StreamKey(opt Options, w workload.Workload) (trace.Key, bool) {
	if opt.Live {
		return trace.Key{}, false
	}
	return trace.Key{Workload: w.Name, Size: r.streamSize(opt), MaxInsts: opt.maxInsts()}, true
}

func (r tracedRunner[T]) streamSize(opt Options) int { return opt.size(r.defSize) }

func (r tracedRunner[T]) join(opt Options, w workload.Workload, m *member) func() (any, error) {
	finish := r.attach(opt, w, m)
	return func() (any, error) { return finish() }
}

// Cell runs the cell alone, as a one-member replay pass.
func (r tracedRunner[T]) Cell(ctx context.Context, opt Options, w workload.Workload) (any, error) {
	m := &member{r: r}
	runPass(ctx, opt, w, []*member{m})
	return m.row, m.err
}

// tracedCells builds a CellRunner for experiments that only consume the
// committed memory reference stream (all the non-timing experiments;
// the Section 5.6 cycle-level studies need full register-state
// simulation and use cells). attach joins the cell to its workload's
// replay pass — attaching sinks to m, or reading shared engines through
// m.engineStats — and returns the finish step that builds the row after
// the walk. The stream comes from the shared cache, recorded on first
// use; opt.Live bypasses the cache and re-records per cell.
func tracedCells[T any](
	defSize int,
	attach func(opt Options, w workload.Workload, m *member) func() (T, error),
	assemble func(opt Options, ws []workload.Workload, rows []T, fails []*runerr.WorkloadError) (Result, error),
) CellRunner {
	return tracedRunner[T]{
		cellRunner: cellRunner[T]{assemble: assemble},
		defSize:    defSize,
		attach:     attach,
	}
}

// runCell executes one (experiment × workload) cell under the shared
// isolation policy: a panic is recovered into a typed
// runerr.ErrWorkloadPanic, and Options.WorkloadTimeout bounds the cell
// with its own deadline. Both the standalone per-experiment pool
// (runCells) and the suite scheduler (RunSuite) execute cells through
// this wrapper, so a cell fails the same way on either path. An
// exceeded per-workload deadline is annotated with elapsed-vs-configured
// time ("deadline exceeded (12.3s > 10s)") so the suite's !! lines
// distinguish a near-miss from a hard hang; the parent run's own
// deadline ending takes the plain path, because that bound was not this
// cell's. A pass runner's cell is a one-member replay pass, which
// applies the same policy per member itself.
func runCell(ctx context.Context, opt Options, r CellRunner, w workload.Workload) (row any, err error) {
	if _, ok := r.(passRunner); ok {
		return r.Cell(ctx, opt, w)
	}
	defer func() {
		if p := recover(); p != nil {
			err = runerr.FromPanic(w.Name, p, debug.Stack())
		}
	}()
	wctx := ctx
	if opt.WorkloadTimeout > 0 {
		var cancel context.CancelFunc
		wctx, cancel = context.WithTimeout(ctx, opt.WorkloadTimeout)
		defer cancel()
		start := time.Now()
		defer func() {
			if err != nil && errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
				err = deadlineError(time.Since(start), opt.WorkloadTimeout, err)
			}
		}()
	}
	return r.Cell(wctx, opt, w)
}

// collectCells splits per-cell outcomes into surviving rows (suite
// order, index-aligned with their workloads) and typed failures.
// Failures are collected instead of aborting on the first, so the suite
// always produces every row it can. The error return is reserved for
// every workload failing — with no survivors there is nothing to
// render.
func collectCells(ws []workload.Workload, rows []any, errs []error) ([]any, []workload.Workload, []*runerr.WorkloadError, error) {
	var (
		outRows []any
		outWs   []workload.Workload
		fails   []*runerr.WorkloadError
	)
	for i, w := range ws {
		if errs[i] == nil {
			outRows = append(outRows, rows[i])
			outWs = append(outWs, w)
			continue
		}
		fails = append(fails, runerr.New(w.Name, runerr.Classify(errs[i])))
	}
	if len(outRows) == 0 && len(fails) > 0 {
		joined := make([]error, len(fails))
		for i, f := range fails {
			joined[i] = f
		}
		return nil, nil, nil, fmt.Errorf("every workload failed: %w", errors.Join(joined...))
	}
	return outRows, outWs, fails, nil
}

// runCells is the standalone executor behind every Experiment.Run: the
// runner's cells execute once per workload over a private bounded pool,
// with runCell's isolation, and the survivors are assembled into the
// Result. The error return is reserved for hard aborts: the run context
// ending, or every workload failing.
func runCells(opt Options, r CellRunner) (Result, error) {
	ctx := opt.ctx()
	ws := opt.workloads()
	rows := make([]any, len(ws))
	errs := make([]error, len(ws))
	sem := make(chan struct{}, opt.parallelism())
	var wg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		go func(i int, w workload.Workload) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			rows[i], errs[i] = runCell(ctx, opt, r, w)
		}(i, w)
	}
	wg.Wait()

	// The run itself ending is a hard abort, not a per-workload failure:
	// whatever rows completed are moot because the caller is going away.
	if err := ctx.Err(); err != nil {
		return nil, runerr.Classify(err)
	}
	outRows, outWs, fails, err := collectCells(ws, rows, errs)
	if err != nil {
		return nil, err
	}
	return assembleCells(opt, r, outWs, outRows, fails)
}

// assembleCells invokes the experiment's assembler under the same panic
// isolation as its cells: a panicking Assemble fails its experiment
// instead of the process — and, under the suite scheduler, instead of
// the pool worker that happened to retire the last cell (which still
// owns queued cells and their stream pins).
func assembleCells(opt Options, r CellRunner, ws []workload.Workload, rows []any, fails []*runerr.WorkloadError) (res Result, err error) {
	defer startSpan("assemble").End()
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, runerr.FromPanic("assemble", p, debug.Stack())
		}
	}()
	return r.Assemble(opt, ws, rows, fails)
}

// parallelSims runs n independent deterministic simulations of one cell
// concurrently — fig9's five pipeline configurations, say — so a
// multi-variant cell uses as many cores as it has variants instead of
// one. sim(i) must only write state owned by variant i. A panic in any
// variant is re-raised in the caller's goroutine, keeping the per-cell
// isolation policy intact; errors are reported lowest-index first so
// the outcome is deterministic. The context is checked once per
// simulation, preserving the serial path's "no in-loop poll, bounded
// staleness" semantics.
func parallelSims(ctx context.Context, n int, sim func(i int) error) error {
	errs := make([]error, n)
	var (
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked any
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panicMu.Lock()
					if panicked == nil {
						panicked = p
					}
					panicMu.Unlock()
				}
			}()
			if err := ctx.Err(); err != nil {
				errs[i] = err
				return
			}
			errs[i] = sim(i)
		}(i)
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// traceCache is the process-wide store of committed reference streams.
// Every functional experiment in a run (and every run in a process)
// shares it, so `rarsim -exp all` simulates each workload once and
// replays the stream into every analyzer.
var traceCache = trace.NewCache(trace.DefaultBudget)

// TraceCache exposes the shared stream cache (for budget control and
// statistics reporting in cmd/rarsim).
func TraceCache() *trace.Cache { return traceCache }

// workloadStream obtains one workload's committed reference stream under
// the resilience policy. The degradation order on the cached path is:
// shared cache -> (corrupt stream? drop the poisoned entry and re-record
// live with the baseline interpreter) -> error, which the caller records
// as an annotated per-workload failure. Fault-injection hooks
// (faultsim) reach the interpreter through the record closure, so
// injected panics, stalls, and corruption exercise exactly the paths a
// real crash would take.
func workloadStream(ctx context.Context, opt Options, w workload.Workload, size int, maxInsts uint64) (*trace.Stream, error) {
	if opt.Live {
		// The pre-cache harness re-assembled the workload and
		// Step-interpreted it over paged memory for every experiment;
		// model all three costs.
		tr, err := trace.RecordStreamBaselineContext(ctx, w.Assemble(size), maxInsts)
		if err != nil {
			return nil, err
		}
		if tr.Truncated {
			return nil, funcsim.ErrMaxInsts
		}
		return tr, nil
	}

	key := trace.Key{Workload: w.Name, Size: size, MaxInsts: maxInsts}
	record := func() (*trace.Stream, error) {
		defer startSpan("cell/record").End()
		tr, err := trace.RecordStreamContext(ctx, w.Program(size), maxInsts, faultsim.Hook(w.Name, ctx))
		if err == nil && faultsim.Enabled() && faultsim.ShouldCorrupt(w.Name) {
			// One spurious event desynchronises the tally from the
			// execution profile, which Validate below must catch.
			tr.Append(trace.KindLoad, 0, 0, 0)
		}
		return tr, err
	}
	tr, err := traceCache.GetContext(ctx, key, record)
	if err == nil {
		if verr := tr.Validate(); verr != nil {
			// Graceful degradation: never serve a corrupt stream. Drop
			// the poisoned entry so later lookups re-record, and retry
			// live on the independent baseline interpreter before
			// declaring the workload failed.
			traceCache.Drop(key)
			tr, err = trace.RecordStreamBaselineContext(ctx, w.Assemble(size), maxInsts)
			if err == nil {
				err = tr.Validate()
			}
			if err != nil {
				err = fmt.Errorf("%w; live re-record also failed: %w", verr, err)
			}
		}
	}
	if err != nil {
		return nil, err
	}
	if tr.Truncated {
		return nil, funcsim.ErrMaxInsts
	}
	if opt.Check {
		if err := verifyStreamOnce(ctx, key, tr, w, size, maxInsts); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// streamVerified tracks which cache keys the differential oracle has
// already cross-checked, so a -check run pays the live re-record once
// per stream rather than once per consuming cell.
var streamVerified sync.Map // trace.Key -> struct{}

// verifyStreamOnce is the replay-vs-live differential oracle: the served
// stream must be event-for-event identical to a fresh recording on the
// baseline Step interpreter (an independent implementation of the same
// semantics — different memory model, no recording fast path). The first
// caller per key performs the comparison; concurrent callers may race to
// verify the same key once each, which is only redundant work.
func verifyStreamOnce(ctx context.Context, key trace.Key, tr *trace.Stream, w workload.Workload, size int, maxInsts uint64) error {
	if _, done := streamVerified.LoadOrStore(key, struct{}{}); done {
		return nil
	}
	live, err := trace.RecordStreamBaselineContext(ctx, w.Assemble(size), maxInsts)
	if err != nil {
		streamVerified.Delete(key) // transient; let a retry re-verify
		return fmt.Errorf("check: live re-record for oracle failed: %w", err)
	}
	if err := trace.DiffStreams(tr, live); err != nil {
		return fmt.Errorf("check: replayed stream diverges from live baseline: %w", err)
	}
	return nil
}

// meansByClass computes the SPECint, SPECfp and overall arithmetic means
// of a metric extracted from each row.
func meansByClass[T any](ws []workload.Workload, rows []T, metric func(T) float64) (intMean, fpMean, all float64) {
	var si, sf, sa float64
	var ni, nf int
	for i, w := range ws {
		v := metric(rows[i])
		sa += v
		if w.Class == workload.Int {
			si += v
			ni++
		} else {
			sf += v
			nf++
		}
	}
	if ni > 0 {
		intMean = si / float64(ni)
	}
	if nf > 0 {
		fpMean = sf / float64(nf)
	}
	if len(ws) > 0 {
		all = sa / float64(len(ws))
	}
	return
}
