package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"rarpred/internal/cloak"
	"rarpred/internal/locality"
	"rarpred/internal/runerr"
	"rarpred/internal/trace"
	"rarpred/internal/workload"
)

// A replay pass is the unit of work for every experiment that consumes
// the recorded memory stream. The paper's method records each
// benchmark's committed stream once and sweeps every predictor
// configuration over it; a pass does the same for one workload: it
// acquires the stream once, decodes each chunk once (trace.Stream.Walk)
// and feeds it to every attached sink in turn.
//
// What members share is computed once per pass, in stages that see
// each chunk before any member does. A detector stage runs one
// dependence detector per distinct cloak.DetectorConfig and leaves the
// chunk's detection column (kind and source PC per load); the DDT
// detects at commit, so that column depends on the address stream
// alone. An engine stage runs one cloak prediction stage per distinct
// cloak.Config over its detector's column, and records a per-load
// outcome column when a member asks for one. A window stage runs one
// RAR locality analyzer per address window over that window's
// detection column. A stage's time is charged to the members reading
// it.
//
// Each (experiment × workload) cell is a member of its workload's pass.
// A member attaches its sinks and reads stages before the walk and
// builds its row in a finish step after it, and it stays a cell
// everywhere the cell is visible: its own row, error, journal entry and
// CellStat. Failures are isolated per member — a panic in one member's
// attach, sinks or finish fails that cell alone and drops its sinks; a
// panic in a stage fails exactly the members that read it, directly or
// through an engine on its column; the others finish.

// passRunner is implemented by cell runners whose cells join a replay
// pass instead of replaying the stream themselves (tracedCells).
type passRunner interface {
	CellRunner
	StreamKeyer
	// streamSize is the workload size the cell's stream is recorded at.
	streamSize(opt Options) int
	// join attaches the cell's sinks to m and returns the finish step
	// that builds the cell's row once the walk is over.
	join(opt Options, w workload.Workload, m *member) func() (any, error)
}

// member is one cell's seat in a replay pass.
type member struct {
	r      passRunner
	p      *pass
	visits []func(trace.Chunk)
	finish func() (any, error)

	row any
	err error
	// started reports the member attempted its acquisition or attached
	// with the run context alive.
	started bool
	// own is the time charged to this member: its acquisition attempt,
	// attach, sinks and finish, and its share of the stages it reads.
	own time.Duration
	// elapsed is own plus an equal share of the pass's uncharged time
	// (the decode), so a pass's members sum to its busy time.
	elapsed time.Duration
}

// attach registers sinks that see every event of the walk, in recorded
// order. Sinks that must observe each event together stay one combined
// sink; separate sinks see a chunk one after another.
func (m *member) attach(sinks ...trace.Sink) {
	for _, snk := range sinks {
		m.visit(func(c trace.Chunk) { c.Feed(snk) })
	}
}

// visit registers f to see every chunk of the walk after the pass's
// stages have, so the columns the member reads describe that chunk.
func (m *member) visit(f func(c trace.Chunk)) { m.visits = append(m.visits, f) }

// stream returns the workload's stream. It is valid from join on, so a
// finish step may replay it again (ablprofile's second phase).
func (m *member) stream() *trace.Stream { return m.p.tr }

// detections returns a reader of the pass's detection column for dc.
// Called from a visit, it returns the chunk's detections indexed like
// its events; a store's slot holds nothing meaningful.
func (m *member) detections(dc cloak.DetectorConfig) func() []cloak.Detection {
	d := m.p.detector(dc)
	d.use(m)
	return func() []cloak.Detection { return d.col }
}

// engineStats runs a cloak engine with cfg over the walk and returns a
// reader of its Stats, valid once the walk is over. Every member asking
// for the same cfg shares one engine, so nobody may feed it.
func (m *member) engineStats(cfg cloak.Config) func() cloak.Stats {
	return m.p.engine(cfg, m).pred.Stats
}

// outcomes is engineStats for a member that watches the engine per
// load: called from a visit, the reader returns the chunk's outcome
// column, indexed like its events (a store's slot holds nothing
// meaningful).
func (m *member) outcomes(cfg cloak.Config) func() []cloak.LoadOutcome {
	e := m.p.engine(cfg, m)
	e.record = true
	return func() []cloak.LoadOutcome { return e.outs }
}

// rarLocality returns the pass's RAR locality analyzer for an address
// window (0 is infinite), fed by the detector stage of that window's
// DDT. Every member asking for one window shares it, so it may only be
// read, in the finish step.
func (m *member) rarLocality(window int) *locality.RARLocality {
	p := m.p
	d := p.detector(cloak.DetectorConfig{Capacity: window, RecordLoads: true})
	d.use(m)
	a, ok := p.windows[window]
	if !ok {
		l := locality.NewDetectedRARLocality()
		a = &windowStage{a: l}
		a.feed = func(c trace.Chunk) {
			col := d.col
			for i, k := range c.Kinds {
				if trace.Kind(k) == trace.KindLoad {
					l.Observe(c.PCs[i], col[i])
				}
			}
		}
		p.windows[window] = a
		p.stages = append(p.stages, &a.stage)
	}
	a.use(m)
	return a.a
}

// fail records err as the member's outcome and drops its sinks.
func (m *member) fail(err error) {
	if m.err == nil {
		m.err = err
	}
	m.visits, m.finish = nil, nil
}

// run calls f under the member's isolation: the time is charged to the
// member, and a panic fails it with ErrWorkloadPanic.
func (m *member) run(w workload.Workload, f func()) {
	t0 := time.Now()
	defer func() {
		m.own += time.Since(t0)
		if r := recover(); r != nil {
			m.fail(runerr.FromPanic(w.Name, r, debug.Stack()))
		}
	}()
	f()
}

// acquire is the member's attempt at the pass's stream, bounded by
// Options.WorkloadTimeout like the rest of the cell.
func (m *member) acquire(ctx context.Context, opt Options, w workload.Workload) (tr *trace.Stream) {
	m.run(w, func() {
		actx := ctx
		if opt.WorkloadTimeout > 0 {
			var cancel context.CancelFunc
			actx, cancel = context.WithTimeout(ctx, opt.WorkloadTimeout)
			defer cancel()
		}
		t0 := time.Now()
		var err error
		tr, err = workloadStream(actx, opt, w, m.r.streamSize(opt), opt.maxInsts())
		if err != nil && errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
			err = deadlineError(time.Since(t0), opt.WorkloadTimeout, err)
		}
		if err != nil {
			m.fail(err)
		}
	})
	return tr
}

// deadlineError annotates an exceeded per-cell deadline with elapsed vs
// configured time ("deadline exceeded (12.3s > 10s)"), so the suite's
// !! lines tell a near-miss from a hard hang.
func deadlineError(elapsed, limit time.Duration, err error) error {
	return fmt.Errorf("%w (%.1fs > %s): %w", runerr.ErrDeadline, elapsed.Seconds(), limit, err)
}

// stage is one shared consumer of a pass: it sees each chunk before any
// member does, and its readers are the members that asked for it.
type stage struct {
	feed  func(c trace.Chunk)
	users []*member
}

// use records m as a reader of the stage.
func (s *stage) use(m *member) {
	if n := len(s.users); n == 0 || s.users[n-1] != m {
		s.users = append(s.users, m)
	}
}

// live reports whether any reader of the stage is still in the pass.
func (s *stage) live() bool {
	for _, m := range s.users {
		if m.err == nil {
			return true
		}
	}
	return false
}

// detectStage is one detector configuration's detector and, while a
// chunk is walked, its detection column.
type detectStage struct {
	stage
	det cloak.Detector
	col []cloak.Detection
}

// detect runs the detector over the chunk's events and fills the column.
func (d *detectStage) detect(c trace.Chunk) {
	if cap(d.col) < len(c.Kinds) {
		d.col = make([]cloak.Detection, len(c.Kinds))
	}
	col := d.col[:len(c.Kinds)]
	d.col = col
	for i, k := range c.Kinds {
		if trace.Kind(k) == trace.KindLoad {
			dep, _ := d.det.Load(c.Addrs[i], c.PCs[i])
			col[i] = cloak.Detection{Kind: dep.Kind, SourcePC: dep.SourcePC}
		} else {
			d.det.Store(c.Addrs[i], c.PCs[i])
		}
	}
}

// engineStage is one cloak configuration's prediction stage, fed its
// detector stage's column, and its outcome column when record is set.
type engineStage struct {
	stage
	pred   *cloak.Predictor
	det    *detectStage
	record bool
	outs   []cloak.LoadOutcome
}

// predict runs the prediction stage over the chunk's events.
func (e *engineStage) predict(c trace.Chunk) {
	col := e.det.col
	var outs []cloak.LoadOutcome
	if e.record {
		if cap(e.outs) < len(c.Kinds) {
			e.outs = make([]cloak.LoadOutcome, len(c.Kinds))
		}
		e.outs = e.outs[:len(c.Kinds)]
		outs = e.outs
	}
	for i, k := range c.Kinds {
		if trace.Kind(k) == trace.KindLoad {
			out := e.pred.Load(c.PCs[i], c.Values[i], col[i])
			if outs != nil {
				outs[i] = out
			}
		} else {
			e.pred.Store(c.PCs[i], c.Values[i])
		}
	}
}

// windowStage is one address window's RAR locality analyzer, fed its
// window's detection column.
type windowStage struct {
	stage
	a *locality.RARLocality
}

// pass is one workload's replay pass.
type pass struct {
	tr        *trace.Stream
	stages    []*stage // creation order: a stage follows the stages it reads
	detectors map[cloak.DetectorConfig]*detectStage
	engines   map[cloak.Config]*engineStage
	windows   map[int]*windowStage
}

func newPass() *pass {
	return &pass{
		detectors: make(map[cloak.DetectorConfig]*detectStage),
		engines:   make(map[cloak.Config]*engineStage),
		windows:   make(map[int]*windowStage),
	}
}

// detector returns the pass's detector stage for dc, creating it.
func (p *pass) detector(dc cloak.DetectorConfig) *detectStage {
	d, ok := p.detectors[dc]
	if !ok {
		d = &detectStage{det: cloak.NewDetector(dc)}
		d.feed = d.detect
		p.detectors[dc] = d
		p.stages = append(p.stages, &d.stage)
	}
	return d
}

// engine returns the pass's engine stage for cfg, creating it and its
// detector stage, and records m as a reader of both.
func (p *pass) engine(cfg cloak.Config, m *member) *engineStage {
	e, ok := p.engines[cfg]
	if !ok {
		e = &engineStage{pred: cloak.NewPredictor(cfg), det: p.detector(cfg.DetectorConfig())}
		e.feed = e.predict
		p.engines[cfg] = e
		p.stages = append(p.stages, &e.stage)
	}
	e.det.use(m)
	e.use(m)
	return e
}

// feeding reports whether the walk still has anyone to feed.
func (p *pass) feeding(ms []*member) bool {
	for _, m := range ms {
		if m.err == nil && len(m.visits) > 0 {
			return true
		}
	}
	for _, s := range p.stages {
		if s.live() {
			return true
		}
	}
	return false
}

// feedStages feeds one chunk to every stage someone still reads and
// charges its time to the live readers in equal shares. A panicking
// stage fails every member reading it.
func (p *pass) feedStages(w workload.Workload, c trace.Chunk) {
	for _, s := range p.stages {
		if !s.live() {
			continue
		}
		t0 := time.Now()
		func() {
			defer func() {
				if r := recover(); r != nil {
					err := runerr.FromPanic(w.Name, r, debug.Stack())
					for _, m := range s.users {
						m.fail(err)
					}
				}
			}()
			s.feed(c)
		}()
		spent, live := time.Since(t0), 0
		for _, m := range s.users {
			if m.err == nil {
				live++
			}
		}
		for _, m := range s.users {
			if m.err == nil {
				m.own += spent / time.Duration(live)
			}
		}
	}
}

// runPass runs one workload's replay pass over ms, its members in suite
// order, and leaves each member's row, error and elapsed time on it.
//
// Members try to acquire the stream in order until one succeeds: a
// failed attempt fails the member at hand and the next one retries, so
// a transient fault costs one cell and a healthy pass acquires once.
// The run context is polled once per chunk. Options.WorkloadTimeout
// bounds each member's acquisition attempt and, at chunk boundaries,
// its accumulated work (own time plus its share of the pass's).
func runPass(ctx context.Context, opt Options, w workload.Workload, ms []*member) {
	start := time.Now()
	p := newPass()
	for _, m := range ms {
		m.p = p
		if err := ctx.Err(); err != nil {
			m.fail(err)
			continue
		}
		m.started = true
		if p.tr == nil {
			if p.tr = m.acquire(ctx, opt, w); p.tr == nil {
				continue
			}
		}
		m.run(w, func() { m.finish = m.r.join(opt, w, m) })
	}

	if p.tr != nil && p.feeding(ms) {
		span := startSpan("pass/walk")
		p.tr.Walk(func(_ int, c trace.Chunk) bool {
			if err := ctx.Err(); err != nil {
				for _, m := range ms {
					m.fail(err)
				}
				return false
			}
			p.feedStages(w, c)
			for _, m := range ms {
				if m.err == nil && len(m.visits) > 0 {
					m.run(w, func() {
						for _, v := range m.visits {
							v(c)
						}
					})
				}
			}
			if opt.WorkloadTimeout > 0 {
				share := sharedTime(start, ms)
				for _, m := range ms {
					if work := m.own + share; m.err == nil && work > opt.WorkloadTimeout {
						m.fail(deadlineError(work, opt.WorkloadTimeout, context.DeadlineExceeded))
					}
				}
			}
			return p.feeding(ms)
		})
		span.End()
	}

	for _, m := range ms {
		if m.err == nil && m.finish != nil {
			finish := m.finish
			m.run(w, func() { m.row, m.err = finish() })
		}
	}
	share := sharedTime(start, ms)
	for _, m := range ms {
		m.elapsed = m.own + share
	}
}

// sharedTime is each member's equal share of the pass time so far that
// no member was charged for: the decode.
func sharedTime(start time.Time, ms []*member) time.Duration {
	shared := time.Since(start)
	for _, m := range ms {
		shared -= m.own
	}
	return max(shared, 0) / time.Duration(len(ms))
}

// addrSink adapts an analyzer that sees only (pc, addr) — the locality
// and distance analyzers, the profile collector — to a trace.Sink.
func addrSink(load, store func(pc, addr uint32)) trace.SinkFuncs {
	return trace.SinkFuncs{
		OnLoad:  func(pc, addr, _ uint32) { load(pc, addr) },
		OnStore: func(pc, addr, _ uint32) { store(pc, addr) },
	}
}

// engineSink adapts a cloak engine to a trace.Sink, discarding per-load
// outcomes.
func engineSink(e *cloak.Engine) trace.SinkFuncs {
	return trace.SinkFuncs{
		OnLoad:  func(pc, addr, value uint32) { e.Load(pc, addr, value) },
		OnStore: func(pc, addr, value uint32) { e.Store(pc, addr, value) },
	}
}
