package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"rarpred/internal/cloak"
	"rarpred/internal/runerr"
	"rarpred/internal/trace"
	"rarpred/internal/workload"
)

// A replay pass is the unit of work for every experiment that consumes
// the recorded memory stream. The paper's method records each
// benchmark's committed stream once and sweeps every predictor
// configuration over it; a pass does the same for one workload: it
// acquires the stream once, decodes each chunk once (trace.Stream.Walk)
// and feeds it to every attached sink in turn, and runs each distinct
// stats-only cloak engine once however many cells read its Stats.
//
// Each (experiment × workload) cell is a member of its workload's pass.
// A member attaches its sinks before the walk and builds its row in a
// finish step after it, and it stays a cell everywhere the cell is
// visible: its own row, error, journal entry and CellStat. Failures are
// isolated per member — a panic in one member's attach, sinks or finish
// fails that cell alone and drops its sinks; the others finish.

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
	sinks  []trace.Sink
	finish func() (any, error)

	row any
	err error
	// started reports the member attempted its acquisition or attached
	// with the run context alive.
	started bool
	// own is the time charged to this member alone: its acquisition
	// attempt, attach, sinks and finish.
	own time.Duration
	// elapsed is own plus an equal share of the pass's uncharged time
	// (decode and shared engines), so a pass's members sum to its busy
	// time.
	elapsed time.Duration
}

// attach registers sinks that see every event of the walk, in recorded
// order. Sinks that must observe each event together stay one combined
// sink; separate sinks see a chunk one after another.
func (m *member) attach(sinks ...trace.Sink) { m.sinks = append(m.sinks, sinks...) }

// stream returns the workload's stream. It is valid from join on, so a
// finish step may replay it again (ablprofile's second phase).
func (m *member) stream() *trace.Stream { return m.p.tr }

// engineStats runs a cloak engine with cfg over the walk and returns a
// reader of its Stats, valid once the walk is over. Every member asking
// for the same cfg shares one engine, so nobody may feed it or watch it
// per load; a consumer that needs per-load outcomes keeps a private
// engine on its own sink.
func (m *member) engineStats(cfg cloak.Config) func() cloak.Stats {
	p := m.p
	e, ok := p.engines[cfg]
	if !ok {
		eng := cloak.New(cfg)
		e = &sharedEngine{eng: eng, sink: engineSink(eng)}
		p.engines[cfg] = e
		p.order = append(p.order, e)
	}
	e.users = append(e.users, m)
	return e.eng.Stats
}

// fail records err as the member's outcome and drops its sinks.
func (m *member) fail(err error) {
	if m.err == nil {
		m.err = err
	}
	m.sinks, m.finish = nil, nil
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

// sharedEngine is one stats-only cloak engine of a pass and the members
// reading it.
type sharedEngine struct {
	eng   *cloak.Engine
	sink  trace.Sink
	users []*member
}

// live reports whether any reader of the engine is still in the pass.
func (e *sharedEngine) live() bool {
	for _, m := range e.users {
		if m.err == nil {
			return true
		}
	}
	return false
}

// pass is one workload's replay pass.
type pass struct {
	tr      *trace.Stream
	engines map[cloak.Config]*sharedEngine
	order   []*sharedEngine // creation order, so feeding is deterministic
}

// feeding reports whether the walk still has anyone to feed.
func (p *pass) feeding(ms []*member) bool {
	for _, m := range ms {
		if m.err == nil && len(m.sinks) > 0 {
			return true
		}
	}
	for _, e := range p.order {
		if e.live() {
			return true
		}
	}
	return false
}

// feedEngines feeds one chunk to every shared engine someone still
// reads. A panicking engine fails every member reading it.
func (p *pass) feedEngines(w workload.Workload, c trace.Chunk) {
	for _, e := range p.order {
		if !e.live() {
			continue
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					err := runerr.FromPanic(w.Name, r, debug.Stack())
					for _, m := range e.users {
						m.fail(err)
					}
				}
			}()
			c.Feed(e.sink)
		}()
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
	p := &pass{engines: make(map[cloak.Config]*sharedEngine)}
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
			p.feedEngines(w, c)
			for _, m := range ms {
				if m.err == nil && len(m.sinks) > 0 {
					m.run(w, func() {
						for _, snk := range m.sinks {
							c.Feed(snk)
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
// no member was charged for: the decode and the shared engines.
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
