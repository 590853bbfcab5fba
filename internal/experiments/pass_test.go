package experiments

import (
	"context"
	"errors"
	"fmt"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rarpred/internal/cloak"
	"rarpred/internal/metrics"
	"rarpred/internal/runerr"
	"rarpred/internal/trace"
	"rarpred/internal/workload"
)

// Pass tests use sizes no other test uses (2, 18, 20, 22, 24), so the
// shared trace cache holds exactly what each test put there.

// eventRow is the row of the synthetic pass experiments: the events
// the cell's sink saw.
type eventRow struct {
	workload.Workload
	Events int
}

// passExperiment builds a synthetic stream experiment whose cells count
// the events they see. hook runs inside the cell at the given phase
// ("attach", "sink" — once, on the first event — or "finish") and may
// panic or stall there; joined counts attach calls.
func passExperiment(id string, joined *atomic.Int64, hook func(phase string, w workload.Workload)) Experiment {
	return passExperimentJoin(id, joined, hook, nil)
}

// passExperimentJoin is passExperiment with a join step that runs at
// attach with the member, to read or rig the pass's shared stages.
func passExperimentJoin(id string, joined *atomic.Int64, hook func(phase string, w workload.Workload),
	join func(m *member, w workload.Workload)) Experiment {
	if hook == nil {
		hook = func(string, workload.Workload) {}
	}
	return Experiment{
		ID:    id,
		Title: "synthetic pass " + id,
		Cells: tracedCells(workload.ReferenceSize,
			func(_ Options, w workload.Workload, m *member) func() (eventRow, error) {
				if joined != nil {
					joined.Add(1)
				}
				hook("attach", w)
				if join != nil {
					join(m, w)
				}
				n := 0
				on := func(_, _, _ uint32) {
					if n == 0 {
						hook("sink", w)
					}
					n++
				}
				m.attach(trace.SinkFuncs{OnLoad: on, OnStore: on})
				return func() (eventRow, error) {
					hook("finish", w)
					return eventRow{Workload: w, Events: n}, nil
				}
			},
			func(_ Options, _ []workload.Workload, rows []eventRow, fails []*runerr.WorkloadError) (Result, error) {
				res := countResult{}
				for _, r := range rows {
					res.lines = append(res.lines, fmt.Sprintf("%s %s=%d", id, r.Name, r.Events))
				}
				return annotate(res, fails), nil
			}),
	}
}

// suiteItems runs the suite and returns every delivered item.
func suiteItems(opt Options, exps []Experiment) []SuiteItem {
	var items []SuiteItem
	RunSuite(opt, exps, func(item SuiteItem) bool {
		items = append(items, item)
		return true
	})
	return items
}

// TestPassMemberPanicIsolated: a member that panics at attach, in a
// sink, or at finish fails only its own cell with ErrWorkloadPanic; the
// pass's other members — including the same experiment on the other
// workload — render byte-identically to a clean run.
func TestPassMemberPanicIsolated(t *testing.T) {
	opt := subset("go", "tom")
	opt.Size = 18
	opt.Parallelism = 1
	victim := name(t, "tom")
	others := func() []Experiment {
		return []Experiment{mustByID(t, "table51"), mustByID(t, "fig2"), mustByID(t, "fig6")}
	}
	render := func(items []SuiteItem, skip string) string {
		var sb strings.Builder
		for _, it := range items {
			if it.Exp.ID == skip {
				continue
			}
			if it.Err != nil {
				t.Fatalf("%s: %v", it.Exp.ID, it.Err)
			}
			fmt.Fprintf(&sb, "== %s\n%s", it.Exp.ID, it.Result)
		}
		return sb.String()
	}
	clean := render(suiteItems(opt, append(others(), passExperiment("synthP", nil, nil))), "synthP")

	for _, phase := range []string{"attach", "sink", "finish"} {
		t.Run(phase, func(t *testing.T) {
			bomb := passExperiment("synthP", nil, func(at string, w workload.Workload) {
				if at == phase && w.Name == victim {
					panic("member exploded at " + phase)
				}
			})
			exps := others()
			exps = append(exps[:2:2], bomb, exps[2])
			items := suiteItems(opt, exps)
			if got := render(items, "synthP"); got != clean {
				t.Errorf("other members diverge from a clean run:\n--- got ---\n%s--- clean ---\n%s", got, clean)
			}
			res := items[2]
			p, ok := res.Result.(*PartialResult)
			if !ok {
				t.Fatalf("bomb result is %T (err %v), want *PartialResult", res.Result, res.Err)
			}
			if len(p.Fails) != 1 || p.Fails[0].Workload != victim || !errors.Is(p.Fails[0], runerr.ErrWorkloadPanic) {
				t.Fatalf("bomb failures = %v, want one ErrWorkloadPanic for %s", p.Fails, victim)
			}
			if !strings.Contains(p.String(), "synthP "+name(t, "go")+"=") {
				t.Errorf("bomb's healthy cell missing:\n%s", p)
			}
			for _, c := range res.Cells {
				if c.Failed != (c.Workload == victim) {
					t.Errorf("cell %s failed=%v", c.Workload, c.Failed)
				}
			}
		})
	}

	// A shared detector that panics fails exactly its readers: the
	// member reading its column directly and fig6, whose two engines
	// predict from it. table51 and fig2 (windows of other sizes) render
	// byte-identically, and so does fig6's healthy row.
	t.Run("detector", func(t *testing.T) {
		dc := cloak.DefaultConfig().DetectorConfig()
		bomb := passExperimentJoin("synthP", nil, nil, func(m *member, w workload.Workload) {
			m.detections(dc)
			if w.Name == victim {
				d := m.p.detector(dc)
				d.det = explodingDetector{d.det}
			}
		})
		exps := others()
		exps = append(exps[:2:2], bomb, exps[2])
		items := suiteItems(opt, exps)
		if got, want := render(items[:2], ""), render(suiteItems(opt, others()[:2]), ""); got != want {
			t.Errorf("non-readers diverge from a clean run:\n--- got ---\n%s--- clean ---\n%s", got, want)
		}
		cleanFig6 := render(suiteItems(opt, others()[2:]), "")
		for _, res := range items[2:] {
			p, ok := res.Result.(*PartialResult)
			if !ok {
				t.Fatalf("%s result is %T (err %v), want *PartialResult", res.Exp.ID, res.Result, res.Err)
			}
			if len(p.Fails) != 1 || p.Fails[0].Workload != victim || !errors.Is(p.Fails[0], runerr.ErrWorkloadPanic) {
				t.Fatalf("%s failures = %v, want one ErrWorkloadPanic for %s", res.Exp.ID, p.Fails, victim)
			}
			if res.Exp.ID != "fig6" {
				continue
			}
			goAbbrev := mustAbbrev(t, "go")
			rows := 0
			for _, line := range strings.Split(p.String(), "\n") {
				if strings.HasPrefix(line, goAbbrev+" ") {
					rows++
					if !strings.Contains(cleanFig6, line+"\n") {
						t.Errorf("fig6 healthy row differs from a clean run: %q", line)
					}
				}
			}
			if rows == 0 {
				t.Errorf("fig6 lost its healthy row:\n%s", p)
			}
		}
	})
}

// explodingDetector is a shared detector that panics on its first load.
type explodingDetector struct{ cloak.Detector }

func (explodingDetector) Load(addr, pc uint32) (cloak.Dependence, bool) {
	panic("shared detector exploded")
}

// mustAbbrev returns a workload's row label.
func mustAbbrev(t *testing.T, abbrev string) string {
	t.Helper()
	w, ok := workload.ByAbbrev(abbrev)
	if !ok {
		t.Fatalf("unknown workload %s", abbrev)
	}
	return w.Abbrev
}

// TestPassDetectsOncePerConfig: gcc's full pass builds one detector per
// distinct detector configuration — DDT(128, RAR on) once for every
// engine, fig5's 128-entry point, ablprofile and fig7 — one RAR
// locality analyzer per distinct window, with fig2 and ablwindow
// sharing the infinite and 4K ones, and one cloak engine per distinct
// configuration, table52 and synergy sharing theirs.
func TestPassDetectsOncePerConfig(t *testing.T) {
	opt := subset("gcc")
	opt.Size = 2
	w := opt.Workloads[0]
	var ms []*member
	for _, e := range All() {
		if r, ok := e.Cells.(passRunner); ok {
			ms = append(ms, &member{r: r})
		}
	}
	if len(ms) != 14 {
		t.Fatalf("%d stream experiments, want 14", len(ms))
	}
	if _, err := workloadStream(context.Background(), opt, w, opt.size(workload.ReferenceSize), opt.maxInsts()); err != nil {
		t.Fatal(err)
	}
	built := func() map[string]uint64 {
		out := make(map[string]uint64)
		for k, v := range metrics.Default().Snapshot().Counters {
			if label, ok := strings.CutPrefix(k, "cloak.detectors_built{"); ok {
				out[strings.TrimSuffix(label, "}")] = v
			}
		}
		return out
	}
	before := built()
	runPass(context.Background(), opt, w, ms)
	after := built()
	for _, m := range ms {
		if m.err != nil {
			t.Fatal(m.err)
		}
	}
	for dc, n := range after {
		if d := n - before[dc]; d > 1 {
			t.Errorf("the pass built %s %d times, want once", dc, d)
		}
	}
	for _, dc := range []string{"DDT(128, RAR on)", "DDT(inf, RAR on)", "DDT(4096, RAR on)", "SplitDDT(128)"} {
		if d := after[dc] - before[dc]; d != 1 {
			t.Errorf("the pass built %s %d times, want once", dc, d)
		}
	}
	p := ms[0].p
	if got := len(p.detectors); got != 11 {
		t.Errorf("%d detector stages, want 11: fig5's 7 sizes, ablwindow's 4K, 16K and infinite windows, and the split DDT", got)
	}
	for _, ws := range []int{0, Fig2Window} {
		if a := p.windows[ws]; a == nil || len(a.users) != 2 {
			t.Errorf("window %d is not one analyzer shared by fig2 and ablwindow", ws)
		}
	}
	if got := len(p.windows); got != len(WindowSizes) {
		t.Errorf("%d window analyzers, want %d", got, len(WindowSizes))
	}
	if got := len(p.engines); got != 9 {
		t.Errorf("%d cloak engines fed by the walk, want 9", got)
	}
	if e := p.engines[table52Config()]; e == nil || len(e.users) != 2 || !e.record {
		t.Error("table52 and synergy do not share one outcome-recording engine")
	}
}

// TestSharedEngineMatchesPrivate: a shared engine's Stats equal those of
// a private engine with the same configuration fed on its own sink, and
// members asking for one configuration share one engine.
func TestSharedEngineMatchesPrivate(t *testing.T) {
	opt := subset("gcc")
	opt.Size = 20
	w := opt.Workloads[0]
	cfg := cloak.DefaultConfig()
	var shared, again func() cloak.Stats
	private := cloak.New(cfg)
	var engines int
	sharer := Experiment{ID: "synthS", Cells: tracedCells(workload.ReferenceSize,
		func(_ Options, _ workload.Workload, m *member) func() (int, error) {
			shared = m.engineStats(cfg)
			again = m.engineStats(cfg)
			return func() (int, error) {
				engines = len(m.p.engines)
				return 0, nil
			}
		}, nil)}
	owner := Experiment{ID: "synthO", Cells: tracedCells(workload.ReferenceSize,
		func(_ Options, _ workload.Workload, m *member) func() (int, error) {
			m.attach(engineSink(private))
			return func() (int, error) { return 0, nil }
		}, nil)}
	ms := []*member{{r: sharer.Cells.(passRunner)}, {r: owner.Cells.(passRunner)}}
	runPass(context.Background(), opt, w, ms)
	for _, m := range ms {
		if m.err != nil {
			t.Fatal(m.err)
		}
	}
	if engines != 1 {
		t.Errorf("one configuration ran %d engines, want 1", engines)
	}
	if got, want := shared(), private.Stats(); got != want || again() != want {
		t.Errorf("shared engine stats %+v, want the private engine's %+v", got, want)
	}
	if private.Stats().Loads == 0 {
		t.Error("private engine saw no loads")
	}
}

// TestPassSkipsJournaledMembers: journaled cells take no seat in their
// pass, and a pass whose cells are all journaled never acquires its
// stream.
func TestPassSkipsJournaledMembers(t *testing.T) {
	opt := subset("go", "tom")
	opt.Size = 22
	jnl := &memJournal{}
	opt.Journal = jnl
	var joinedA, joinedB atomic.Int64
	a := passExperiment("synthJA", &joinedA, nil)
	b := passExperiment("synthJB", &joinedB, nil)

	first, _ := renderSuite(t, opt, []Experiment{a})
	if joinedA.Load() != 2 {
		t.Fatalf("first run joined %d cells, want 2", joinedA.Load())
	}

	// synthJA is journaled: only synthJB's cells join the passes.
	joinedA.Store(0)
	out, cellStats := renderSuite(t, opt, []Experiment{a, b})
	if joinedA.Load() != 0 || joinedB.Load() != 2 {
		t.Errorf("joined %d journaled and %d fresh cells, want 0 and 2", joinedA.Load(), joinedB.Load())
	}
	if !strings.HasPrefix(out, first) {
		t.Errorf("resumed rows differ:\n%s\nwant prefix:\n%s", out, first)
	}
	for _, c := range cellStats[0] {
		if !c.Resumed {
			t.Errorf("synthJA/%s not resumed", c.Workload)
		}
	}

	// Everything journaled: no pass runs, so the stream is never looked
	// up.
	before := TraceCache().Stats()
	renderSuite(t, opt, []Experiment{a, b})
	after := TraceCache().Stats()
	if lookups := (after.Hits + after.Misses) - (before.Hits + before.Misses); lookups != 0 {
		t.Errorf("fully journaled suite made %d stream lookups, want 0", lookups)
	}
	if joinedA.Load() != 0 || joinedB.Load() != 2 {
		t.Errorf("fully journaled suite joined cells: %d and %d in total, want 0 and 2", joinedA.Load(), joinedB.Load())
	}
}

// TestPassMemberDeadline: a member whose accumulated work passes
// Options.WorkloadTimeout fails at the next chunk boundary with the
// annotated ErrDeadline, while the pass's other members complete.
func TestPassMemberDeadline(t *testing.T) {
	opt := subset("gcc")
	opt.Size = 24
	if _, err := runTable51(opt); err != nil { // record outside the deadline
		t.Fatal(err)
	}
	opt.WorkloadTimeout = time.Second
	slow := passExperiment("synthD", nil, func(at string, _ workload.Workload) {
		if at == "sink" {
			time.Sleep(2 * time.Second)
		}
	})
	items := suiteItems(opt, []Experiment{mustByID(t, "table51"), slow, mustByID(t, "fig2")})
	for _, it := range []SuiteItem{items[0], items[2]} {
		if it.Err != nil {
			t.Errorf("%s failed: %v", it.Exp.ID, it.Err)
		} else if _, partial := it.Result.(*PartialResult); partial {
			t.Errorf("%s partial:\n%s", it.Exp.ID, it.Result)
		}
	}
	err := items[1].Err
	if err == nil {
		t.Fatalf("slow member completed: %v", items[1].Result)
	}
	if !errors.Is(err, runerr.ErrDeadline) || !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("slow member error %v, want ErrDeadline wrapping context.DeadlineExceeded", err)
	}
	if want := regexp.MustCompile(`deadline exceeded \([0-9.]+s > 1s\)`); !want.MatchString(err.Error()) {
		t.Errorf("deadline error lacks elapsed-vs-configured annotation: %v", err)
	}
}

// TestSuiteDecodesEachChunkAtMostTwice: a full suite at a small size
// counts every cell, and decodes each sealed memory-stream chunk at
// most twice — once in its workload's pass and once in ablprofile's
// second phase.
func TestSuiteDecodesEachChunkAtMostTwice(t *testing.T) {
	opt := Options{Size: 2}
	decodes := func() uint64 {
		return metrics.Default().Snapshot().Counters["trace.stream.chunk_decodes"]
	}
	before := decodes()
	stats := RunSuite(opt, All(), func(item SuiteItem) bool {
		if item.Err != nil {
			t.Errorf("%s: %v", item.Exp.ID, item.Err)
		}
		return true
	})
	got := decodes() - before
	if stats.Cells != 324 {
		t.Errorf("SuiteStats.Cells = %d, want 324", stats.Cells)
	}
	chunks := 0
	for _, w := range workload.All() {
		tr, err := workloadStream(context.Background(), opt, w, opt.size(workload.ReferenceSize), opt.maxInsts())
		if err != nil {
			t.Fatal(err)
		}
		chunks += tr.NumChunks()
	}
	if got > uint64(2*chunks) {
		t.Errorf("suite decoded %d chunks of %d sealed ones, want at most 2 each", got, chunks)
	}
	if got < uint64(chunks) {
		t.Errorf("suite decoded %d chunks of %d sealed ones; the passes did not walk", got, chunks)
	}
}
