// Command layers is the benchmark's traced pass. It calls each layer's
// public functions in-process, over the same inputs the end-to-end
// workloads feed rarsim, and records a span around every call. It
// prints one JSON object: the per-layer metrics, the simulated
// statistics that must repeat exactly, and the digest of the report
// its in-process suite call rendered. It takes the timed run's rarsim
// flags:
//
//	layers -exp all -p 2 -seed 1 -spans spans.json
//
// The order is fixed: first the in-process suite call (cold, as a fresh
// rarsim process would run it), then two passes of the layer loop over
// the 18 analogs plus one held-out synthetic program built from -seed.
// Timings are the mean of the two passes; every simulated statistic
// must agree between them.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"runtime"
	"strings"
	"time"

	"rarpred/internal/cloak"
	"rarpred/internal/experiments"
	"rarpred/internal/funcsim"
	"rarpred/internal/isa"
	"rarpred/internal/locality"
	"rarpred/internal/pipeline"
	"rarpred/internal/store"
	"rarpred/internal/trace"
	"rarpred/internal/vpred"
	"rarpred/internal/workload"
)

const (
	maxInsts = 2_000_000_000 // the experiments' default instruction budget
	mib      = 1 << 20
	heldout  = "heldout"
)

// workloadSpec holds the rarsim flags of one end-to-end workload's
// timed run, which the traced pass takes in the same form.
type workloadSpec struct {
	exps string // -exp
	size int    // -size (0 = each experiment's default)
	par  int    // -p
}

// timingSize is the size the instruction-stream and pipeline layers run
// at: the timing experiments' size in this workload.
func (s workloadSpec) timingSize() int {
	if s.size > 0 {
		return s.size
	}
	return workload.TimingSize
}

func main() {
	var spec workloadSpec
	flag.StringVar(&spec.exps, "exp", "all", "experiments of the in-process suite call, as rarsim -exp")
	flag.IntVar(&spec.size, "size", 0, "as rarsim -size")
	flag.IntVar(&spec.par, "p", 2, "as rarsim -p")
	seed := flag.Int64("seed", 1, "seed of the held-out synthetic program")
	spansPath := flag.String("spans", "", "write every span to this JSON file at the end")
	flag.Parse()

	tr := NewTracer()
	out := map[string]float64{}
	sim := map[string]float64{}

	digest := suitePass(tr, spec, out, sim)

	inputs := analogInputs(spec.timingSize())
	synth := synthInput(*seed, spec.timingSize())
	var passes [2]layerTotals
	var held [2]layerTotals
	for p := range passes {
		for _, in := range inputs {
			passes[p].add(runLayers(tr, in))
		}
		held[p] = runLayers(tr, synth)
	}
	for _, pair := range [][2]layerTotals{passes, held} {
		if a, b := pair[0].simulated(), pair[1].simulated(); !maps.Equal(a, b) {
			fail("simulated statistics differ between passes:\n  pass 1: %v\n  pass 2: %v", a, b)
		}
	}
	passes[0].report(passes[1], out)
	heldOut := map[string]float64{}
	held[0].report(held[1], heldOut)
	for _, k := range heldoutRates {
		out[heldout+"."+k] = heldOut[k]
	}
	for k, v := range passes[0].simulated() {
		sim[k] = v
	}
	for k, v := range held[0].simulated() {
		sim[heldout+"."+k] = v
	}

	var harness time.Duration
	spans := tr.Spans()
	for _, s := range spans {
		if s.Name == "analog" {
			harness += SelfTime(s, spans)
		}
	}
	out["bench.harness_s"] = harness.Seconds() / float64(len(passes))

	if *spansPath != "" {
		if err := tr.Write(*spansPath); err != nil {
			fail("writing spans: %v", err)
		}
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{
		"metrics":       out,
		"simulated":     sim,
		"report_sha256": digest,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
	}); err != nil {
		fail("%v", err)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "layers: "+format+"\n", args...)
	os.Exit(1)
}

// suitePass runs the workload's experiments in-process through
// RunSuite, configured as rarsim configures them, and records the
// scheduler and trace-cache figures. It returns the digest of the
// report with the per-experiment elapsed-time lines left out.
func suitePass(tr *Tracer, spec workloadSpec, out, sim map[string]float64) string {
	var todo []experiments.Experiment
	if spec.exps == "all" {
		todo = experiments.All()
	} else {
		for _, id := range strings.Split(spec.exps, ",") {
			e, ok := experiments.ByID(id)
			if !ok {
				fail("unknown experiment %q", id)
			}
			todo = append(todo, e)
		}
	}
	cache := experiments.TraceCache()
	opt := experiments.Options{Size: spec.size, Parallelism: spec.par, CellCost: benchCost("BENCH_suite.json")}

	var report strings.Builder
	failedCells := 0
	id := tr.Start("suite", "experiments.suite", -1)
	stats := experiments.RunSuite(opt, todo, func(item experiments.SuiteItem) bool {
		if item.Index > 0 {
			report.WriteString("\n")
		}
		if item.Err != nil {
			fmt.Fprintf(os.Stderr, "layers: %s: %v\n", item.Exp.ID, item.Err)
			failedCells += len(workload.All())
			return true
		}
		for _, c := range item.Cells {
			if c.Failed {
				failedCells++
			}
		}
		fmt.Fprintf(&report, "== %s: %s\n", item.Exp.ID, item.Exp.Title)
		report.WriteString(item.Result.String())
		return true
	})
	tr.End(id)

	cs := cache.Stats()
	out["experiments.suite_s"] = stats.Wall.Seconds()
	out["experiments.busy_s"] = stats.Busy.Seconds()
	out["experiments.utilization"] = stats.Busy.Seconds() / (stats.Wall.Seconds() * float64(stats.Workers))
	out["trace.cache_hits"] = float64(cs.Hits)
	out["trace.cache_misses"] = float64(cs.Misses)
	out["trace.cache_hit_ratio"] = ratio(float64(cs.Hits), float64(cs.Hits+cs.Misses))
	out["trace.cache_evictions"] = float64(cs.Evictions)
	out["trace.cache_resident_mib"] = float64(cs.Bytes) / mib
	sim["experiments.cells"] = float64(stats.Cells)
	sim["experiments.cells_failed"] = float64(failedCells)
	for k, v := range sim {
		out[k] = v
	}
	// The suite's streams stay resident otherwise, and a larger live heap
	// would make the layer loop's garbage collection differ by workload.
	cache.SetBudget(1)
	runtime.GC()

	sum := sha256.Sum256([]byte(report.String()))
	return hex.EncodeToString(sum[:])
}

// benchCost reads per-cell seconds from a -benchjson payload, the cost
// source rarsim's scheduler uses when run from the same directory, so
// the in-process suite orders its queue exactly as the timed run does.
func benchCost(path string) func(exp, wl string) (float64, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var doc struct {
		Experiments []struct {
			ID    string `json:"id"`
			Cells []struct {
				Workload string  `json:"workload"`
				Seconds  float64 `json:"seconds"`
				Resumed  bool    `json:"resumed"`
			} `json:"cells"`
		} `json:"experiments"`
	}
	if json.Unmarshal(data, &doc) != nil {
		return nil
	}
	m := map[[2]string]float64{}
	for _, e := range doc.Experiments {
		for _, c := range e.Cells {
			if !c.Resumed {
				m[[2]string{e.ID, c.Workload}] = c.Seconds
			}
		}
	}
	if len(m) == 0 {
		return nil
	}
	return func(exp, wl string) (float64, bool) {
		sec, ok := m[[2]string{exp, wl}]
		return sec, ok
	}
}

// input is one program the layer loop runs: a build at the accuracy
// studies' size for the memory-stream layers and one at the timing
// size for the instruction-stream and pipeline layers.
type input struct {
	name  string
	build func() (fprog, tprog *isa.Program)
}

func analogInputs(timingSize int) []input {
	var ins []input
	for _, w := range workload.All() {
		ins = append(ins, input{w.Name, func() (*isa.Program, *isa.Program) {
			return w.Assemble(workload.ReferenceSize), w.Assemble(timingSize)
		}})
	}
	return ins
}

// synthInput is the held-out program: the knobs are fixed and only the
// seed varies, so a layer claim can be re-checked on data nobody tuned
// against.
func synthInput(seed int64, timingSize int) input {
	cfg := workload.SynthConfig{
		Iterations:  20_000,
		RARPairs:    4,
		RAWPairs:    2,
		StreamLoads: 2,
		RMWCounters: 1,
		ChaseDepth:  4,
		WorkingSet:  4096,
		Seed:        uint32(seed),
	}
	return input{heldout, func() (*isa.Program, *isa.Program) {
		fprog, err := workload.Synthetic(cfg)
		if err != nil {
			fail("synthetic: %v", err)
		}
		tcfg := cfg
		tcfg.Iterations = cfg.Iterations * timingSize / workload.ReferenceSize
		tprog, err := workload.Synthetic(tcfg)
		if err != nil {
			fail("synthetic: %v", err)
		}
		return fprog, tprog
	}}
}

// layerTotals accumulates one pass of the layer loop: host time per
// layer and the work each layer did.
type layerTotals struct {
	dur map[string]time.Duration // span name -> summed duration (or net time)

	insts, events, instEvents, rawBytes, residentBytes uint64
	replayAllocs, pipeInsts, pipeCycles, pipeAllocs    uint64
	encodedBytes, decodedRaw                           uint64
	cloakLoads, cloakCovered, cloakMisspec             uint64
}

func (t *layerTotals) add(o layerTotals) {
	if t.dur == nil {
		t.dur = map[string]time.Duration{}
	}
	for k, v := range o.dur {
		t.dur[k] += v
	}
	t.insts += o.insts
	t.events += o.events
	t.instEvents += o.instEvents
	t.rawBytes += o.rawBytes
	t.residentBytes += o.residentBytes
	t.replayAllocs += o.replayAllocs
	t.pipeInsts += o.pipeInsts
	t.pipeCycles += o.pipeCycles
	t.pipeAllocs += o.pipeAllocs
	t.encodedBytes += o.encodedBytes
	t.decodedRaw += o.decodedRaw
	t.cloakLoads += o.cloakLoads
	t.cloakCovered += o.cloakCovered
	t.cloakMisspec += o.cloakMisspec
}

// simulated returns the statistics that depend only on the inputs and
// the simulators, never on the host: they must repeat exactly.
func (t layerTotals) simulated() map[string]float64 {
	return map[string]float64{
		"funcsim.insts":           float64(t.insts),
		"trace.events":            float64(t.events),
		"trace.raw_mib":           float64(t.rawBytes) / mib,
		"trace.resident_mib":      float64(t.residentBytes) / mib,
		"trace.compression_ratio": ratio(float64(t.rawBytes), float64(t.residentBytes)),
		"cloak.loads":             float64(t.cloakLoads),
		"cloak.coverage":          ratio(float64(t.cloakCovered), float64(t.cloakLoads)),
		"cloak.misspec":           ratio(float64(t.cloakMisspec), float64(t.cloakLoads)),
		"pipeline.ipc":            ratio(float64(t.pipeInsts), float64(t.pipeCycles)),
		"store.encoded_mib":       float64(t.encodedBytes) / mib,
	}
}

// heldoutRates are the layer rates reported for the held-out program.
var heldoutRates = []string{
	"funcsim.minsts_per_s", "trace.record_mevents_per_s", "trace.replay_mevents_per_s",
	"trace.ireplay_minsts_per_s", "cloak.engine_mevents_per_s", "pipeline.minsts_per_s",
	"store.decode_mib_per_s",
}

// report writes pass t's and pass b's mean timings, the rates derived
// from them, the allocation counts and the simulated statistics.
func (t layerTotals) report(b layerTotals, out map[string]float64) {
	sec := func(name string) float64 { return (t.dur[name] + b.dur[name]).Seconds() / 2 }
	out["workload.build_s"] = sec("workload.build")
	out["funcsim.run_s"] = sec("funcsim.run")
	out["funcsim.minsts_per_s"] = ratio(float64(t.insts)/1e6, sec("funcsim.run"))
	out["trace.record_s"] = sec("trace.record")
	out["trace.record_mevents_per_s"] = ratio(float64(t.events)/1e6, sec("trace.record"))
	out["trace.irecord_s"] = sec("trace.irecord")
	out["trace.replay_s"] = sec("trace.replay")
	out["trace.replay_mevents_per_s"] = ratio(float64(t.events)/1e6, sec("trace.replay"))
	out["trace.ireplay_s"] = sec("trace.ireplay")
	out["trace.ireplay_minsts_per_s"] = ratio(float64(t.instEvents)/1e6, sec("trace.ireplay"))
	out["trace.replay_allocs"] = float64(t.replayAllocs+b.replayAllocs) / 2
	out["cloak.engine_s"] = sec("cloak.engine.net")
	out["cloak.engine_mevents_per_s"] = ratio(float64(t.events)/1e6, sec("cloak.engine.net"))
	out["cloak.ddt_s"] = sec("cloak.ddt.net")
	out["locality.rar_s"] = sec("locality.rar.net")
	out["locality.distance_s"] = sec("locality.distance.net")
	out["vpred.lastvalue_s"] = sec("vpred.lastvalue.net")
	out["pipeline.run_s"] = sec("pipeline.run")
	out["pipeline.minsts_per_s"] = ratio(float64(t.pipeInsts)/1e6, sec("pipeline.run"))
	out["pipeline.allocs"] = float64(t.pipeAllocs+b.pipeAllocs) / 2
	out["store.encode_s"] = sec("store.encode")
	out["store.decode_s"] = sec("store.decode")
	out["store.decode_mib_per_s"] = ratio(float64(t.decodedRaw)/mib, sec("store.decode"))
	for k, v := range t.simulated() {
		out[k] = v
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// countSink is the cheapest consumer that still receives every event,
// so a replay into it measures decode and dispatch, not a skipped path.
type countSink struct{ loads, stores uint64 }

func (c *countSink) Load(pc, addr, value uint32)  { c.loads++ }
func (c *countSink) Store(pc, addr, value uint32) { c.stores++ }

type engineSink struct{ e *cloak.Engine }

func (s engineSink) Load(pc, addr, value uint32)  { s.e.Load(pc, addr, value) }
func (s engineSink) Store(pc, addr, value uint32) { s.e.Store(pc, addr, value) }

type ddtSink struct{ d *cloak.DDT }

func (s ddtSink) Load(pc, addr, _ uint32)  { s.d.Load(addr, pc) }
func (s ddtSink) Store(pc, addr, _ uint32) { s.d.Store(addr, pc) }

type addrSink struct {
	load, store func(pc, addr uint32)
}

func (s addrSink) Load(pc, addr, _ uint32)  { s.load(pc, addr) }
func (s addrSink) Store(pc, addr, _ uint32) { s.store(pc, addr) }

type valueSink struct{ p *vpred.LastValue }

func (s valueSink) Load(pc, _, value uint32) { s.p.Access(pc, value) }
func (s valueSink) Store(_, _, _ uint32)     {}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// fig9Configs are Figure 9's five pipeline configurations: the naive
// speculation base and RAW / RAW+RAR cloaking under selective and
// squash recovery.
func fig9Configs() []pipeline.Config {
	cfgs := []pipeline.Config{pipeline.DefaultConfig()}
	for _, rec := range []pipeline.RecoveryPolicy{pipeline.Selective, pipeline.Squash} {
		for _, mode := range []cloak.Mode{cloak.ModeRAW, cloak.ModeRAWRAR} {
			cfg := pipeline.DefaultConfig()
			cc := cloak.TimingConfig(mode)
			cfg.Cloak = &cc
			cfg.Bypassing = true
			cfg.Recovery = rec
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// runLayers calls every layer once on one input, each call inside its
// own span under the input's root span.
func runLayers(tr *Tracer, in input) layerTotals {
	t := layerTotals{dur: map[string]time.Duration{}}
	root := tr.Start(in.name, "analog", -1)
	span := func(name string, f func()) Span {
		id := tr.Start(in.name, name, root)
		f()
		s := tr.End(id)
		t.dur[name] += s.Dur()
		return s
	}
	check := func(ok bool, format string, args ...any) {
		if !ok {
			fail("%s: "+format, append([]any{in.name}, args...)...)
		}
	}

	var fprog, tprog *isa.Program
	span("workload.build", func() { fprog, tprog = in.build() })

	var fs *funcsim.Sim
	var err error
	span("funcsim.run", func() {
		fs = funcsim.New(fprog)
		err = fs.Run(maxInsts)
	})
	check(err == nil && fs.Halted, "funcsim: %v", err)
	t.insts = fs.Counts.Insts

	var st *trace.Stream
	span("trace.record", func() { st, err = trace.RecordStream(fprog, maxInsts) })
	check(err == nil, "record: %v", err)
	t.events = uint64(st.Len())
	t.rawBytes = uint64(st.RawBytes())
	t.residentBytes = uint64(st.Bytes())

	var is *trace.IStream
	span("trace.irecord", func() { is, err = trace.RecordIStream(tprog, maxInsts) })
	check(err == nil, "irecord: %v", err)

	var cs countSink
	before := mallocs()
	replay := span("trace.replay", func() { st.Replay(&cs) })
	t.replayAllocs = mallocs() - before
	check(cs.loads+cs.stores == t.events, "replay delivered %d events, stream holds %d", cs.loads+cs.stores, t.events)

	span("trace.ireplay", func() {
		c := is.Cursor()
		for {
			if _, _, ok := c.NextInst(); !ok {
				break
			}
			t.instEvents++
		}
		for {
			if _, _, ok := c.NextMem(); !ok {
				break
			}
		}
	})
	check(t.instEvents == is.Len(), "ireplay walked %d insts, stream holds %d", t.instEvents, is.Len())

	// Analyzers fed by a replay: the span covers decode plus the
	// analyzer, so each layer's own time is the span net of the
	// counting-sink replay above.
	net := func(name string, snk trace.Sink) {
		s := span(name, func() { st.Replay(snk) })
		t.dur[name+".net"] += Net(s, replay)
	}
	eng := cloak.New(cloak.DefaultConfig())
	net("cloak.engine", engineSink{eng})
	es := eng.Stats()
	t.cloakLoads, t.cloakCovered, t.cloakMisspec = es.Loads, es.Covered(), es.Mispredicted()
	net("cloak.ddt", ddtSink{cloak.NewDDT(128, true)})
	rar := locality.NewRARLocality(experiments.Fig2Window)
	net("locality.rar", addrSink{rar.Load, rar.Store})
	dist := locality.NewDistanceAnalyzer()
	net("locality.distance", addrSink{dist.Load, dist.Store})
	net("vpred.lastvalue", valueSink{vpred.NewLastValue(vpred.DefaultEntries)})

	for _, cfg := range fig9Configs() {
		sim := pipeline.NewReplay(tprog, is, cfg)
		var res pipeline.Result
		before := mallocs()
		span("pipeline.run", func() { res, err = sim.Run() })
		t.pipeAllocs += mallocs() - before
		check(err == nil, "pipeline: %v", err)
		t.pipeInsts += res.Insts
		t.pipeCycles += res.Cycles
	}

	var data []byte
	span("store.encode", func() { data = store.EncodeStream(st) })
	t.encodedBytes = uint64(len(data))
	var back *trace.Stream
	span("store.decode", func() { back, err = store.DecodeStream(data) })
	check(err == nil && back.Len() == st.Len(), "store round trip: %v", err)
	t.decodedRaw = uint64(back.RawBytes())

	tr.End(root)
	return t
}
