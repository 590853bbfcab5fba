package cloak_test

import (
	"sync"
	"testing"

	"rarpred/internal/cloak"
	"rarpred/internal/trace"
	"rarpred/internal/workload"
)

// reference is one recorded reference stream (gcc at the reference
// size), decoded once into a single flat chunk so the benchmarks time
// the analyzer, not the decode.
var reference = sync.OnceValues(func() (trace.Chunk, error) {
	w, _ := workload.ByAbbrev("gcc")
	st, err := trace.RecordStream(w.Program(workload.ReferenceSize), 0)
	if err != nil {
		return trace.Chunk{}, err
	}
	var all trace.Chunk
	st.Walk(func(_ int, c trace.Chunk) bool {
		all.Kinds = append(all.Kinds, c.Kinds...)
		all.PCs = append(all.PCs, c.PCs...)
		all.Addrs = append(all.Addrs, c.Addrs...)
		all.Values = append(all.Values, c.Values...)
		return true
	})
	return all, nil
})

// benchStream feeds the reference stream to a fresh sink per iteration
// and reports throughput in million events per second.
func benchStream(b *testing.B, sink func() trace.Sink) {
	ref, err := reference()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref.Feed(sink())
	}
	b.ReportMetric(float64(len(ref.Kinds))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mevents/s")
}

// BenchmarkEngine runs the accuracy-study engine (DefaultConfig) over
// the reference stream.
func BenchmarkEngine(b *testing.B) {
	benchStream(b, func() trace.Sink {
		e := cloak.New(cloak.DefaultConfig())
		return trace.SinkFuncs{
			OnLoad:  func(pc, addr, value uint32) { e.Load(pc, addr, value) },
			OnStore: func(pc, addr, value uint32) { e.Store(pc, addr, value) },
		}
	})
}

// BenchmarkDDT runs the dependence detection table alone: 128 entries,
// RAR detection on.
func BenchmarkDDT(b *testing.B) {
	benchStream(b, func() trace.Sink {
		d := cloak.NewDDT(128, true)
		return trace.SinkFuncs{
			OnLoad:  func(pc, addr, _ uint32) { d.Load(addr, pc) },
			OnStore: func(pc, addr, _ uint32) { d.Store(addr, pc) },
		}
	})
}

// referenceDetections is the reference stream's detection column under
// the default detector (a store's slot stays zero), computed once so
// the prediction-stage benchmarks time prediction alone, as a replay
// pass's engine stages run.
var referenceDetections = sync.OnceValues(func() ([]cloak.Detection, error) {
	ref, err := reference()
	if err != nil {
		return nil, err
	}
	det := cloak.NewDetector(cloak.DefaultConfig().DetectorConfig())
	col := make([]cloak.Detection, len(ref.Kinds))
	for i, k := range ref.Kinds {
		if trace.Kind(k) == trace.KindLoad {
			dep, _ := det.Load(ref.Addrs[i], ref.PCs[i])
			col[i] = cloak.Detection{Kind: dep.Kind, SourcePC: dep.SourcePC}
		} else {
			det.Store(ref.Addrs[i], ref.PCs[i])
		}
	}
	return col, nil
})

// benchDetected runs step over the reference stream and its detection
// column once per iteration and reports million events per second.
func benchDetected(b *testing.B, step func() func(i int, load bool, pc, value uint32, d cloak.Detection)) {
	ref, err := reference()
	if err != nil {
		b.Fatal(err)
	}
	col, err := referenceDetections()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		f := step()
		for i, k := range ref.Kinds {
			f(i, trace.Kind(k) == trace.KindLoad, ref.PCs[i], ref.Values[i], col[i])
		}
	}
	b.ReportMetric(float64(len(ref.Kinds))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mevents/s")
}

// BenchmarkDPNT runs the dependence prediction table alone: one lookup
// per access and one training per detected dependence, from the
// precomputed default detection column (infinite DPNT, 2-bit adaptive
// confidence, incremental merging).
func BenchmarkDPNT(b *testing.B) {
	benchDetected(b, func() func(int, bool, uint32, uint32, cloak.Detection) {
		cfg := cloak.DefaultConfig()
		t := cloak.NewDPNT(cfg.DPNTSets, cfg.DPNTWays, cfg.Confidence, cfg.Merge)
		return func(_ int, load bool, pc, _ uint32, d cloak.Detection) {
			t.Lookup(pc)
			if load && d.Kind != cloak.DepNone {
				t.RecordDependence(cloak.Dependence{Kind: d.Kind, SourcePC: d.SourcePC, SinkPC: pc})
			}
		}
	})
}

// BenchmarkPredictor runs the default configuration's prediction stage
// (DPNT, synonym file and Stats) fed the precomputed detection column:
// BenchmarkEngine's work less the DDT's.
func BenchmarkPredictor(b *testing.B) {
	benchDetected(b, func() func(int, bool, uint32, uint32, cloak.Detection) {
		p := cloak.NewPredictor(cloak.DefaultConfig())
		return func(_ int, load bool, pc, value uint32, d cloak.Detection) {
			if load {
				p.Load(pc, value, d)
			} else {
				p.Store(pc, value)
			}
		}
	})
}
