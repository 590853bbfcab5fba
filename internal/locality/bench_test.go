package locality_test

import (
	"sync"
	"testing"

	"rarpred/internal/locality"
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

// analyzer is what both locality analyzers implement.
type analyzer interface {
	Load(pc, addr uint32)
	Store(pc, addr uint32)
}

// benchAnalyzer feeds the reference stream to a fresh analyzer per
// iteration and reports throughput in million events per second.
func benchAnalyzer(b *testing.B, fresh func() analyzer) {
	ref, err := reference()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := fresh()
		ref.Feed(trace.SinkFuncs{
			OnLoad:  func(pc, addr, _ uint32) { a.Load(pc, addr) },
			OnStore: func(pc, addr, _ uint32) { a.Store(pc, addr) },
		})
	}
	b.ReportMetric(float64(len(ref.Kinds))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mevents/s")
}

// BenchmarkRARLocality runs the RAR locality analyzer with Figure 2(b)'s
// 4K-entry address window.
func BenchmarkRARLocality(b *testing.B) {
	benchAnalyzer(b, func() analyzer { return locality.NewRARLocality(4096) })
}

// BenchmarkDistance runs the RAR dependence-distance analyzer.
func BenchmarkDistance(b *testing.B) {
	benchAnalyzer(b, func() analyzer { return locality.NewDistanceAnalyzer() })
}
