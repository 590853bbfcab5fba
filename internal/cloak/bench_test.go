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
