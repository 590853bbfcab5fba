// Package trace implements trace-driven simulation support: the
// committed load/store stream of a program is recorded once into a
// sealed, chunked Stream (or, for the timing model, an IStream) and
// replayed into any number of analyzers (cloaking engines, locality
// analyzers, value predictors) without re-executing the program — the
// standard methodology for sweeping many predictor configurations over
// one execution. Chunks compress as they fill (codec.go), so the
// compressed form is the only resident one; the store package persists
// the same packed chunks as checksummed .rart artifacts.
package trace

// Kind tags an event.
type Kind uint8

const (
	// KindLoad is a committed load.
	KindLoad Kind = iota
	// KindStore is a committed store.
	KindStore
)

// Sink consumes a replayed access stream. Both the cloaking engine and
// the locality analyzers satisfy it through small adapters; SinkFuncs
// covers the common case.
type Sink interface {
	Load(pc, addr, value uint32)
	Store(pc, addr, value uint32)
}
