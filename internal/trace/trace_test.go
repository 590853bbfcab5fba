package trace

import (
	"testing"

	"rarpred/internal/cloak"
	"rarpred/internal/funcsim"
	"rarpred/internal/isa"
	"rarpred/internal/workload"
)

// engineSink adapts a cloaking engine to the Sink interface.
type engineSink struct{ e *cloak.Engine }

func (s engineSink) Load(pc, addr, value uint32)  { s.e.Load(pc, addr, value) }
func (s engineSink) Store(pc, addr, value uint32) { s.e.Store(pc, addr, value) }

// event is one committed memory access as the tests compare it.
type event struct {
	kind            Kind
	pc, addr, value uint32
}

// observe runs prog to completion on a plain funcsim and collects its
// committed accesses straight from the callbacks: the reference every
// recorder must reproduce.
func observe(t *testing.T, prog *isa.Program) ([]event, funcsim.Counts) {
	t.Helper()
	var evs []event
	s := funcsim.New(prog)
	s.OnLoad = func(e funcsim.MemEvent) { evs = append(evs, event{KindLoad, e.PC, e.Addr, e.Value}) }
	s.OnStore = func(e funcsim.MemEvent) { evs = append(evs, event{KindStore, e.PC, e.Addr, e.Value}) }
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	return evs, s.Counts
}

// collect returns a sink appending every replayed event to *evs.
func collect(evs *[]event) Sink {
	return SinkFuncs{
		OnLoad:  func(pc, addr, value uint32) { *evs = append(*evs, event{KindLoad, pc, addr, value}) },
		OnStore: func(pc, addr, value uint32) { *evs = append(*evs, event{KindStore, pc, addr, value}) },
	}
}

// streamEvents replays s into a slice.
func streamEvents(s *Stream) []event {
	evs := make([]event, 0, s.Len())
	s.Replay(collect(&evs))
	return evs
}

// equalEvents fails t at the first difference between got and want.
func equalEvents(t *testing.T, got, want []event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("event count: %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}

func record(t *testing.T, abbrev string, size int) *Stream {
	t.Helper()
	w, _ := workload.ByAbbrev(abbrev)
	s, err := RecordStream(w.Program(size), 0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRecordMatchesDirectObservation(t *testing.T) {
	w, _ := workload.ByAbbrev("per")
	s := record(t, "per", 4)
	direct, counts := observe(t, w.Program(4))
	equalEvents(t, streamEvents(s), direct)
	if s.Counts != counts {
		t.Errorf("counts: %+v, want %+v", s.Counts, counts)
	}
}

// TestReplayEqualsLive: a replayed stream drives the engine to the exact
// same statistics as live simulation.
func TestReplayEqualsLive(t *testing.T) {
	w, _ := workload.ByAbbrev("gcc")
	s := record(t, "gcc", 4)
	replayed := cloak.New(cloak.DefaultConfig())
	s.Replay(engineSink{replayed})

	live := cloak.New(cloak.DefaultConfig())
	sim := funcsim.New(w.Program(4))
	sim.OnLoad = func(e funcsim.MemEvent) { live.Load(e.PC, e.Addr, e.Value) }
	sim.OnStore = func(e funcsim.MemEvent) { live.Store(e.PC, e.Addr, e.Value) }
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if replayed.Stats() != live.Stats() {
		t.Errorf("replay diverged:\n%+v\n%+v", replayed.Stats(), live.Stats())
	}
}

// TestReplayFanOut: one stream drives several engines at once.
func TestReplayFanOut(t *testing.T) {
	s := record(t, "per", 4)
	raw := cloak.New(cloak.Config{DDTCapacity: 128, Mode: cloak.ModeRAW, Confidence: cloak.Adaptive2Bit})
	both := cloak.New(cloak.DefaultConfig())
	s.Replay(engineSink{raw}, engineSink{both})
	if raw.Stats().Loads != both.Stats().Loads {
		t.Error("sinks saw different event counts")
	}
	if both.Stats().Covered() < raw.Stats().Covered() {
		t.Error("RAW+RAR covered less than RAW on the same stream")
	}
}
