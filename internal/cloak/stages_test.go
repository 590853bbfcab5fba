package cloak_test

import (
	"testing"

	"rarpred/internal/cloak"
	"rarpred/internal/trace"
	"rarpred/internal/workload"
)

// suiteConfigs are the engine configurations the experiment suite
// runs over the replay pass's shared detections.
func suiteConfigs() map[string]cloak.Config {
	cfgs := map[string]cloak.Config{"default": cloak.DefaultConfig()}
	oneBit := cloak.DefaultConfig()
	oneBit.Confidence = cloak.NonAdaptive1Bit
	cfgs["1-bit"] = oneBit
	for name, merge := range map[string]cloak.MergeKind{"merge full": cloak.MergeFull, "merge never": cloak.MergeNever} {
		cfg := cloak.DefaultConfig()
		cfg.Merge = merge
		cfgs[name] = cfg
	}
	split := cloak.DefaultConfig()
	split.SplitDDT = true
	cfgs["split"] = split
	for name, entries := range map[string]int{"DPNT 512": 512, "DPNT 2K": 2048, "DPNT 8K": 8192} {
		cfg := cloak.DefaultConfig()
		cfg.DPNTSets, cfg.DPNTWays = entries/2, 2
		cfgs[name] = cfg
	}
	// table52Config of the experiments package (Section 5.5).
	cfgs["table52"] = cloak.Config{
		DDTCapacity: 128,
		DPNTSets:    4096,
		DPNTWays:    4,
		SFSets:      512,
		SFWays:      4,
		Mode:        cloak.ModeRAWRAR,
		Confidence:  cloak.Adaptive2Bit,
		Merge:       cloak.MergeIncremental,
	}
	return cfgs
}

// TestPredictorMatchesEngine: on every analog, for every suite engine
// configuration, a prediction stage fed each chunk's detection column
// by a separate detector — the way a replay pass runs it — reports the
// same outcome for every load, and ends with the same Stats, as the
// engine that detects for itself.
func TestPredictorMatchesEngine(t *testing.T) {
	for _, w := range workload.All() {
		st, err := trace.RecordStream(w.Program(2), 0)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for name, cfg := range suiteConfigs() {
			eng := cloak.New(cfg)
			var want []cloak.LoadOutcome
			st.Replay(trace.SinkFuncs{
				OnLoad:  func(pc, addr, value uint32) { want = append(want, eng.Load(pc, addr, value)) },
				OnStore: func(pc, addr, value uint32) { eng.Store(pc, addr, value) },
			})

			det := cloak.NewDetector(cfg.DetectorConfig())
			pred := cloak.NewPredictor(cfg)
			n := 0
			st.Walk(func(_ int, c trace.Chunk) bool {
				col := make([]cloak.Detection, len(c.Kinds))
				for i, k := range c.Kinds {
					if trace.Kind(k) == trace.KindLoad {
						dep, _ := det.Load(c.Addrs[i], c.PCs[i])
						col[i] = cloak.Detection{Kind: dep.Kind, SourcePC: dep.SourcePC}
					} else {
						det.Store(c.Addrs[i], c.PCs[i])
					}
				}
				for i, k := range c.Kinds {
					if trace.Kind(k) != trace.KindLoad {
						pred.Store(c.PCs[i], c.Values[i])
						continue
					}
					if got := pred.Load(c.PCs[i], c.Values[i], col[i]); n >= len(want) || got != want[n] {
						t.Errorf("%s/%s: load %d outcome %+v, engine %+v", w.Name, name, n, got, want[n])
						return false
					}
					n++
				}
				return true
			})
			if n != len(want) {
				t.Errorf("%s/%s: predictor saw %d loads, engine %d", w.Name, name, n, len(want))
			}
			if got, want := pred.Stats(), eng.Stats(); got != want {
				t.Errorf("%s/%s: predictor stats %+v, engine %+v", w.Name, name, got, want)
			}
		}
	}
}
