package cloak

import "testing"

// FuzzEngine drives full engines (bounded/unbounded/split/RAW-only) with
// an arbitrary committed stream under always-on self-checking, and in
// lockstep a separate detector feeding a prediction stage, which must
// report the same outcome for every load and the same Stats: every
// detector result is compared against the naive reference model, the
// LRU order is compared at window boundaries, and DPNT/SF invariants
// sweep after every load. Any divergence panics with *check.Violation
// and fails the fuzz run.
//
// Each 3-byte group encodes one op: the low bit of byte 0 selects
// load/store, its remaining bits the (word-aligned) PC; byte 1 masked to
// a 32-address space forces constant aliasing and eviction; byte 2 is
// the value.
func FuzzEngine(f *testing.F) {
	f.Add([]byte("storeload"))
	f.Add([]byte("aAbBcCdDeEfF00112233445566778899"))
	f.Add([]byte{1, 5, 9, 0, 5, 9, 2, 5, 7, 0, 5, 7, 4, 5, 3, 0, 5, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		base := Config{DPNTSets: 4, DPNTWays: 2, SFSets: 4, SFWays: 2,
			Confidence: Adaptive2Bit, Merge: MergeIncremental, SelfCheck: true}
		cfgs := make([]Config, 0, 4)
		for _, c := range []struct {
			capacity int
			split    bool
			mode     Mode
		}{
			{8, false, ModeRAWRAR},
			{0, false, ModeRAWRAR},
			{8, true, ModeRAWRAR},
			{8, false, ModeRAW},
		} {
			cfg := base
			cfg.DDTCapacity, cfg.SplitDDT, cfg.Mode = c.capacity, c.split, c.mode
			cfgs = append(cfgs, cfg)
		}
		for _, cfg := range cfgs {
			e := New(cfg)
			e.forceSelfCheckAlways()
			det := NewDetector(cfg.DetectorConfig())
			pr := NewPredictor(cfg)
			pr.forceSelfCheckAlways()
			for i := 0; i+2 < len(data); i += 3 {
				pc := uint32(data[i]>>1&0x3f) << 2
				addr := uint32(data[i+1] & 31)
				val := uint32(data[i+2])
				if data[i]&1 == 0 {
					want := e.Load(pc, addr, val)
					dep, _ := det.Load(addr, pc)
					if got := pr.Load(pc, val, Detection{Kind: dep.Kind, SourcePC: dep.SourcePC}); got != want {
						t.Fatalf("%+v op %d: predictor outcome %+v, engine %+v", cfg, i/3, got, want)
					}
				} else {
					e.Store(pc, addr, val)
					det.Store(addr, pc)
					pr.Store(pc, val)
				}
			}
			e.p.checkInvariants()
			if got, want := pr.Stats(), e.Stats(); got != want {
				t.Fatalf("%+v: predictor stats %+v, engine %+v", cfg, got, want)
			}
		}
	})
}
