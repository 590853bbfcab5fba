package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rarpred/internal/faultsim"
	"rarpred/internal/funcsim"
	"rarpred/internal/runerr"
	"rarpred/internal/trace"
)

// buildStream makes a deterministic, Validate-clean memory stream of n
// events.
func buildStream(n int) *trace.Stream {
	s := trace.NewStream()
	var loads, stores uint64
	rng := uint32(1)
	for i := 0; i < n; i++ {
		rng = rng*1664525 + 1013904223
		k := trace.KindLoad
		if rng&1 == 0 {
			k = trace.KindStore
			stores++
		} else {
			loads++
		}
		s.Append(k, rng&0xfffc, rng>>3, rng>>5)
	}
	s.Counts = funcsim.Counts{Insts: uint64(n) * 3, Loads: loads, Stores: stores}
	return s
}

// buildIStream makes a deterministic, Validate-clean instruction stream.
func buildIStream(insts, mems int) *trace.IStream {
	s := trace.NewIStream()
	for i := 0; i < insts; i++ {
		s.AppendInst(uint32(i%7), uint32(i+1))
	}
	for i := 0; i < mems; i++ {
		s.AppendMem(uint32(i*4), uint32(i^0x55))
	}
	s.Counts = funcsim.Counts{Insts: uint64(insts), Loads: uint64(mems)}
	return s
}

func sameStream(t *testing.T, got, want *trace.Stream) {
	t.Helper()
	if got.Len() != want.Len() || got.Loads() != want.Loads() ||
		got.Counts != want.Counts || got.Truncated != want.Truncated {
		t.Fatalf("stream header mismatch: %d/%d events, %v/%v counts",
			got.Len(), want.Len(), got.Counts, want.Counts)
	}
	gather := func(s *trace.Stream) [][4]uint32 {
		var out [][4]uint32
		s.Replay(trace.SinkFuncs{
			OnLoad:  func(pc, addr, v uint32) { out = append(out, [4]uint32{0, pc, addr, v}) },
			OnStore: func(pc, addr, v uint32) { out = append(out, [4]uint32{1, pc, addr, v}) },
		})
		return out
	}
	g, w := gather(got), gather(want)
	for i := range w {
		if g[i] != w[i] {
			t.Fatalf("event %d: %v != %v", i, g[i], w[i])
		}
	}
}

func openTestStore(t *testing.T, opts ...Option) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), opts...)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestStreamArtifactRoundTrip(t *testing.T) {
	s := openTestStore(t)
	key := trace.Key{Workload: "rt_wl", Size: 7, MaxInsts: 1000}
	orig := buildStream(5000)
	if err := s.Store(key, orig); err != nil {
		t.Fatalf("Store: %v", err)
	}
	v, err := s.Load(key)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	back, ok := v.(*trace.Stream)
	if !ok {
		t.Fatalf("Load returned %T, want *trace.Stream", v)
	}
	sameStream(t, back, orig)
	st := s.Stats()
	if st.DiskHits != 1 || st.BytesWritten == 0 || st.BytesRead == 0 {
		t.Fatalf("stats after round trip: %+v", st)
	}
}

func TestIStreamArtifactRoundTrip(t *testing.T) {
	s := openTestStore(t)
	key := trace.Key{Workload: "rt_wl", Size: 7, MaxInsts: 1000, Timing: true}
	orig := buildIStream(4000, 1500)
	if err := s.Store(key, orig); err != nil {
		t.Fatalf("Store: %v", err)
	}
	v, err := s.Load(key)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	back, ok := v.(*trace.IStream)
	if !ok {
		t.Fatalf("Load returned %T, want *trace.IStream", v)
	}
	if back.Len() != orig.Len() || back.MemEvents() != orig.MemEvents() || back.Counts != orig.Counts {
		t.Fatalf("istream mismatch: %d/%d insts, %d/%d mems",
			back.Len(), orig.Len(), back.MemEvents(), orig.MemEvents())
	}
	gc, oc := back.Cursor(), orig.Cursor()
	for {
		gi, gn, gok := gc.NextInst()
		oi, on, ook := oc.NextInst()
		if gok != ook || gi != oi || gn != on {
			t.Fatalf("inst records diverge: (%d,%d,%v) != (%d,%d,%v)", gi, gn, gok, oi, on, ook)
		}
		if !gok {
			break
		}
	}
	for {
		ga, gv, gok := gc.NextMem()
		oa, ov, ook := oc.NextMem()
		if gok != ook || ga != oa || gv != ov {
			t.Fatalf("mem records diverge")
		}
		if !gok {
			break
		}
	}
}

func TestLoadMissingIsMiss(t *testing.T) {
	s := openTestStore(t)
	v, err := s.Load(trace.Key{Workload: "absent", Size: 1, MaxInsts: 1})
	if v != nil || err != nil {
		t.Fatalf("missing artifact: got (%v, %v), want (nil, nil)", v, err)
	}
	if st := s.Stats(); st.DiskMisses != 1 {
		t.Fatalf("DiskMisses = %d, want 1", st.DiskMisses)
	}
}

// TestEveryByteFlipIsDetected proves the checksum coverage has no holes:
// flipping any single byte of a valid artifact must make decoding fail
// (or, for the rare flip that keeps the file self-consistent, reproduce
// the identical stream — which a flip inside a checksummed region
// cannot).
func TestEveryByteFlipIsDetected(t *testing.T) {
	orig := buildStream(300)
	data := EncodeStream(orig)
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		back, err := DecodeStream(mut)
		if err == nil {
			t.Fatalf("byte %d: flip went undetected (decoded %d events)", i, back.Len())
		}
		if !errors.Is(err, runerr.ErrStoreCorrupt) {
			t.Fatalf("byte %d: error not typed ErrStoreCorrupt: %v", i, err)
		}
	}
}

func TestDecodeRejectsWrongKind(t *testing.T) {
	if _, err := DecodeIStream(EncodeStream(buildStream(10))); !errors.Is(err, runerr.ErrStoreCorrupt) {
		t.Fatalf("stream artifact decoded as istream: %v", err)
	}
	if _, err := DecodeStream(EncodeIStream(buildIStream(10, 3))); !errors.Is(err, runerr.ErrStoreCorrupt) {
		t.Fatalf("istream artifact decoded as stream: %v", err)
	}
}

// corruptionFaults are the write-damaging fault kinds: each must be
// caught at load time, quarantine the file, and never serve bytes.
var corruptionFaults = []struct {
	name string
	kind faultsim.DiskKind
}{
	{"torn-write", faultsim.DiskTornWrite},
	{"bit-flip", faultsim.DiskBitFlip},
	{"truncation", faultsim.DiskTruncate},
}

func TestInjectedCorruptionQuarantined(t *testing.T) {
	for _, tc := range corruptionFaults {
		t.Run(tc.name, func(t *testing.T) {
			defer faultsim.Reset()
			s := openTestStore(t, WithFS(NewFaultFS(OS{}, nil)))
			key := trace.Key{Workload: "dmg_" + tc.name, Size: 3, MaxInsts: 50}
			faultsim.InjectDisk(key.Workload, faultsim.DiskFault{Kind: tc.kind, Times: 1})
			if err := s.Store(key, buildStream(2000)); err != nil {
				t.Fatalf("Store (fault lies about success): %v", err)
			}
			v, err := s.Load(key)
			if v != nil {
				t.Fatalf("%s: corrupt artifact served as valid", tc.name)
			}
			if !errors.Is(err, runerr.ErrStoreCorrupt) {
				t.Fatalf("%s: error not typed ErrStoreCorrupt: %v", tc.name, err)
			}
			path := s.artifactPath(key)
			if _, serr := os.Stat(path + ".quarantined"); serr != nil {
				t.Fatalf("%s: no quarantined copy: %v", tc.name, serr)
			}
			if _, serr := os.Stat(path); !os.IsNotExist(serr) {
				t.Fatalf("%s: corrupt artifact still at live name", tc.name)
			}
			// The next lookup is a clean miss: the caller re-records.
			if v, err := s.Load(key); v != nil || err != nil {
				t.Fatalf("%s: post-quarantine load: (%v, %v), want miss", tc.name, v, err)
			}
			if st := s.Stats(); st.Quarantines != 1 {
				t.Fatalf("%s: Quarantines = %d, want 1", tc.name, st.Quarantines)
			}
		})
	}
}

func TestPersistentENOSPCFailsTyped(t *testing.T) {
	defer faultsim.Reset()
	spy := &writeSpyFS{FS: NewFaultFS(OS{}, nil)}
	s := openTestStore(t, WithFS(spy))
	key := trace.Key{Workload: "full_always", Size: 3, MaxInsts: 50}
	faultsim.InjectDisk(key.Workload, faultsim.DiskFault{Kind: faultsim.DiskENOSPC})
	err := s.Store(key, buildStream(500))
	if !errors.Is(err, runerr.ErrDiskFault) {
		t.Fatalf("persistent ENOSPC: error not typed ErrDiskFault: %v", err)
	}
	// One attempt: one temp file created, one save error, and no
	// half-written temp file left behind.
	if spy.creates != 1 {
		t.Fatalf("persistent ENOSPC: %d publish attempts, want 1", spy.creates)
	}
	if st := s.Stats(); st.SaveErrors != 1 {
		t.Fatalf("stats after persistent failure: %+v", st)
	}
	ents, _ := os.ReadDir(s.tracesDir())
	for _, e := range ents {
		t.Fatalf("stray file after failed publish: %s", e.Name())
	}
	faultsim.Reset()
	if v, err := s.Load(key); v != nil || err != nil {
		t.Fatalf("failed publish left something loadable: (%v, %v)", v, err)
	}
}

func TestSlowSyncDelaysButSucceeds(t *testing.T) {
	defer faultsim.Reset()
	var slept time.Duration
	s := openTestStore(t, WithFS(NewFaultFS(OS{}, func(d time.Duration) { slept += d })))
	key := trace.Key{Workload: "slow_disk", Size: 3, MaxInsts: 50}
	faultsim.InjectDisk(key.Workload, faultsim.DiskFault{Kind: faultsim.DiskSlowSync, Times: 1, Delay: 40 * time.Millisecond})
	if err := s.Store(key, buildStream(200)); err != nil {
		t.Fatalf("Store under slow fsync: %v", err)
	}
	if slept != 40*time.Millisecond {
		t.Fatalf("slow sync slept %v, want 40ms", slept)
	}
	if v, err := s.Load(key); v == nil || err != nil {
		t.Fatalf("slow-synced artifact unreadable: (%v, %v)", v, err)
	}
}

// TestPartialTempFileIgnored simulates a SIGKILL between temp write and
// rename: the stray temp file must not satisfy a lookup, and the live
// name stays a miss.
func TestPartialTempFileIgnored(t *testing.T) {
	s := openTestStore(t)
	key := trace.Key{Workload: "killed_mid", Size: 3, MaxInsts: 50}
	tmp := filepath.Join(s.tracesDir(), "tmp-"+base(s.artifactPath(key))+"-12345")
	if err := os.WriteFile(tmp, EncodeStream(buildStream(100))[:37], 0o644); err != nil {
		t.Fatal(err)
	}
	if v, err := s.Load(key); v != nil || err != nil {
		t.Fatalf("partial temp served: (%v, %v), want miss", v, err)
	}
}
