package store

import (
	"sync"
	"testing"

	"rarpred/internal/trace"
)

// writeSpyFS wraps an FS and records the size of every Write issued to
// files it created, so tests can prove the save path streams an
// artifact chunk-by-chunk instead of buffering the whole encoding. It
// also counts temp files created: one per publish attempt.
type writeSpyFS struct {
	FS
	mu       sync.Mutex
	maxWrite int
	total    int64
	creates  int
}

type writeSpyFile struct {
	File
	fs *writeSpyFS
}

func (s *writeSpyFS) CreateTemp(dir, pattern string) (File, string, error) {
	s.mu.Lock()
	s.creates++
	s.mu.Unlock()
	f, path, err := s.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, "", err
	}
	return &writeSpyFile{File: f, fs: s}, path, nil
}

func (f *writeSpyFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	if len(p) > f.fs.maxWrite {
		f.fs.maxWrite = len(p)
	}
	f.fs.total += int64(len(p))
	f.fs.mu.Unlock()
	return f.File.Write(p)
}

// TestStoreStreamsChunksToDisk: persisting a many-chunk stream must not
// materialise the whole artifact in memory — each framed chunk goes to
// the writer as its own bounded Write. The regression this guards:
// Store once built the full encoding with EncodeStream and wrote it in
// one call, doubling peak memory for large traces.
func TestStoreStreamsChunksToDisk(t *testing.T) {
	spy := &writeSpyFS{FS: OS{}}
	s := openTestStore(t, WithFS(spy))

	// Four full chunks plus change, random-ish payload so compressed
	// frames stay substantial.
	const events = 4*1<<16 + 999
	orig := buildStream(events)
	key := trace.Key{Workload: "streamed_wl", Size: 9, MaxInsts: 123}
	if err := s.Store(key, orig); err != nil {
		t.Fatalf("Store: %v", err)
	}

	if spy.total < int64(spy.maxWrite) || spy.maxWrite == 0 {
		t.Fatalf("spy recorded nothing sensible: max %d of %d total", spy.maxWrite, spy.total)
	}
	// The largest single Write must be far below the artifact size —
	// one framed chunk, not the whole file. A frame is at most the raw
	// chunk payload plus its header and checksum.
	frameCeiling := int64(1<<16*13 + 64)
	if int64(spy.maxWrite) > frameCeiling {
		t.Fatalf("largest Write is %d bytes (artifact %d): save path is buffering, not streaming",
			spy.maxWrite, spy.total)
	}
	if spy.maxWrite >= int(spy.total) {
		t.Fatalf("whole artifact (%d bytes) written in one call", spy.total)
	}

	// The streamed artifact still round-trips.
	v, err := s.Load(key)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	sameStream(t, v.(*trace.Stream), orig)
}

// TestStoreStreamsIStreamChunks mirrors the regression test for the
// two-plane instruction stream artifact.
func TestStoreStreamsIStreamChunks(t *testing.T) {
	spy := &writeSpyFS{FS: OS{}}
	s := openTestStore(t, WithFS(spy))

	orig := buildIStream(3*1<<16+17, 2*1<<16+5)
	key := trace.Key{Workload: "streamed_iwl", Size: 9, MaxInsts: 123, Timing: true}
	if err := s.Store(key, orig); err != nil {
		t.Fatalf("Store: %v", err)
	}
	frameCeiling := int64(1<<16*8 + 64)
	if int64(spy.maxWrite) > frameCeiling || spy.maxWrite >= int(spy.total) {
		t.Fatalf("largest Write is %d bytes of %d: istream save path not streaming", spy.maxWrite, spy.total)
	}
	v, err := s.Load(key)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	got := v.(*trace.IStream)
	if got.Len() != orig.Len() || got.MemEvents() != orig.MemEvents() {
		t.Fatalf("round trip drifted: %d/%d vs %d/%d", got.Len(), got.MemEvents(), orig.Len(), orig.MemEvents())
	}
}
