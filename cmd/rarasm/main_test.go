package main

import (
	"os"
	"path/filepath"
	"testing"

	"rarpred/internal/store"
	"rarpred/internal/trace"
	"rarpred/internal/workload"
)

// TestSaveTraceRoundTrips: -savetrace writes a .rart artifact that
// store.DecodeStream reads back as exactly the stream RecordStream
// records, and a recording cut short by the instruction budget keeps
// its Truncated flag through the file.
func TestSaveTraceRoundTrips(t *testing.T) {
	w, _ := workload.ByAbbrev("gcc")
	prog := w.Program(16)
	for _, tc := range []struct {
		name      string
		maxInsts  uint64
		truncated bool
	}{
		{"complete", 0, false},
		{"truncated", 50_000, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "t.rart")
			saved, err := saveTrace(prog, tc.maxInsts, path)
			if err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			back, err := store.DecodeStream(data)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			want, err := trace.RecordStream(prog, tc.maxInsts)
			if err != nil {
				t.Fatal(err)
			}
			if back.Truncated != tc.truncated {
				t.Errorf("Truncated = %v, want %v", back.Truncated, tc.truncated)
			}
			if err := trace.DiffStreams(back, want); err != nil {
				t.Fatalf("decoded artifact differs from RecordStream: %v", err)
			}
			if err := trace.DiffStreams(saved, want); err != nil {
				t.Fatalf("returned stream differs from RecordStream: %v", err)
			}
		})
	}
}
