package store

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"
)

const testFP = "v1 exp=fig2 size=13 bench= live=false check=false"

func journalFile(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "journal.rarj")
}

func TestJournalRecordAndResume(t *testing.T) {
	path := journalFile(t)
	j, err := CreateJournal(OS{}, path, testFP)
	if err != nil {
		t.Fatalf("CreateJournal: %v", err)
	}
	cells := map[[2]string][]byte{
		{"fig2", "go_like"}:  []byte("row-go"),
		{"fig2", "gcc_like"}: []byte("row-gcc"),
		{"fig5", "go_like"}:  []byte("row-go-5"),
	}
	for k, row := range cells {
		if err := j.Record(k[0], k[1], row); err != nil {
			t.Fatalf("Record(%v): %v", k, err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r, err := ResumeJournal(OS{}, path, testFP)
	if err != nil {
		t.Fatalf("ResumeJournal: %v", err)
	}
	defer r.Close()
	if r.Resumed() != len(cells) {
		t.Fatalf("Resumed() = %d, want %d", r.Resumed(), len(cells))
	}
	for k, want := range cells {
		got, ok := r.Lookup(k[0], k[1])
		if !ok || string(got) != string(want) {
			t.Fatalf("Lookup(%v) = %q, %v; want %q", k, got, ok, want)
		}
	}
	if _, ok := r.Lookup("fig5", "gcc_like"); ok {
		t.Fatal("Lookup invented a cell that was never journaled")
	}
	// The resumed journal appends cleanly past the existing records.
	if err := r.Record("fig5", "gcc_like", []byte("late")); err != nil {
		t.Fatalf("Record after resume: %v", err)
	}
	r.Close()
	r2, err := ResumeJournal(OS{}, path, testFP)
	if err != nil {
		t.Fatalf("second resume: %v", err)
	}
	defer r2.Close()
	if r2.Resumed() != len(cells)+1 {
		t.Fatalf("after append, Resumed() = %d, want %d", r2.Resumed(), len(cells)+1)
	}
}

func TestJournalMissingStartsFresh(t *testing.T) {
	j, err := ResumeJournal(OS{}, journalFile(t), testFP)
	if err != nil {
		t.Fatalf("resume with no journal: %v", err)
	}
	defer j.Close()
	if j.Resumed() != 0 {
		t.Fatalf("fresh journal claims %d resumed cells", j.Resumed())
	}
}

// TestJournalTornTail simulates a crash mid-append: bytes of an
// incomplete record after the last fsynced one. Resume must keep every
// complete record, drop the tail, and leave the file appendable.
func TestJournalTornTail(t *testing.T) {
	for _, tail := range [][]byte{
		{0x40},                         // lone length byte
		{0x40, 0x00, 0x00, 0x00, 0xab}, // length promising more than present
		{0x0c, 0x00, 0x00, 0x00, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 0xde, 0xad, 0xbe, 0xef}, // full record, bad CRC
	} {
		path := journalFile(t)
		j, err := CreateJournal(OS{}, path, testFP)
		if err != nil {
			t.Fatal(err)
		}
		j.Record("fig2", "go_like", []byte("good-1"))
		j.Record("fig2", "gcc_like", []byte("good-2"))
		j.Close()
		sizeBefore := fileSize(t, path)
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		f.Write(tail)
		f.Close()

		r, err := ResumeJournal(OS{}, path, testFP)
		if err != nil {
			t.Fatalf("resume over torn tail %x: %v", tail, err)
		}
		if r.Resumed() != 2 {
			t.Fatalf("torn tail %x: Resumed() = %d, want 2", tail, r.Resumed())
		}
		if got := fileSize(t, path); got != sizeBefore {
			t.Fatalf("torn tail %x: file is %d bytes, want repaired to %d", tail, got, sizeBefore)
		}
		if err := r.Record("fig2", "li_like", []byte("post-repair")); err != nil {
			t.Fatalf("append after repair: %v", err)
		}
		r.Close()
		r2, err := ResumeJournal(OS{}, path, testFP)
		if err != nil || r2.Resumed() != 3 {
			t.Fatalf("after repair+append: %d cells, %v", r2.Resumed(), err)
		}
		r2.Close()
	}
}

func TestJournalFingerprintMismatch(t *testing.T) {
	path := journalFile(t)
	j, err := CreateJournal(OS{}, path, testFP)
	if err != nil {
		t.Fatal(err)
	}
	j.Record("fig2", "go_like", []byte("row"))
	j.Close()
	_, err = ResumeJournal(OS{}, path, "v1 exp=fig9 size=6 bench= live=false check=false")
	if !errors.Is(err, ErrJournalMismatch) {
		t.Fatalf("resume under different config: %v, want ErrJournalMismatch", err)
	}
}

// TestJournalCorruptHeaderQuarantined: an unreadable header means the
// journal cannot be trusted at all — it is renamed aside and a fresh
// run starts, rather than failing the resume.
func TestJournalCorruptHeaderQuarantined(t *testing.T) {
	path := journalFile(t)
	j, err := CreateJournal(OS{}, path, testFP)
	if err != nil {
		t.Fatal(err)
	}
	j.Record("fig2", "go_like", []byte("row"))
	j.Close()
	data, _ := os.ReadFile(path)
	data[2] ^= 0xff // damage the magic
	os.WriteFile(path, data, 0o644)

	r, err := ResumeJournal(OS{}, path, testFP)
	if err != nil {
		t.Fatalf("resume over corrupt header: %v", err)
	}
	defer r.Close()
	if r.Resumed() != 0 {
		t.Fatalf("corrupt journal yielded %d cells", r.Resumed())
	}
	if _, serr := os.Stat(path + ".quarantined"); serr != nil {
		t.Fatalf("corrupt journal not quarantined: %v", serr)
	}
}

// TestJournalOldVersionQuarantined: a journal of an earlier layout is
// quarantined on resume and the run starts a fresh journal, rather than
// failing or misparsing records under the current layout. Version 1
// records had no per-cell seconds; version 2 records carried them.
func TestJournalOldVersionQuarantined(t *testing.T) {
	for _, v := range []uint16{1, 2} {
		// Rewrite a healthy header as version v and fix its checksum so
		// only the version differs.
		data := journalHeader(testFP)
		fpLen := len(testFP)
		binary.LittleEndian.PutUint16(data[4:], v)
		binary.LittleEndian.PutUint32(data[12+fpLen:], crc32.Checksum(data[:12+fpLen], castagnoli))
		data = appendOldRecord(data, v, "fig2", "go_like", "row")
		path := journalFile(t)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		r, err := ResumeJournal(OS{}, path, testFP)
		if err != nil {
			t.Fatalf("resume over v%d journal: %v", v, err)
		}
		if r.Resumed() != 0 {
			t.Fatalf("v%d journal yielded %d cells", v, r.Resumed())
		}
		if _, ok := r.Lookup("fig2", "go_like"); ok {
			t.Fatalf("v%d journal's cell surfaced after resume", v)
		}
		if _, serr := os.Stat(path + ".quarantined"); serr != nil {
			t.Fatalf("v%d journal not quarantined: %v", v, serr)
		}
		r.Close()
	}
}

// TestJournalSkipsLegacyNoteRecords: older builds journaled store
// circuit-breaker transitions as annotation records whose experiment
// field is "\x00breaker". Only version 2 journals can hold them, so such
// a journal is quarantined by its version: resume still succeeds, neither
// its cells nor its notes surface, and the fresh journal that replaces it
// records and resumes normally.
func TestJournalSkipsLegacyNoteRecords(t *testing.T) {
	data := journalHeader(testFP)
	fpLen := len(testFP)
	binary.LittleEndian.PutUint16(data[4:], 2)
	binary.LittleEndian.PutUint32(data[12+fpLen:], crc32.Checksum(data[:12+fpLen], castagnoli))
	data = appendOldRecord(data, 2, "fig2", "go_like", "row-go")
	data = appendOldRecord(data, 2, "\x00breaker", "closed->open", "")
	data = appendOldRecord(data, 2, "\x00breaker", "open->half-open", "")
	path := journalFile(t)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := ResumeJournal(OS{}, path, testFP)
	if err != nil {
		t.Fatalf("ResumeJournal: %v", err)
	}
	if r.Resumed() != 0 {
		t.Fatalf("Resumed() = %d, want 0 (the legacy journal is quarantined)", r.Resumed())
	}
	if _, ok := r.Lookup("\x00breaker", "closed->open"); ok {
		t.Fatal("a legacy note surfaced as a journaled cell")
	}
	if _, ok := r.Lookup("fig2", "go_like"); ok {
		t.Fatal("a legacy journal's cell surfaced after resume")
	}
	if _, serr := os.Stat(path + ".quarantined"); serr != nil {
		t.Fatalf("legacy journal not quarantined: %v", serr)
	}
	if err := r.Record("fig5", "go_like", []byte("late")); err != nil {
		t.Fatalf("Record after resume: %v", err)
	}
	r.Close()

	r2, err := ResumeJournal(OS{}, path, testFP)
	if err != nil {
		t.Fatalf("second resume: %v", err)
	}
	defer r2.Close()
	if r2.Resumed() != 1 {
		t.Fatalf("after append, Resumed() = %d, want 1", r2.Resumed())
	}
	if row, ok := r2.Lookup("fig5", "go_like"); !ok || string(row) != "late" {
		t.Fatalf("Lookup(fig5, go_like) = %q, %v", row, ok)
	}
	if _, ok := r2.Lookup("\x00breaker", "closed->open"); ok {
		t.Fatal("a legacy note surfaced after the second resume")
	}
}

// appendOldRecord frames one record as the version-v writer did:
// len u32 | payload | crc32c(payload), where v2 payloads end in the
// cell's seconds as an f64.
func appendOldRecord(buf []byte, v uint16, exp, wl, row string) []byte {
	var payload []byte
	payload = binary.LittleEndian.AppendUint16(payload, uint16(len(exp)))
	payload = append(payload, exp...)
	payload = binary.LittleEndian.AppendUint16(payload, uint16(len(wl)))
	payload = append(payload, wl...)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(row)))
	payload = append(payload, row...)
	if v == 2 {
		payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(1.5))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
}

// TestJournalCreateDiscardsPrevious: a run without -resume must not
// inherit cells from an earlier journal.
func TestJournalCreateDiscardsPrevious(t *testing.T) {
	path := journalFile(t)
	j, _ := CreateJournal(OS{}, path, testFP)
	j.Record("fig2", "go_like", []byte("stale"))
	j.Close()
	j2, err := CreateJournal(OS{}, path, testFP)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if _, ok := j2.Lookup("fig2", "go_like"); ok {
		t.Fatal("fresh journal inherited a stale cell")
	}
	r, err := ResumeJournal(OS{}, path, testFP)
	if err != nil || r.Resumed() != 0 {
		t.Fatalf("reload of fresh journal: %d cells, %v", r.Resumed(), err)
	}
	r.Close()
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}
