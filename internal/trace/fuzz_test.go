package trace

import (
	"bytes"
	"errors"
	"testing"
)

var errRecording = errors.New("injected recording failure")

// FuzzStreamRoundTrip builds a stream from arbitrary bytes, checks its
// chunk invariants, and proves the store's path round-trips it:
// PackedChunk → AppendPackedChunk rebuilds a stream identical to the
// original (DiffStreams) that replays exactly the appended events, and
// the raw tail's on-the-fly encoding equals its sealed payload. The
// same input is also tried directly as a packed chunk; anything
// AppendPackedChunk accepts must satisfy the invariants and replay its
// tallied events.
func FuzzStreamRoundTrip(f *testing.F) {
	f.Add([]byte("roundtrip"))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte("RAR\x01garbage-after-magic"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewStream()
		var want []event
		for i := 0; i+3 < len(data); i += 4 {
			e := event{KindLoad, uint32(data[i+1]) << 2, uint32(data[i+2]), uint32(data[i+3])}
			if data[i]&1 == 1 {
				e.kind = KindStore
			}
			s.Append(e.kind, e.pc, e.addr, e.value)
			want = append(want, e)
		}
		s.CheckInvariants()

		var payloads [][]byte
		back := NewStream()
		for c := 0; c < s.NumChunks(); c++ {
			p := s.PackedChunk(c, nil)
			payloads = append(payloads, p)
			if err := back.AppendPackedChunk(p); err != nil {
				t.Fatalf("chunk %d: our own payload rejected: %v", c, err)
			}
		}
		back.CheckInvariants()
		if err := DiffStreams(back, s); err != nil {
			t.Fatalf("round trip: %v", err)
		}
		equalEvents(t, streamEvents(back), want)

		s.Seal()
		for c, p := range payloads {
			if got := s.PackedChunk(c, nil); !bytes.Equal(got, p) {
				t.Fatalf("chunk %d: sealed payload differs from the raw encoding", c)
			}
		}

		// Arbitrary bytes as a packed chunk: AppendPackedChunk may reject
		// them, but must not accept something it cannot replay.
		alien := NewStream()
		if err := alien.AppendPackedChunk(data); err == nil {
			alien.CheckInvariants()
			if got := len(streamEvents(alien)); got != alien.Len() {
				t.Fatalf("accepted chunk replays %d events, tallies %d", got, alien.Len())
			}
		}
	})
}

// FuzzCacheRetainRelease drives a byte-budgeted cache with an arbitrary
// op sequence (get, retain, release, drop, failed recording, budget
// squeeze) over a small key space, validating the full accounting
// invariant set after every op and that pins drain to zero once every
// retain is matched.
func FuzzCacheRetainRelease(f *testing.F) {
	f.Add([]byte("retain-release"))
	f.Add([]byte{0, 1, 2, 8, 9, 10, 16, 17, 18, 3, 4, 5})
	f.Add([]byte{0x00, 0x20, 0x01, 0x21, 0x04, 0x24, 0x02, 0x22, 0x03})
	f.Fuzz(func(t *testing.T, data []byte) {
		const streamBytes = chunkEvents * eventBytes // one chunk per recorded stream
		c := NewCache(3 * streamBytes)
		pinned := make(map[Key]int)
		for _, b := range data {
			key := Key{Workload: "w", Size: int(b >> 3 & 3)}
			switch b & 7 {
			case 0, 1:
				if _, err := c.Get(key, func() (*Stream, error) { return buildStream(2), nil }); err != nil {
					t.Fatalf("get: %v", err)
				}
			case 2:
				c.Retain(key)
				pinned[key]++
			case 3:
				c.Release(key)
				if pinned[key] > 0 {
					pinned[key]--
				}
			case 4:
				c.Drop(key)
			case 5:
				c.Get(key, func() (*Stream, error) { return nil, errRecording })
			case 6:
				c.SetBudget(int64(b>>3+1) * streamBytes)
			case 7:
				c.Stats()
			}
			c.CheckInvariants()
		}
		for key, n := range pinned {
			for ; n > 0; n-- {
				c.Release(key)
			}
		}
		c.CheckInvariants()
		if st := c.Stats(); st.Pinned != 0 {
			t.Fatalf("%d keys still pinned after releasing every retain", st.Pinned)
		}
	})
}
