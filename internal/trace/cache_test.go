package trace

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rarpred/internal/runerr"
)

// fullStream returns a stream of chunks full chunks, left unsealed so
// its raw tail is charged at exactly chunkBytes: fullStream(1) costs
// chunkBytes, the figure the budget arithmetic below depends on, and a
// longer stream costs that plus its sealed chunks' packed bytes.
func fullStream(chunks int) *Stream {
	s := NewStream()
	for i := 0; i < chunks*chunkEvents; i++ {
		s.Append(KindLoad, 0, 0, 0)
	}
	return s
}

// chunkBytes is the payload allocation of one full chunk.
const chunkBytes = int64(chunkEvents) * eventBytes

// TestCacheSingleFlight: many goroutines asking for the same key share
// exactly one recording. Run with -race.
func TestCacheSingleFlight(t *testing.T) {
	c := NewCache(DefaultBudget)
	key := Key{Workload: "gcc", Size: 4}

	var recordings atomic.Int64
	var wg sync.WaitGroup
	const goroutines = 16
	streams := make([]*Stream, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s, err := c.Get(key, func() (*Stream, error) {
				recordings.Add(1)
				return fullStream(1), nil
			})
			if err != nil {
				t.Error(err)
			}
			streams[g] = s
		}(g)
	}
	wg.Wait()

	if n := recordings.Load(); n != 1 {
		t.Errorf("record ran %d times, want 1", n)
	}
	for g := 1; g < goroutines; g++ {
		if streams[g] != streams[0] {
			t.Fatalf("goroutine %d got a different stream", g)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != goroutines-1 {
		t.Errorf("stats = %d hits / %d misses, want %d / 1", st.Hits, st.Misses, goroutines-1)
	}
}

// TestCachePinSurvivesEviction: a Retained key is exempt from LRU
// eviction even when the budget is blown, and rejoins the eviction
// economy once Released. Retain before the entry exists works: the pin
// is a dependency edge from a future consumer, not a handle.
func TestCachePinSurvivesEviction(t *testing.T) {
	c := NewCache(2 * chunkBytes)
	recorded := make(map[string]int)
	get := func(name string) {
		t.Helper()
		_, err := c.Get(Key{Workload: name, Size: 4}, func() (*Stream, error) {
			recorded[name]++
			return fullStream(1), nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	hot := Key{Workload: "hot", Size: 4}
	c.Retain(hot) // before the entry exists
	c.Retain(hot) // pins nest
	get("hot")
	get("b")
	get("c")
	get("d") // budget is 2 chunks; hot would be LRU victim but is pinned
	get("hot")
	if recorded["hot"] != 1 {
		t.Fatalf("pinned stream re-recorded %d times, want once", recorded["hot"])
	}
	if st := c.Stats(); st.Pinned != 1 {
		t.Errorf("Stats().Pinned = %d, want 1", st.Pinned)
	}

	c.Release(hot)
	get("e") // still pinned (refcount 1): hot must survive this insertion
	get("hot")
	if recorded["hot"] != 1 {
		t.Fatalf("stream evicted while still pinned (recorded %d times)", recorded["hot"])
	}
	c.Release(hot)
	if st := c.Stats(); st.Pinned != 0 {
		t.Errorf("Stats().Pinned = %d after final release, want 0", st.Pinned)
	}
	// Unpinned and least-recently... make it LRU, then displace it.
	get("f")
	get("g")
	get("hot")
	if recorded["hot"] != 2 {
		t.Errorf("unpinned stream recorded %d times, want re-record after eviction", recorded["hot"])
	}

	c.Release(Key{Workload: "never-pinned", Size: 1}) // no-op, must not panic
}

// TestCacheEviction: resident payload stays within the byte budget, old
// entries go first, and a re-Get of an evicted key re-records.
func TestCacheEviction(t *testing.T) {
	c := NewCache(2 * chunkBytes)
	recorded := make(map[string]int)
	get := func(name string) {
		t.Helper()
		_, err := c.Get(Key{Workload: name, Size: 4}, func() (*Stream, error) {
			recorded[name]++
			return fullStream(1), nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	get("a")
	get("b")
	get("c") // exceeds the 2-chunk budget: "a" (LRU) must go

	st := c.Stats()
	if st.Bytes > st.Budget {
		t.Errorf("resident %d bytes exceeds budget %d", st.Bytes, st.Budget)
	}
	if st.Evictions != 1 || st.Entries != 2 {
		t.Errorf("evictions=%d entries=%d, want 1 and 2", st.Evictions, st.Entries)
	}

	get("b") // still resident: hit, no re-record
	get("a") // evicted: re-records, displacing "c" (now LRU)
	if recorded["b"] != 1 {
		t.Errorf(`"b" recorded %d times, want 1 (should have stayed resident)`, recorded["b"])
	}
	if recorded["a"] != 2 {
		t.Errorf(`"a" recorded %d times, want 2 (evicted then re-requested)`, recorded["a"])
	}
	if c.Stats().Evictions != 2 {
		t.Errorf("evictions = %d, want 2", c.Stats().Evictions)
	}
}

// TestCacheOversizedEntry: a stream bigger than the whole budget is
// still returned and stays resident until something displaces it.
func TestCacheOversizedEntry(t *testing.T) {
	c := NewCache(chunkBytes)
	s, err := c.Get(Key{Workload: "big"}, func() (*Stream, error) {
		return fullStream(3), nil
	})
	if err != nil || s == nil {
		t.Fatalf("oversized Get failed: %v", err)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Errorf("oversized entry not resident: %+v", st)
	}
}

// TestCacheErrorRetry: a failed recording is not cached; the next Get
// retries and can succeed.
func TestCacheErrorRetry(t *testing.T) {
	c := NewCache(DefaultBudget)
	key := Key{Workload: "flaky", Size: 4}
	boom := errors.New("boom")

	if _, err := c.Get(key, func() (*Stream, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	var again bool
	s, err := c.Get(key, func() (*Stream, error) {
		again = true
		return fullStream(1), nil
	})
	if err != nil || s == nil {
		t.Fatalf("retry failed: %v", err)
	}
	if !again {
		t.Error("failed entry was cached; retry never recorded")
	}
}

// TestCacheSetBudget: shrinking the budget evicts immediately.
func TestCacheSetBudget(t *testing.T) {
	c := NewCache(4 * chunkBytes)
	for _, name := range []string{"a", "b", "c"} {
		if _, err := c.Get(Key{Workload: name}, func() (*Stream, error) {
			return fullStream(1), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	c.SetBudget(chunkBytes)
	st := c.Stats()
	if st.Entries != 1 || st.Bytes != chunkBytes {
		t.Errorf("after shrink: %d entries / %d bytes, want 1 / %d", st.Entries, st.Bytes, chunkBytes)
	}
}

// TestCachePanicReleasesWaiters is the regression test for the
// single-flight deadlock: when record panics, every concurrent waiter
// must be released with a typed error (not block forever on an unclosed
// ready channel), the poisoned entry must be dropped, and the panic must
// still reach the recording goroutine. Run with -race.
func TestCachePanicReleasesWaiters(t *testing.T) {
	c := NewCache(DefaultBudget)
	key := Key{Workload: "kaboom", Size: 4}

	const waiters = 8

	recorderEntered := make(chan struct{})
	release := make(chan struct{})
	var panicked atomic.Bool
	go func() {
		defer func() {
			if recover() != nil {
				panicked.Store(true)
			}
		}()
		c.Get(key, func() (*Stream, error) {
			close(recorderEntered)
			<-release
			panic("injected recorder panic")
		})
	}()

	// Only trigger the panic once every waiter has joined the in-flight
	// recording, so each one deterministically observes the poisoning.
	var joined atomic.Int32
	allJoined := make(chan struct{})
	testWaiterJoined = func() {
		if joined.Add(1) == waiters {
			close(allJoined)
		}
	}
	defer func() { testWaiterJoined = nil }()

	<-recorderEntered // the flight is in progress: these Gets become waiters
	errs := make(chan error, waiters)
	for g := 0; g < waiters; g++ {
		go func() {
			_, err := c.Get(key, func() (*Stream, error) {
				t.Error("waiter re-recorded while a flight was active")
				return fullStream(1), nil
			})
			errs <- err
		}()
	}
	<-allJoined
	close(release)

	for g := 0; g < waiters; g++ {
		select {
		case err := <-errs:
			if !errors.Is(err, runerr.ErrWorkloadPanic) {
				t.Errorf("waiter error = %v, want ErrWorkloadPanic", err)
			}
			if err == nil || !strings.Contains(err.Error(), "kaboom") {
				t.Errorf("waiter error %v does not name the workload", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("waiter stranded: ready channel never closed")
		}
	}
	if !panicked.Load() {
		t.Error("panic did not propagate to the recording goroutine")
	}

	// The poisoned entry must be gone: the next Get re-records cleanly.
	s, err := c.Get(key, func() (*Stream, error) { return fullStream(1), nil })
	if err != nil || s == nil {
		t.Fatalf("retry after panic failed: %v", err)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Errorf("entries = %d after retry, want 1", st.Entries)
	}
}

// TestCacheDrop: a dropped entry stops being served and its bytes leave
// the budget accounting; dropping unknown keys is a no-op.
func TestCacheDrop(t *testing.T) {
	c := NewCache(DefaultBudget)
	key := Key{Workload: "w", Size: 4}
	records := 0
	get := func() (*Stream, error) {
		records++
		return fullStream(1), nil
	}
	if _, err := c.Get(key, get); err != nil {
		t.Fatal(err)
	}
	c.Drop(key)
	c.Drop(Key{Workload: "missing"}) // no-op
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("after drop: %d entries / %d bytes", st.Entries, st.Bytes)
	}
	if _, err := c.Get(key, get); err != nil {
		t.Fatal(err)
	}
	if records != 2 {
		t.Errorf("recorded %d times, want 2 (drop must force a re-record)", records)
	}
}

// TestCacheDropLeavesInFlight: Drop during an active recording leaves
// the flight to its owner, which still publishes the result.
func TestCacheDropLeavesInFlight(t *testing.T) {
	c := NewCache(DefaultBudget)
	key := Key{Workload: "slow", Size: 4}
	entered := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := c.Get(key, func() (*Stream, error) {
			close(entered)
			<-release
			return fullStream(1), nil
		})
		done <- err
	}()
	<-entered
	c.Drop(key) // must not detach the in-flight entry
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Errorf("in-flight recording lost by Drop: %+v", st)
	}
}

// TestCacheGetContextWaiterTimeout: a waiter with an expiring context
// gives up with the context error while the stalled flight stays
// untouched for its owner.
func TestCacheGetContextWaiterTimeout(t *testing.T) {
	c := NewCache(DefaultBudget)
	key := Key{Workload: "stalled", Size: 4}
	entered := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := c.Get(key, func() (*Stream, error) {
			close(entered)
			<-release
			return fullStream(1), nil
		})
		done <- err
	}()
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := c.GetContext(ctx, key, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiter err = %v, want DeadlineExceeded", err)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
