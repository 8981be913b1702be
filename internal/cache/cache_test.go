package cache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"universalnet/internal/obs"
)

// put stores key → value as GetOrCompute stores a computed result.
func put[K comparable, V any](c *Cache[K, V], key K, value V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.add(key, value)
}

func TestPeekPutBasics(t *testing.T) {
	reg := obs.New()
	c := New[string, int]("test", 100, func(int) int64 { return 10 }, reg)
	if _, ok := c.Peek("a"); ok {
		t.Fatal("hit on empty cache")
	}
	put(c, "a", 1)
	if v, ok := c.Peek("a"); !ok || v != 1 {
		t.Fatalf("Peek(a) = %d, %v; want 1, true", v, ok)
	}
	put(c, "a", 2) // replace
	if v, _ := c.Peek("a"); v != 2 {
		t.Fatalf("Peek(a) after replace = %d, want 2", v)
	}
	st := c.Stats()
	if st.Entries != 1 || st.Bytes != 10 || c.Len() != 1 {
		t.Fatalf("Entries=%d Bytes=%d Len=%d, want 1, 10, 1", st.Entries, st.Bytes, c.Len())
	}
	if st.Hits != 2 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want 2 hits and no miss (Peek counts none)", st)
	}
	if reg.Counter("test.hits").Value() != 2 {
		t.Fatal("obs counter test.hits not wired")
	}
}

// TestEvictionOrder pins the byte-budget LRU contract: when the budget
// overflows, the least-recently-*used* entry goes first — a Peek refreshes
// recency, so the untouched entry is the victim.
func TestEvictionOrder(t *testing.T) {
	reg := obs.New()
	c := New[string, int]("test", 30, func(int) int64 { return 10 }, reg)
	put(c, "a", 1)
	put(c, "b", 2)
	put(c, "c", 3)
	c.Peek("a") // refresh a: LRU order is now b, c, a
	put(c, "d", 4)
	if _, ok := c.Peek("b"); ok {
		t.Error("b should have been evicted (least recently used)")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Peek(k); !ok {
			t.Errorf("%s evicted, want kept", k)
		}
	}
	if got := reg.Counter("test.evictions").Value(); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	if b := c.Stats().Bytes; b != 30 {
		t.Errorf("Bytes = %d, want 30", b)
	}
	if got := reg.Gauge("test.bytes").Value(); got != 30 {
		t.Errorf("bytes gauge = %d, want 30", got)
	}
}

func TestOversizeValueNotStored(t *testing.T) {
	c := New[string, []byte]("test", 8, func(b []byte) int64 { return int64(len(b)) }, nil)
	put(c, "small", make([]byte, 4))
	put(c, "huge", make([]byte, 64))
	if _, ok := c.Peek("huge"); ok {
		t.Error("oversize value stored")
	}
	if _, ok := c.Peek("small"); !ok {
		t.Error("oversize insert flushed an unrelated entry")
	}
}

// TestGetOrComputeSingleflight is the dedup contract of the ISSUE: N
// concurrent identical requests must trigger exactly one computation, and
// every caller gets its result.
func TestGetOrComputeSingleflight(t *testing.T) {
	c := New[string, int]("test", 1<<20, nil, obs.New())
	var computes atomic.Int64
	const N = 64
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan error, N)
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			v, err := c.GetOrCompute("key", func() (int, error) {
				computes.Add(1)
				time.Sleep(20 * time.Millisecond) // hold the flight open
				return 42, nil
			})
			if err != nil {
				errs <- err
			} else if v != 42 {
				errs <- fmt.Errorf("got %d, want 42", v)
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times for identical concurrent requests, want exactly 1", n)
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want 1", st.Misses)
	}
	if st.Coalesced+st.Hits != N-1 {
		t.Errorf("coalesced(%d) + hits(%d) = %d, want %d followers",
			st.Coalesced, st.Hits, st.Coalesced+st.Hits, N-1)
	}
}

func TestGetOrComputeErrorNotCached(t *testing.T) {
	c := New[string, int]("test", 100, nil, nil)
	boom := errors.New("boom")
	calls := 0
	if _, err := c.GetOrCompute("k", func() (int, error) { calls++; return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	v, err := c.GetOrCompute("k", func() (int, error) { calls++; return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("retry = %d, %v; want 7, nil", v, err)
	}
	if calls != 2 {
		t.Fatalf("compute called %d times, want 2 (errors are not cached)", calls)
	}
	if v, _ = c.GetOrCompute("k", func() (int, error) { calls++; return 0, boom }); v != 7 || calls != 2 {
		t.Fatal("successful result not served from cache")
	}
}

// TestGetOrComputePanicSettlesFlight is the leak half of the ISSUE's
// singleflight audit: a panicking compute must not strand the in-flight
// entry. Followers coalesced onto the doomed flight get ErrComputePanicked
// instead of blocking forever, the panic still propagates on the leader's
// goroutine, and a later call for the same key computes fresh.
func TestGetOrComputePanicSettlesFlight(t *testing.T) {
	c := New[string, int]("test", 100, nil, obs.New())
	entered := make(chan struct{})
	release := make(chan struct{})

	leaderDone := make(chan any, 1)
	go func() {
		defer func() { leaderDone <- recover() }()
		c.GetOrCompute("k", func() (int, error) {
			close(entered)
			<-release
			panic("compute exploded")
		})
	}()
	<-entered

	const followers = 4
	var wg sync.WaitGroup
	errs := make(chan error, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.GetOrCompute("k", func() (int, error) {
				t.Error("follower elected leader while flight open")
				return 0, nil
			})
			errs <- err
		}()
	}
	// Give the followers a moment to coalesce onto the flight, then blow it up.
	for c.Stats().Coalesced < followers {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		if !errors.Is(err, ErrComputePanicked) {
			t.Errorf("follower err = %v, want ErrComputePanicked", err)
		}
	}
	if r := <-leaderDone; r != "compute exploded" {
		t.Errorf("leader panic = %v, want propagated", r)
	}
	// The flight must be gone: a fresh call computes and caches normally.
	v, err := c.GetOrCompute("k", func() (int, error) { return 5, nil })
	if err != nil || v != 5 {
		t.Fatalf("post-panic retry = %d, %v; want 5, nil", v, err)
	}
}

// TestGetOrComputeCtxFollowerCancel: a follower whose context ends while
// waiting on another caller's flight returns promptly with ctx.Err(), and
// its departure does not disturb the flight — the leader's result is still
// cached and served to patient callers.
func TestGetOrComputeCtxFollowerCancel(t *testing.T) {
	c := New[string, int]("test", 100, nil, obs.New())
	entered := make(chan struct{})
	release := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, err := c.GetOrCompute("k", func() (int, error) {
			close(entered)
			<-release
			return 42, nil
		})
		if err != nil || v != 42 {
			t.Errorf("leader = %d, %v; want 42, nil", v, err)
		}
	}()
	<-entered

	ctx, cancel := context.WithCancel(context.Background())
	impatient := make(chan error, 1)
	go func() {
		_, err := c.GetOrComputeCtx(ctx, "k", func() (int, error) {
			t.Error("cancelled follower elected leader")
			return 0, nil
		})
		impatient <- err
	}()
	for c.Stats().Coalesced < 1 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-impatient:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled follower err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled follower still blocked on the flight")
	}

	close(release)
	wg.Wait()
	if v, ok := c.Peek("k"); !ok || v != 42 {
		t.Fatalf("leader result not cached after follower abandoned: %d, %v", v, ok)
	}
}

// TestGetOrComputeCtxLeaderScope pins the documented contract that ctx
// governs only the follower wait: a caller holding an already-cancelled
// context that is elected leader still computes (its result may serve
// followers with live contexts).
func TestGetOrComputeCtxLeaderScope(t *testing.T) {
	c := New[string, int]("test", 100, nil, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	v, err := c.GetOrComputeCtx(ctx, "k", func() (int, error) { return 9, nil })
	if err != nil || v != 9 {
		t.Fatalf("cancelled leader = %d, %v; want 9, nil (ctx scopes the wait, not the compute)", v, err)
	}
	if v, ok := c.Peek("k"); !ok || v != 9 {
		t.Fatal("cancelled leader's result not cached")
	}
}

// TestConcurrentStress hammers a small cache from many goroutines with
// overlapping keys so inserts, hits, coalescing and evictions all race.
// Meaningful under -race; the invariant checks are byte accounting and
// that values never cross keys.
func TestConcurrentStress(t *testing.T) {
	c := New[int, int]("stress", 64, nil, obs.New()) // budget = 64 entries, 100 keys → constant eviction
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := (w*31 + i) % 100
				v, err := c.GetOrCompute(key, func() (int, error) {
					if key%17 == 3 {
						return 0, errors.New("transient")
					}
					return key * 1000, nil
				})
				if err == nil && v != key*1000 {
					t.Errorf("key %d returned foreign value %d", key, v)
					return
				}
				if i%7 == 0 {
					c.Peek(key)
				}
				if i%13 == 0 {
					put(c, key, key*1000)
				}
			}
		}(w)
	}
	wg.Wait()
	if b := c.Stats().Bytes; b > 64 {
		t.Errorf("bytes %d exceed budget 64 after stress", b)
	}
	var total int64
	st := c.Stats()
	total = st.Hits + st.Misses + st.Coalesced
	if total == 0 {
		t.Error("no cache traffic recorded")
	}
}

func TestNilCacheSafe(t *testing.T) {
	var c *Cache[string, int]
	if _, ok := c.Peek("a"); ok {
		t.Error("nil cache hit")
	}
	v, err := c.GetOrCompute("a", func() (int, error) { return 9, nil })
	if err != nil || v != 9 {
		t.Errorf("nil GetOrCompute = %d, %v; want pass-through 9", v, err)
	}
	if c.Len() != 0 {
		t.Error("nil cache reports contents")
	}
	c.SetObs(obs.New())
	if st := c.Stats(); st != (Stats{}) {
		t.Errorf("nil stats = %+v", st)
	}
}
