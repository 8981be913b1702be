// Package cache is the laboratory's one shared cache implementation: a
// generics-based LRU with a byte budget, singleflight request coalescing,
// and obs-wired hit/miss/eviction counters. It exists because the paper's
// upper bound (Theorem 2.1) rests on artifacts that are computed once and
// reused many times — the static embedding and the per-step ⌈n/m⌉–⌈n/m⌉
// routing schedule "depend on G only, and, therefore, are known in advance"
// (§2) — so every layer that amortizes such an artifact (routing schedule
// replay, tree-host protocols, service-level results) should do it through
// one implementation with one set of metrics.
//
// Concurrency: all methods are safe for concurrent use. GetOrCompute
// deduplicates concurrent computations of the same key singleflight-style:
// exactly one caller runs the compute function, the rest block and share
// its result (or its error; errors are never cached).
package cache

import (
	"container/list"
	"context"
	"errors"
	"sync"

	"universalnet/internal/obs"
)

// ErrComputePanicked is returned to followers coalesced onto a flight whose
// compute function panicked. The panic itself propagates on the leader's
// goroutine; followers get this error instead of blocking forever, and the
// flight is removed so a later call retries.
var ErrComputePanicked = errors.New("cache: compute panicked")

// Cache is a byte-budgeted LRU keyed by K. The zero value is not usable;
// construct with New.
type Cache[K comparable, V any] struct {
	mu       sync.Mutex
	budget   int64
	bytes    int64
	sizeOf   func(V) int64
	entries  map[K]*list.Element
	order    *list.List // front = most recently used; values are *entry[K, V]
	inflight map[K]*flight[V]

	name string
	obs  *obs.Registry
}

type entry[K comparable, V any] struct {
	key   K
	value V
	size  int64
}

// flight is one in-progress computation; followers wait on done.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// New returns a cache that holds at most budget bytes of values, as
// estimated by sizeOf (which must be cheap and deterministic; a nil sizeOf
// charges one byte per entry, making the budget an entry count). name
// prefixes the metric names (<name>.hits, .misses, .evictions, .coalesced,
// and the <name>.bytes gauge); reg may be nil (metrics off) and can be
// attached later with SetObs.
func New[K comparable, V any](name string, budget int64, sizeOf func(V) int64, reg *obs.Registry) *Cache[K, V] {
	if sizeOf == nil {
		sizeOf = func(V) int64 { return 1 }
	}
	if budget < 1 {
		budget = 1
	}
	return &Cache[K, V]{
		budget:   budget,
		sizeOf:   sizeOf,
		entries:  make(map[K]*list.Element),
		order:    list.New(),
		inflight: make(map[K]*flight[V]),
		name:     name,
		obs:      reg,
	}
}

// SetObs attaches reg (nil detaches). Safe concurrently with cache use.
func (c *Cache[K, V]) SetObs(reg *obs.Registry) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.obs = reg
	c.mu.Unlock()
}

// count bumps the named counter on the attached registry. Called with c.mu
// held (reads c.obs); obs instruments are themselves atomic.
func (c *Cache[K, V]) count(suffix string) {
	c.obs.Counter(c.name + suffix).Inc()
}

// Peek returns the cached value for key: a present key counts a hit and
// refreshes recency, an absent key counts nothing. It serves fast paths that
// fall through to GetOrCompute, which records the authoritative miss, so
// counting one here would double-count every miss.
func (c *Cache[K, V]) Peek(key K) (V, bool) {
	var zero V
	if c == nil {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return zero, false
	}
	c.order.MoveToFront(el)
	c.count(".hits")
	return el.Value.(*entry[K, V]).value, true
}

// add inserts (or replaces) key → value with c.mu held, evicting
// least-recently-used entries until the byte budget holds. A value larger
// than the whole budget is not stored (counted as an eviction): caching it
// would just flush everything else for a value that can never be kept.
func (c *Cache[K, V]) add(key K, value V) {
	size := c.sizeOf(value)
	if size < 1 {
		size = 1
	}
	if size > c.budget {
		c.count(".evictions")
		return
	}
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*entry[K, V])
		c.bytes += size - e.size
		e.value, e.size = value, size
		c.order.MoveToFront(el)
	} else {
		c.entries[key] = c.order.PushFront(&entry[K, V]{key: key, value: value, size: size})
		c.bytes += size
	}
	for c.bytes > c.budget {
		back := c.order.Back()
		if back == nil {
			break
		}
		e := back.Value.(*entry[K, V])
		c.order.Remove(back)
		delete(c.entries, e.key)
		c.bytes -= e.size
		c.count(".evictions")
	}
	c.obs.Gauge(c.name + ".bytes").Set(c.bytes)
}

// GetOrCompute returns the cached value for key, or runs compute to produce
// it. Concurrent calls for the same key are coalesced: one caller computes,
// the others wait and share the outcome. Successful results are stored
// (subject to the byte budget); errors are returned to every waiter and
// nothing is cached, so a later call retries. A panicking compute settles
// the flight with ErrComputePanicked before propagating, so followers and
// future callers never block on a dead flight.
func (c *Cache[K, V]) GetOrCompute(key K, compute func() (V, error)) (V, error) {
	return c.GetOrComputeCtx(context.Background(), key, compute)
}

// GetOrComputeCtx is GetOrCompute with a caller-scoped wait: a follower
// whose ctx ends while coalesced onto another caller's flight returns
// ctx.Err() immediately and abandons the wait — the flight itself is
// unaffected, and the eventual result is still cached for everyone else.
// The ctx does NOT cancel the compute function: the elected leader runs it
// to completion regardless, because its result is shared with followers
// whose contexts are still live. Compute functions should therefore not
// capture the leader's request context — a leader cancelled mid-compute
// would poison every coalesced follower with an error that belongs to one
// caller. (The service layer runs computes on detached workers for exactly
// this reason.)
func (c *Cache[K, V]) GetOrComputeCtx(ctx context.Context, key K, compute func() (V, error)) (V, error) {
	var zero V
	if c == nil {
		return compute()
	}
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		c.count(".hits")
		v := el.Value.(*entry[K, V]).value
		c.mu.Unlock()
		return v, nil
	}
	if fl, ok := c.inflight[key]; ok {
		c.count(".coalesced")
		c.mu.Unlock()
		select {
		case <-fl.done:
		case <-ctx.Done():
			return zero, ctx.Err()
		}
		if fl.err != nil {
			return zero, fl.err
		}
		return fl.val, nil
	}
	c.count(".misses")
	fl := &flight[V]{done: make(chan struct{})}
	c.inflight[key] = fl
	c.mu.Unlock()

	settled := false
	defer func() {
		if settled {
			return
		}
		// compute panicked. Settle the flight — followers unblock with
		// ErrComputePanicked and the key retries fresh later — then let the
		// panic continue up the leader's stack.
		fl.err = ErrComputePanicked
		c.mu.Lock()
		delete(c.inflight, key)
		c.mu.Unlock()
		close(fl.done)
	}()
	fl.val, fl.err = compute()
	settled = true

	c.mu.Lock()
	delete(c.inflight, key)
	if fl.err == nil {
		c.add(key, fl.val)
	}
	c.mu.Unlock()
	close(fl.done)
	return fl.val, fl.err
}

// Stats is a point-in-time summary of the cache's counters, for status
// endpoints and tests that should not have to parse an obs snapshot.
type Stats struct {
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Budget    int64 `json:"budget"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Coalesced int64 `json:"coalesced"`
}

// Stats reads the current summary. Counter values are zero when no registry
// is attached (the counters live on the registry).
func (c *Cache[K, V]) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Entries:   len(c.entries),
		Bytes:     c.bytes,
		Budget:    c.budget,
		Hits:      c.obs.Counter(c.name + ".hits").Value(),
		Misses:    c.obs.Counter(c.name + ".misses").Value(),
		Evictions: c.obs.Counter(c.name + ".evictions").Value(),
		Coalesced: c.obs.Counter(c.name + ".coalesced").Value(),
	}
}
