// Package obs is the laboratory's zero-dependency instrumentation layer.
// Every internal quantity the paper's proofs reason about — host steps per
// guest step, routing-phase congestion, retries under faults, pebble ops by
// kind — becomes a measured signal: an atomic counter, a monotone gauge, or
// a fixed-bucket histogram registered on a Registry, plus span-based step
// tracing for wall-clock profiling.
//
// Two invariants shape the design:
//
//   - Disabled means free. Every method is safe on a nil receiver and
//     degenerates to (at most) one nil-check, so instrumented hot paths pay
//     nothing when no registry is attached. Instruments are resolved once
//     (outside loops) and then ticked, never looked up per iteration.
//
//   - Snapshots are deterministic. Counters and histograms accumulate
//     commutatively and gauges are monotone maxima (or set-once values), so
//     for a fixed seed the Snapshot of a run's registry is byte-identical
//     regardless of worker count or scheduling — matching the project's
//     byte-identical-rerun contract. Wall-clock time never enters a
//     Snapshot; it flows only through spans (see trace.go), which are an
//     explicitly non-deterministic diagnostic channel.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Clock abstracts time for the instrumentation layer, so runners and tests
// can inject a deterministic clock while production uses the system one.
type Clock interface {
	Now() time.Time
}

type systemClock struct{}

func (systemClock) Now() time.Time { return time.Now() }

// SystemClock returns the wall clock.
func SystemClock() Clock { return systemClock{} }

// FakeClock is a deterministic test clock: every Now call advances it by
// Step. The zero value starts at the Unix epoch and never advances.
type FakeClock struct {
	mu   sync.Mutex
	T    time.Time
	Step time.Duration
}

// Now implements Clock.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.T
	c.T = c.T.Add(c.Step)
	return t
}

// Registry holds the named instruments of one run (typically: one
// experiment, or one runner sweep). A nil *Registry is the no-op default:
// every method short-circuits and returned instruments are nil no-ops.
type Registry struct {
	mu       sync.Mutex
	clock    Clock
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	sink     *TraceSink
	ids      *IDSource
	spanSeq  atomic.Int64
}

// New returns an empty registry on the system clock, with a process-unique
// trace/span ID stream (SetIDSeed pins it for tests).
func New() *Registry {
	return &Registry{
		clock:    systemClock{},
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		ids:      NewIDSource(defaultIDSeed()),
	}
}

// SetIDSeed replaces the trace/span ID stream with one that is a pure
// function of seed, and returns r, for chaining. Tests use it to make span
// identity deterministic.
func (r *Registry) SetIDSeed(seed int64) *Registry {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	r.ids = NewIDSource(seed)
	r.mu.Unlock()
	return r
}

// IDs returns the registry's trace/span ID source (nil on nil registry).
func (r *Registry) IDs() *IDSource {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ids
}

// Sink returns the attached trace sink (nil when tracing is disabled).
func (r *Registry) Sink() *TraceSink {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sink
}

// TraceEnabled reports whether a span sink is attached.
func (r *Registry) TraceEnabled() bool { return r.Sink() != nil }

// SetClock injects a clock (nil restores the system clock) and returns r,
// for chaining.
func (r *Registry) SetClock(c Clock) *Registry {
	if r == nil {
		return nil
	}
	if c == nil {
		c = systemClock{}
	}
	r.mu.Lock()
	r.clock = c
	r.mu.Unlock()
	return r
}

// SetTrace attaches a span sink (nil detaches) and returns r, for chaining.
// With no sink attached StartSpan returns nil immediately.
func (r *Registry) SetTrace(s *TraceSink) *Registry {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	r.sink = s
	r.mu.Unlock()
	return r
}

// Now reads the registry clock; a nil registry reads the system clock.
func (r *Registry) Now() time.Time {
	if r == nil {
		return time.Now()
	}
	r.mu.Lock()
	c := r.clock
	r.mu.Unlock()
	return c.Now()
}

// Counter returns the named counter, creating it on first use. Nil registry
// → nil counter (whose methods no-op).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Nil registry →
// nil gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named fixed-bucket histogram, creating it with the
// given upper bounds (ascending; an implicit overflow bucket is appended) on
// first use. Later calls ignore bounds and return the existing histogram.
// Nil registry → nil histogram.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Counter is a monotone atomic event count.
type Counter struct {
	v atomic.Int64
}

// Add accumulates n. Nil-safe.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc adds one. Nil-safe.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a point-in-time value. Concurrent writers must use SetMax (a
// commutative monotone maximum) to keep snapshots deterministic; plain Set
// is for values written once per run (sizes, configured worker counts).
type Gauge struct {
	v atomic.Int64
}

// Set stores v. Nil-safe.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// SetMax raises the gauge to v if larger (CAS loop). Nil-safe.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur {
			return
		}
		if g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value reads the gauge (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts integer observations into fixed buckets: counts[i] tallies
// v ≤ bounds[i] (first matching bound), counts[len(bounds)] is the overflow
// bucket. Sum and Count accompany the buckets, so means survive snapshots.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64
	sum    atomic.Int64
	n      atomic.Int64
}

func newHistogram(bounds []int64) *Histogram {
	bs := append([]int64(nil), bounds...)
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	return &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
}

// Observe records v. Nil-safe.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile estimates the q-quantile (q in [0,1]) of the observed values by
// linear interpolation inside the bucket holding the target rank — the
// standard fixed-bucket estimator. The first bucket interpolates from zero
// (every recorded quantity is a nonnegative count or duration); ranks that
// land in the overflow bucket report the largest bound, a deliberate
// underestimate since the histogram does not know the true maximum.
// Returns 0 with no observations. Nil-safe.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	counts := make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return quantileBuckets(h.bounds, counts, h.n.Load(), q)
}

// quantileBuckets is Quantile's linear-interpolation estimator over a copy
// of the bucket counts.
func quantileBuckets(bounds []int64, counts []int64, total int64, q float64) float64 {
	if total <= 0 || len(counts) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	if rank < 1 {
		rank = 1
	}
	var cum float64
	for i, c := range counts {
		if c <= 0 {
			continue
		}
		if cum+float64(c) >= rank {
			frac := (rank - cum) / float64(c)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			if i >= len(bounds) {
				// Overflow bucket: no upper edge to interpolate toward.
				if len(bounds) == 0 {
					return 0
				}
				return float64(bounds[len(bounds)-1])
			}
			lo := 0.0
			if i > 0 {
				lo = float64(bounds[i-1])
			}
			return lo + (float64(bounds[i])-lo)*frac
		}
		cum += float64(c)
	}
	if len(bounds) == 0 {
		return 0
	}
	return float64(bounds[len(bounds)-1])
}

// HistogramSnapshot is the frozen state of one histogram. Counts has one
// entry per bound plus the trailing overflow bucket.
type HistogramSnapshot struct {
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"`
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
}

// Snapshot is the frozen, JSON-ready state of a registry. Maps marshal with
// sorted keys, so equal snapshots encode to identical bytes.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot freezes the registry. Nil registry → nil snapshot.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &Snapshot{}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			hs := HistogramSnapshot{
				Bounds: append([]int64(nil), h.bounds...),
				Counts: make([]int64, len(h.counts)),
				Count:  h.Count(),
				Sum:    h.Sum(),
			}
			for i := range h.counts {
				hs.Counts[i] = h.counts[i].Load()
			}
			s.Histograms[name] = hs
		}
	}
	return s
}

// Empty reports whether the snapshot carries no instruments at all.
func (s *Snapshot) Empty() bool {
	return s == nil || (len(s.Counters) == 0 && len(s.Gauges) == 0 && len(s.Histograms) == 0)
}

// Equal reports deep equality of two snapshots (nil equals nil or empty).
func (s *Snapshot) Equal(o *Snapshot) bool {
	if s.Empty() || o.Empty() {
		return s.Empty() && o.Empty()
	}
	if len(s.Counters) != len(o.Counters) || len(s.Gauges) != len(o.Gauges) ||
		len(s.Histograms) != len(o.Histograms) {
		return false
	}
	for k, v := range s.Counters {
		if ov, ok := o.Counters[k]; !ok || ov != v {
			return false
		}
	}
	for k, v := range s.Gauges {
		if ov, ok := o.Gauges[k]; !ok || ov != v {
			return false
		}
	}
	for k, v := range s.Histograms {
		ov, ok := o.Histograms[k]
		if !ok || v.Count != ov.Count || v.Sum != ov.Sum ||
			len(v.Bounds) != len(ov.Bounds) || len(v.Counts) != len(ov.Counts) {
			return false
		}
		for i := range v.Bounds {
			if v.Bounds[i] != ov.Bounds[i] {
				return false
			}
		}
		for i := range v.Counts {
			if v.Counts[i] != ov.Counts[i] {
				return false
			}
		}
	}
	return true
}

// Diff returns a short human-readable description of the first difference
// between two snapshots, or "" when equal. For test failure messages.
func (s *Snapshot) Diff(o *Snapshot) string {
	if s.Equal(o) {
		return ""
	}
	if s.Empty() != o.Empty() {
		return fmt.Sprintf("one snapshot empty (a=%v b=%v)", s.Empty(), o.Empty())
	}
	for k, v := range s.Counters {
		if ov := o.Counters[k]; ov != v {
			return fmt.Sprintf("counter %s: %d vs %d", k, v, ov)
		}
	}
	for k, v := range s.Gauges {
		if ov := o.Gauges[k]; ov != v {
			return fmt.Sprintf("gauge %s: %d vs %d", k, v, ov)
		}
	}
	for k, v := range s.Histograms {
		if ov, ok := o.Histograms[k]; !ok || v.Count != ov.Count || v.Sum != ov.Sum {
			return fmt.Sprintf("histogram %s: count/sum %d/%d vs %d/%d", k, v.Count, v.Sum, ov.Count, ov.Sum)
		}
	}
	return "snapshots differ (instrument sets)"
}

// Merge folds a snapshot into the registry: counters add, gauges take the
// maximum, histograms (matched by name, created with the snapshot's bounds
// if absent) add bucket-wise. Used by runners to aggregate per-experiment
// registries into a live run-level view. No-op on nil registry or empty
// snapshot; histograms with mismatched bounds are skipped rather than mixed.
func (r *Registry) Merge(s *Snapshot) {
	if r == nil || s.Empty() {
		return
	}
	for name, v := range s.Counters {
		r.Counter(name).Add(v)
	}
	for name, v := range s.Gauges {
		r.Gauge(name).SetMax(v)
	}
	for name, hs := range s.Histograms {
		h := r.Histogram(name, hs.Bounds)
		if len(h.bounds) != len(hs.Bounds) || len(h.counts) != len(hs.Counts) {
			continue
		}
		same := true
		for i := range h.bounds {
			if h.bounds[i] != hs.Bounds[i] {
				same = false
				break
			}
		}
		if !same {
			continue
		}
		for i, c := range hs.Counts {
			h.counts[i].Add(c)
		}
		h.sum.Add(hs.Sum)
		h.n.Add(hs.Count)
	}
}
