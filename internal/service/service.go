// Package service turns the laboratory into a server: a typed
// request/response layer over the embedding, routing, and Theorem 2.1
// simulation engines, with admission control (bounded queue, per-request
// deadlines, explicit overload rejection), a worker pool sized from
// GOMAXPROCS, graceful drain on shutdown, and singleflight request
// coalescing backed by the shared internal/cache LRU.
//
// The caching story mirrors the paper's upper bound: the static embedding
// and the per-step ⌈n/m⌉–⌈n/m⌉ routing schedule are functions of
// (topology, n, m, seed) alone — "known in advance" (§2) — so the service
// computes each artifact once and serves it many times. Three caches share
// the internal/cache implementation: request results (keyed by the full
// request), host graphs (keyed by topology/m/seed), and routing schedules
// (keyed by routing.ProblemKey, the host-graph hash plus the relation;
// consulted once per simulation run and once per /v1/route miss).
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"universalnet/internal/cache"
	"universalnet/internal/obs"
	"universalnet/internal/routing"
)

// Sentinel errors the HTTP layer maps onto status codes.
var (
	// ErrOverloaded reports an admission-control rejection: the bounded
	// queue is full. Maps to 429.
	ErrOverloaded = errors.New("service: overloaded, queue full")
	// ErrClosed reports a request that arrived during or after graceful
	// drain. Maps to 503.
	ErrClosed = errors.New("service: draining")
	// ErrInvalid wraps request-validation failures. Maps to 400.
	ErrInvalid = errors.New("service: invalid request")
)

// Config sizes a Service. Zero values pick defaults.
type Config struct {
	// Workers is the worker-pool size; 0 ⇒ GOMAXPROCS.
	Workers int
	// QueueDepth bounds the admission queue; 0 ⇒ 4·Workers. Requests
	// arriving with the queue full fail fast with ErrOverloaded.
	QueueDepth int
	// DefaultDeadline bounds a request's total latency (queue wait +
	// compute) when the request carries none; 0 ⇒ 30s.
	DefaultDeadline time.Duration
	// CacheBudget is the byte budget of the result cache; 0 ⇒ 32 MiB. The
	// host and schedule caches get the same budget.
	CacheBudget int64
	// Obs receives service metrics (service.*, service.cache.*,
	// service.hosts.*, routing.cache.*). May be nil.
	Obs *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.CacheBudget <= 0 {
		c.CacheBudget = 32 << 20
	}
	return c
}

// Service executes Embed/Route/Simulate requests through a bounded queue
// and a worker pool. Construct with New; Close drains it.
type Service struct {
	cfg Config
	obs *obs.Registry

	results   *cache.Cache[string, any]
	hosts     *cache.Cache[string, hostEntry]
	schedules *cache.Cache[string, routing.Result]

	mu     sync.RWMutex // guards closed vs. sends on jobs
	closed bool
	jobs   chan func()
	wg     sync.WaitGroup

	tele       *telemetry   // per-(endpoint,route,stage) histograms; nil without a registry
	encodeErrs *obs.Counter // response-encode failures (writeJSON)
}

// New starts a Service: the worker pool runs until Close.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:       cfg,
		obs:       cfg.Obs,
		results:   cache.New[string, any]("service.cache", cfg.CacheBudget, resultSize, cfg.Obs),
		hosts:     cache.New[string, hostEntry]("service.hosts", cfg.CacheBudget, hostSize, cfg.Obs),
		schedules: routing.NewScheduleCache(cfg.CacheBudget, cfg.Obs),
		jobs:      make(chan func(), cfg.QueueDepth),
	}
	s.tele = newTelemetry(cfg.Obs)
	s.encodeErrs = cfg.Obs.Counter("service.encode_errors")
	cfg.Obs.Gauge("service.workers").Set(int64(cfg.Workers))
	cfg.Obs.Gauge("service.queue_depth").Set(int64(cfg.QueueDepth))
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for job := range s.jobs {
				job()
			}
		}()
	}
	return s
}

// Close gracefully drains the service: new submissions are rejected with
// ErrClosed immediately, queued and in-flight requests finish, and Close
// returns when the pool has wound down (or ctx expires, leaving workers to
// finish in the background).
func (s *Service) Close(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.jobs)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: drain interrupted: %w", ctx.Err())
	}
}

// Draining reports whether Close has begun.
func (s *Service) Draining() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.closed
}

// submit enqueues job, failing fast when the queue is full (admission
// control) or the service is draining. The send happens under the read
// lock so it cannot race Close's close(s.jobs).
func (s *Service) submit(job func()) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		s.obs.Counter("service.rejected_draining").Inc()
		return ErrClosed
	}
	select {
	case s.jobs <- job:
		s.obs.Counter("service.accepted").Inc()
		return nil
	default:
		s.obs.Counter("service.rejected").Inc()
		return ErrOverloaded
	}
}

// do is the request spine shared by Embed/Route/Simulate: fast-path cache
// hit, admission, singleflight-coalesced compute on a worker, deadline
// enforcement, and outcome accounting. Returns the result and
// whether it came from cache without computing.
func (s *Service) do(ctx context.Context, kind, key string, deadlineMS int, compute func() (any, error)) (any, bool, error) {
	s.obs.Counter("service." + kind + ".requests").Inc()
	rt := timingsFrom(ctx)
	peekStart := time.Now()
	if v, ok := s.results.Peek(key); ok {
		rt.record(stageCache, peekStart)
		return v, true, nil
	}
	deadline := s.cfg.DefaultDeadline
	if deadlineMS > 0 {
		deadline = time.Duration(deadlineMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()

	type outcome struct {
		v   any
		err error
	}
	done := make(chan outcome, 1) // buffered: the worker never blocks on an abandoned request
	queueStart := time.Now()
	if err := s.submit(func() {
		// Queue wait is submit → worker pickup; the cache stage is the
		// GetOrCompute envelope (lookup + singleflight coalescing) minus the
		// compute body itself, so cache+compute sum to the worker's time.
		jobStart := time.Now()
		rt.record(stageQueue, queueStart)
		var computeUS int64
		v, err := s.results.GetOrCompute(key, func() (any, error) {
			computeStart := time.Now()
			defer func() {
				computeUS = time.Since(computeStart).Microseconds()
				rt.record(stageCompute, computeStart)
			}()
			return compute()
		})
		rt.recordUS(stageCache, jobStart.UnixMicro(), time.Since(jobStart).Microseconds()-computeUS)
		done <- outcome{v, err}
	}); err != nil {
		return nil, false, err
	}
	select {
	case out := <-done:
		if out.err != nil {
			s.obs.Counter("service.errors").Inc()
			return nil, false, out.err
		}
		s.obs.Counter("service.completed").Inc()
		return out.v, false, nil
	case <-ctx.Done():
		// The job may still run and populate the cache; this caller just
		// stops waiting.
		s.obs.Counter("service.deadline_exceeded").Inc()
		return nil, false, fmt.Errorf("service: request deadline: %w", ctx.Err())
	}
}

// StageLatency is one (endpoint, route, stage) row of server-side latency
// percentiles in /v1/status, estimated from the stage histogram by linear
// interpolation (obs.Histogram.Quantile).
type StageLatency struct {
	Endpoint string  `json:"endpoint"`
	Route    string  `json:"route"`
	Stage    string  `json:"stage"`
	Count    int64   `json:"count"`
	P50US    float64 `json:"p50_us"`
	P95US    float64 `json:"p95_us"`
	P99US    float64 `json:"p99_us"`
}

// Status is the point-in-time operational summary served at /v1/status.
type Status struct {
	Workers          int            `json:"workers"`
	QueueDepth       int            `json:"queue_depth"`
	QueueLen         int            `json:"queue_len"`
	Draining         bool           `json:"draining"`
	Accepted         int64          `json:"accepted"`
	Rejected         int64          `json:"rejected"`
	RejectedDraining int64          `json:"rejected_draining"`
	Completed        int64          `json:"completed"`
	Errors           int64          `json:"errors"`
	DeadlineExceeded int64          `json:"deadline_exceeded"`
	EncodeErrors     int64          `json:"encode_errors"`
	SlowRequests     int64          `json:"slow_requests"`
	Cache            cache.Stats    `json:"cache"`
	Hosts            cache.Stats    `json:"hosts"`
	Schedules        cache.Stats    `json:"schedules"`
	Stages           []StageLatency `json:"stages,omitempty"`
}

// Status reads the current summary. Counter values are zero when the
// service was built without a registry.
func (s *Service) Status() Status {
	return Status{
		Workers:          s.cfg.Workers,
		QueueDepth:       s.cfg.QueueDepth,
		QueueLen:         len(s.jobs),
		Draining:         s.Draining(),
		Accepted:         s.obs.Counter("service.accepted").Value(),
		Rejected:         s.obs.Counter("service.rejected").Value(),
		RejectedDraining: s.obs.Counter("service.rejected_draining").Value(),
		Completed:        s.obs.Counter("service.completed").Value(),
		Errors:           s.obs.Counter("service.errors").Value(),
		DeadlineExceeded: s.obs.Counter("service.deadline_exceeded").Value(),
		EncodeErrors:     s.encodeErrs.Value(),
		SlowRequests:     s.obs.Counter("service.slow_requests").Value(),
		Cache:            s.results.Stats(),
		Hosts:            s.hosts.Stats(),
		Schedules:        s.schedules.Stats(),
		Stages:           s.stageLatencies(),
	}
}

// stageLatencies walks the telemetry histograms in fixed index order
// (deterministic row order) and reports percentiles for every populated
// (endpoint, route, stage) combination.
func (s *Service) stageLatencies() []StageLatency {
	t := s.tele
	if t == nil {
		return nil
	}
	var out []StageLatency
	for e := 0; e < epCount; e++ {
		for r := 0; r < routeCount; r++ {
			for st := 0; st < stageCount; st++ {
				h := t.stages[e][r][st]
				n := h.Count()
				if n == 0 {
					continue
				}
				out = append(out, StageLatency{
					Endpoint: endpointNames[e],
					Route:    routeNames[r],
					Stage:    stageNames[st],
					Count:    n,
					P50US:    h.Quantile(0.50),
					P95US:    h.Quantile(0.95),
					P99US:    h.Quantile(0.99),
				})
			}
		}
	}
	return out
}

// resultSize estimates a cached result's bytes. Results are small flat
// structs; a fixed conservative charge keeps the accounting cheap.
func resultSize(any) int64 { return 256 }
