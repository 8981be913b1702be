package service

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"

	"universalnet/internal/embedding"
	"universalnet/internal/graph"
	"universalnet/internal/routing"
	"universalnet/internal/sim"
	"universalnet/internal/topology"
	"universalnet/internal/universal"
)

// Topologies names the host families a request may ask for. For torus,
// ring, and expander, M is the processor count; for butterfly and ccc, M is
// the dimension d, and both have d·2^d processors.
var Topologies = []string{"torus", "ring", "expander", "butterfly", "ccc"}

// maxHostSize bounds served host graphs — requests are user input, and a
// runaway m must fail validation, not allocate.
const maxHostSize = 1 << 16

// maxGreedyHostSize bounds the processors of a host routed by
// routing.GreedyRouter, every family but the torus (which routes by
// dimension order): the router keeps a BFS row of m ints per destination,
// all searched in one shared queue, so a route allocates about 8·m² bytes,
// 134 MB at this ceiling.
const maxGreedyHostSize = 1 << 12

// maxSimulateCells bounds m·n for a simulation: EmbeddingSimulator.Run keeps
// one m·n slice of 16-byte host-memory cells, 16·m·n bytes, 268 MB at this
// ceiling.
const maxSimulateCells = 1 << 24

// maxGuestSize bounds served guest networks.
const maxGuestSize = 1 << 14

// hostEntry is the cached, immutable part of a host: its graph and display
// name. Routers carry per-request mutable state (obs hooks, rng), so a
// fresh router is attached per request.
type hostEntry struct {
	name string
	g    *graph.Graph
}

// hostSize is a cached host graph's footprint: the arrays behind its CSR
// rows, 8(N+1) + 16M bytes unless building dropped repeated edges and left
// spare capacity, and 64 more for the entry and the graph's headers.
func hostSize(he hostEntry) int64 {
	off, nbr := he.g.Adjacency()
	return int64(8*cap(off)+8*cap(nbr)) + 64
}

// validTopology rejects unknown host families and sizes their builders
// refuse, including hosts over the greedy-routing ceiling: a torus needs a
// perfect square m of side at least 3, and the 4-regular expander at least
// 5 processors.
func validTopology(name string, m int) error {
	switch name {
	case "torus":
		if m < 9 || m > maxHostSize {
			return fmt.Errorf("service: torus size m=%d out of range [9,%d]", m, maxHostSize)
		}
		if _, err := topology.SideLength(m); err != nil {
			return fmt.Errorf("service: torus size m=%d is not a perfect square", m)
		}
	case "ring":
		if m < 4 || m > maxHostSize {
			return fmt.Errorf("service: ring size m=%d out of range [4,%d]", m, maxHostSize)
		}
	case "expander":
		if m < 5 || m > maxHostSize {
			return fmt.Errorf("service: expander size m=%d out of range [5,%d]", m, maxHostSize)
		}
	case "butterfly":
		if m < 2 || m > 12 {
			return fmt.Errorf("service: %s dimension m=%d out of range [2,12]", name, m)
		}
	case "ccc":
		if m < 3 || m > 12 {
			return fmt.Errorf("service: %s dimension m=%d out of range [3,12]", name, m)
		}
	default:
		return fmt.Errorf("service: unknown topology %q (have %v)", name, Topologies)
	}
	if p := processors(name, m); name != "torus" && p > maxGreedyHostSize {
		return fmt.Errorf("service: %s host of %d processors over the greedy-routing ceiling %d", name, p, maxGreedyHostSize)
	}
	return nil
}

// processors returns the processor count of a valid host request: m, or
// d·2^d for butterfly and ccc, whose m is the dimension d.
func processors(name string, m int) int {
	if name == "butterfly" || name == "ccc" {
		return m << m
	}
	return m
}

// host returns a Host for the request, consulting the host-graph cache
// before constructing, and always attaching a fresh router. Only the
// expander's graph depends on the seed, so only its key holds it.
func (s *Service) host(name string, m int, seed int64) (*universal.Host, error) {
	key := fmt.Sprintf("host|%s|%d", name, m)
	if name == "expander" {
		key += fmt.Sprintf("|%d", seed)
	}
	he, err := s.hosts.GetOrCompute(key, func() (hostEntry, error) {
		h, err := buildHost(name, m, seed)
		if err != nil {
			return hostEntry{}, err
		}
		return hostEntry{name: h.Name, g: h.Graph}, nil
	})
	if err != nil {
		return nil, err
	}
	router, err := buildRouter(name, he.g.N())
	if err != nil {
		return nil, err
	}
	return &universal.Host{Name: he.name, Graph: he.g, Router: router}, nil
}

// buildHost constructs the named host from scratch (the cache-miss path).
func buildHost(name string, m int, seed int64) (*universal.Host, error) {
	switch name {
	case "torus":
		return universal.TorusHost(m)
	case "ring":
		return universal.RingHost(m)
	case "expander":
		return universal.ExpanderHost(m, 4, seed)
	case "butterfly":
		return universal.ButterflyHost(m)
	case "ccc":
		return universal.CCCHost(m)
	}
	return nil, fmt.Errorf("service: unknown topology %q", name)
}

// buildRouter returns a fresh per-request router for the named topology on
// a host of n processors.
func buildRouter(name string, n int) (routing.Router, error) {
	if name == "torus" {
		side, err := topology.SideLength(n)
		if err != nil {
			return nil, err
		}
		return &routing.DimensionOrderRouter{N: side, Wrap: true, Mode: routing.MultiPort}, nil
	}
	return &routing.GreedyRouter{Mode: routing.MultiPort}, nil
}

// validGuest rejects guest sizes and degrees out of range and the ones the
// random regular generator refuses: an odd n·deg, or deg ≥ n. Degree 2 is
// out of range because a random 2-regular graph is rarely one cycle, so
// its generation would fail by chance after queueing.
func validGuest(n, deg int) error {
	if n < 4 || n > maxGuestSize {
		return fmt.Errorf("service: n=%d out of range [4,%d]", n, maxGuestSize)
	}
	if deg < 3 || deg > 8 {
		return fmt.Errorf("service: guest_degree=%d out of range [3,8]", deg)
	}
	if deg >= n {
		return fmt.Errorf("service: guest_degree=%d not below n=%d", deg, n)
	}
	if n*deg%2 != 0 {
		return fmt.Errorf("service: n·guest_degree = %d·%d is odd", n, deg)
	}
	return nil
}

// guest builds the request's deterministic random guest network.
func guest(n, deg int, seed int64) (*graph.Graph, *rand.Rand, error) {
	rng := rand.New(rand.NewSource(seed))
	g, err := topology.RandomGuest(rng, n, deg)
	if err != nil {
		return nil, nil, err
	}
	return g, rng, nil
}

// ---------------------------------------------------------------------------
// Simulate

// SimulateRequest asks for a Theorem 2.1 simulation: a random guest of N
// processors (degree GuestDegree, derived from Seed) embedded on the named
// host and run for Steps guest steps. The cache key is the full request
// tuple — identical requests are answered from cache, concurrent identical
// requests compute once.
type SimulateRequest struct {
	Topology    string `json:"topology"`
	N           int    `json:"n"`
	M           int    `json:"m"`
	Seed        int64  `json:"seed"`
	Steps       int    `json:"steps,omitempty"`        // default 8
	GuestDegree int    `json:"guest_degree,omitempty"` // default 4
	DeadlineMS  int    `json:"deadline_ms,omitempty"`  // default Config.DefaultDeadline
}

// withDefaults fills optional fields.
func (r SimulateRequest) withDefaults() SimulateRequest {
	if r.Steps == 0 {
		r.Steps = 8
	}
	if r.GuestDegree == 0 {
		r.GuestDegree = 4
	}
	return r
}

// Validate rejects out-of-range requests.
func (r SimulateRequest) Validate() error {
	if err := validTopology(r.Topology, r.M); err != nil {
		return err
	}
	if err := validGuest(r.N, r.GuestDegree); err != nil {
		return err
	}
	if r.Steps < 1 || r.Steps > 512 {
		return fmt.Errorf("service: steps=%d out of range [1,512]", r.Steps)
	}
	if m := processors(r.Topology, r.M); m*r.N > maxSimulateCells {
		return fmt.Errorf("service: m·n = %d·%d over the simulation ceiling %d", m, r.N, maxSimulateCells)
	}
	return nil
}

// Key is the coalescing/cache key: the request tuple, nothing else.
func (r SimulateRequest) Key() string {
	return fmt.Sprintf("simulate|%s|%d|%d|%d|%d|%d", r.Topology, r.N, r.M, r.Seed, r.Steps, r.GuestDegree)
}

// SimulateResult reports a completed simulation. Checksum fingerprints the
// reconstructed guest trace, so two runs of one request are provably the
// same computation.
type SimulateResult struct {
	Host         string  `json:"host"`
	GuestSteps   int     `json:"guest_steps"`
	HostSteps    int     `json:"host_steps"`
	RouteSteps   int     `json:"route_steps"`
	ComputeSteps int     `json:"compute_steps"`
	MaxLoad      int     `json:"max_load"`
	Slowdown     float64 `json:"slowdown"`
	Inefficiency float64 `json:"inefficiency"`
	Checksum     uint64  `json:"checksum"`
	Cached       bool    `json:"cached"`
}

// Simulate executes req through admission control and the result cache.
func (s *Service) Simulate(ctx context.Context, req SimulateRequest) (*SimulateResult, error) {
	req = req.withDefaults()
	if err := req.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	v, cached, err := s.do(ctx, "simulate", req.Key(), req.DeadlineMS, func() (any, error) {
		return s.computeSimulate(req)
	})
	if err != nil {
		return nil, err
	}
	res := v.(SimulateResult)
	res.Cached = cached
	return &res, nil
}

func (s *Service) computeSimulate(req SimulateRequest) (any, error) {
	host, err := s.host(req.Topology, req.M, req.Seed)
	if err != nil {
		return nil, err
	}
	g, rng, err := guest(req.N, req.GuestDegree, req.Seed)
	if err != nil {
		return nil, err
	}
	comp := sim.MixMod(g, rng)
	es := &universal.EmbeddingSimulator{Host: host, Obs: s.obs, Schedules: s.schedules}
	rep, err := es.Run(comp, req.Steps)
	if err != nil {
		return nil, err
	}
	return SimulateResult{
		Host:         host.Name,
		GuestSteps:   rep.GuestSteps,
		HostSteps:    rep.HostSteps,
		RouteSteps:   rep.RouteSteps,
		ComputeSteps: rep.ComputeSteps,
		MaxLoad:      rep.MaxLoad,
		Slowdown:     rep.Slowdown,
		Inefficiency: rep.Inefficiency,
		Checksum:     rep.Trace.Checksum(),
	}, nil
}

// ---------------------------------------------------------------------------
// Route

// RouteRequest asks for one routing run on the named host: a seeded random
// pattern ("permutation", "hh" with multiplicity H, or "bitreversal" on
// power-of-two hosts), routed by the topology's router through the shared
// schedule cache.
type RouteRequest struct {
	Topology   string `json:"topology"`
	M          int    `json:"m"`
	Seed       int64  `json:"seed"`
	Pattern    string `json:"pattern,omitempty"` // default "permutation"
	H          int    `json:"h,omitempty"`       // default 2 (hh only)
	DeadlineMS int    `json:"deadline_ms,omitempty"`
}

func (r RouteRequest) withDefaults() RouteRequest {
	if r.Pattern == "" {
		r.Pattern = "permutation"
	}
	if r.H == 0 {
		r.H = 2
	}
	return r
}

// Validate rejects out-of-range requests.
func (r RouteRequest) Validate() error {
	if err := validTopology(r.Topology, r.M); err != nil {
		return err
	}
	switch r.Pattern {
	case "permutation":
	case "bitreversal":
		if p := processors(r.Topology, r.M); p&(p-1) != 0 {
			return fmt.Errorf("service: bitreversal needs a power-of-two host, %s m=%d has %d processors", r.Topology, r.M, p)
		}
	case "hh":
		if r.H < 1 || r.H > 64 {
			return fmt.Errorf("service: h=%d out of range [1,64]", r.H)
		}
	default:
		return fmt.Errorf("service: unknown pattern %q (permutation|hh|bitreversal)", r.Pattern)
	}
	return nil
}

// Key is the coalescing/cache key.
func (r RouteRequest) Key() string {
	return fmt.Sprintf("route|%s|%d|%d|%s|%d", r.Topology, r.M, r.Seed, r.Pattern, r.H)
}

// RouteResult reports a completed routing run.
type RouteResult struct {
	Host      string `json:"host"`
	Pattern   string `json:"pattern"`
	Packets   int    `json:"packets"`
	Steps     int    `json:"steps"`
	Delivered int    `json:"delivered"`
	MaxQueue  int    `json:"max_queue"`
	TotalHops int    `json:"total_hops"`
	Cached    bool   `json:"cached"`
}

// Route executes req through admission control and the result cache.
func (s *Service) Route(ctx context.Context, req RouteRequest) (*RouteResult, error) {
	req = req.withDefaults()
	if err := req.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	v, cached, err := s.do(ctx, "route", req.Key(), req.DeadlineMS, func() (any, error) {
		return s.computeRoute(req)
	})
	if err != nil {
		return nil, err
	}
	res := v.(RouteResult)
	res.Cached = cached
	return &res, nil
}

func (s *Service) computeRoute(req RouteRequest) (any, error) {
	host, err := s.host(req.Topology, req.M, req.Seed)
	if err != nil {
		return nil, err
	}
	p, err := req.problem(host.Graph.N())
	if err != nil {
		return nil, err
	}
	res, err := s.schedules.GetOrCompute(routing.ProblemKey(host.Graph, p), func() (routing.Result, error) {
		return host.Router.Route(host.Graph, p)
	})
	if err != nil {
		return nil, err
	}
	return RouteResult{
		Host:      host.Name,
		Pattern:   req.Pattern,
		Packets:   len(p.Pairs),
		Steps:     res.Steps,
		Delivered: res.Delivered,
		MaxQueue:  res.MaxQueue,
		TotalHops: res.TotalHops,
	}, nil
}

// problem returns the request's seeded pattern on a host of n processors.
func (r RouteRequest) problem(n int) (*routing.Problem, error) {
	rng := rand.New(rand.NewSource(r.Seed))
	switch r.Pattern {
	case "permutation":
		return routing.RandomPermutation(rng, n), nil
	case "hh":
		return routing.RandomHH(rng, n, r.H), nil
	case "bitreversal":
		if n < 1 || n&(n-1) != 0 {
			return nil, fmt.Errorf("service: bitreversal needs a power-of-two host, got %d processors", n)
		}
		return routing.BitReversal(bits.TrailingZeros(uint(n))), nil
	}
	return nil, fmt.Errorf("service: unknown pattern %q", r.Pattern)
}

// ---------------------------------------------------------------------------
// Embed

// EmbedRequest asks for a static embedding of a random guest (N processors,
// degree GuestDegree, from Seed) into the named host under the balanced
// i mod m placement, reporting the §1 embedding quality measures.
type EmbedRequest struct {
	Topology    string `json:"topology"`
	N           int    `json:"n"`
	M           int    `json:"m"`
	Seed        int64  `json:"seed"`
	GuestDegree int    `json:"guest_degree,omitempty"` // default 4
	DeadlineMS  int    `json:"deadline_ms,omitempty"`
}

func (r EmbedRequest) withDefaults() EmbedRequest {
	if r.GuestDegree == 0 {
		r.GuestDegree = 4
	}
	return r
}

// Validate rejects out-of-range requests.
func (r EmbedRequest) Validate() error {
	if err := validTopology(r.Topology, r.M); err != nil {
		return err
	}
	return validGuest(r.N, r.GuestDegree)
}

// Key is the coalescing/cache key.
func (r EmbedRequest) Key() string {
	return fmt.Sprintf("embed|%s|%d|%d|%d|%d", r.Topology, r.N, r.M, r.Seed, r.GuestDegree)
}

// EmbedResult reports the embedding quality measures of §1: load, dilation,
// congestion, and the slowdown lower bound they imply.
type EmbedResult struct {
	Host               string `json:"host"`
	HostSize           int    `json:"host_size"`
	GuestEdges         int    `json:"guest_edges"`
	Load               int    `json:"load"`
	Dilation           int    `json:"dilation"`
	Congestion         int    `json:"congestion"`
	SlowdownLowerBound int    `json:"slowdown_lower_bound"`
	Cached             bool   `json:"cached"`
}

// Embed executes req through admission control and the result cache.
func (s *Service) Embed(ctx context.Context, req EmbedRequest) (*EmbedResult, error) {
	req = req.withDefaults()
	if err := req.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	v, cached, err := s.do(ctx, "embed", req.Key(), req.DeadlineMS, func() (any, error) {
		return s.computeEmbed(req)
	})
	if err != nil {
		return nil, err
	}
	res := v.(EmbedResult)
	res.Cached = cached
	return &res, nil
}

func (s *Service) computeEmbed(req EmbedRequest) (any, error) {
	host, err := s.host(req.Topology, req.M, req.Seed)
	if err != nil {
		return nil, err
	}
	g, _, err := guest(req.N, req.GuestDegree, req.Seed)
	if err != nil {
		return nil, err
	}
	m := host.Graph.N()
	f := make([]int, g.N())
	for i := range f {
		f[i] = i % m
	}
	emb, err := embedding.New(g, host.Graph, f)
	if err != nil {
		return nil, err
	}
	return EmbedResult{
		Host:               host.Name,
		HostSize:           m,
		GuestEdges:         len(g.Edges()),
		Load:               emb.Load(),
		Dilation:           emb.Dilation(),
		Congestion:         emb.Congestion(),
		SlowdownLowerBound: emb.SlowdownLowerBound(),
	}, nil
}
