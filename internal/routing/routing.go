// Package routing implements the store-and-forward packet-routing substrate
// behind Theorem 2.1: h–h routing problems, online greedy and Valiant
// routers for arbitrary topologies, dimension-order routing for meshes and
// tori, offline Beneš/Waksman permutation routing (the O(log m) off-line
// routing of reference [19]), and the decomposition of h–h relations into
// permutations (the "O(n/m) permutations known in advance" step of §2).
//
// The synchronous model: in each step, each directed link may carry one
// packet (multi-port), or — matching the paper's single-port processors —
// each node may send at most one packet and receive at most one packet.
package routing

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"universalnet/internal/cache"
	"universalnet/internal/graph"
	"universalnet/internal/obs"
)

// Pair is one packet demand: route one packet from Src to Dst.
type Pair struct {
	Src, Dst int
}

// Problem is a multiset of packet demands on a graph of n vertices.
type Problem struct {
	N     int
	Pairs []Pair
}

// checkPairs rejects the first pair with an endpoint outside [0, n).
func checkPairs(n int, pairs []Pair) error {
	for _, p := range pairs {
		if p.Src < 0 || p.Src >= n || p.Dst < 0 || p.Dst >= n {
			return fmt.Errorf("routing: pair %v out of range [0,%d)", p, n)
		}
	}
	return nil
}

// H returns the h of the h–h problem: the largest number of packets any
// single node must send or receive. Every pair must lie in [0, N), as the
// routers check with checkPairs before calling H.
func (p *Problem) H() int {
	count := make([]int, 2*p.N)
	src, dst := count[:p.N], count[p.N:]
	h := 0
	for _, pr := range p.Pairs {
		src[pr.Src]++
		dst[pr.Dst]++
		h = max(h, src[pr.Src], dst[pr.Dst])
	}
	return h
}

// RandomPermutation returns a full random permutation routing problem.
func RandomPermutation(rng *rand.Rand, n int) *Problem {
	perm := rng.Perm(n)
	pairs := make([]Pair, n)
	for i, d := range perm {
		pairs[i] = Pair{Src: i, Dst: d}
	}
	return &Problem{N: n, Pairs: pairs}
}

// RandomHH returns a random h–h problem: each node sends exactly h packets,
// and destinations are arranged so each node receives exactly h (h random
// permutations superimposed).
func RandomHH(rng *rand.Rand, n, h int) *Problem {
	pairs := make([]Pair, 0, n*h)
	for i := 0; i < h; i++ {
		perm := rng.Perm(n)
		for s, d := range perm {
			pairs = append(pairs, Pair{Src: s, Dst: d})
		}
	}
	return &Problem{N: n, Pairs: pairs}
}

// BitReversal returns the bit-reversal permutation on 2^d nodes.
func BitReversal(d int) *Problem {
	n := 1 << d
	rev := func(x int) int {
		r := 0
		for i := 0; i < d; i++ {
			if x&(1<<i) != 0 {
				r |= 1 << (d - 1 - i)
			}
		}
		return r
	}
	pairs := make([]Pair, n)
	for i := 0; i < n; i++ {
		pairs[i] = Pair{Src: i, Dst: rev(i)}
	}
	return &Problem{N: n, Pairs: pairs}
}

// PortMode selects the link model.
type PortMode int

const (
	// MultiPort allows one packet per directed edge per step.
	MultiPort PortMode = iota
	// SinglePort restricts each node to sending at most one packet and
	// receiving at most one packet per step — the paper's processor model.
	SinglePort
)

// String names the port mode for experiment output.
func (m PortMode) String() string {
	switch m {
	case MultiPort:
		return "multi-port"
	case SinglePort:
		return "single-port"
	}
	return fmt.Sprintf("PortMode(%d)", int(m))
}

// Result reports a completed routing run.
type Result struct {
	Steps         int   // steps until the last packet arrived
	Delivered     int   // number of packets delivered
	MaxQueue      int   // largest queue length observed at any node
	TotalHops     int   // sum over packets of hops taken
	StepsPerPhase []int // optional per-phase breakdown (Valiant, decomposed)
}

// Router routes a problem on a graph and reports the number of steps used.
type Router interface {
	// Route must deliver every packet or return an error.
	Route(g *graph.Graph, p *Problem) (Result, error)
	// Name identifies the strategy in experiment output.
	Name() string
}

// Instrumentable is implemented by routers that can report metrics to an
// obs.Registry. Simulators use it to thread their registry into whatever
// router a Host bundles, without knowing the concrete type.
type Instrumentable interface {
	SetObs(*obs.Registry)
}

// SetObs attaches reg to r when r supports instrumentation (and, for
// wrapping routers, recursively to the wrapped router). A nil reg detaches.
func SetObs(r Router, reg *obs.Registry) {
	if ins, ok := r.(Instrumentable); ok {
		ins.SetObs(reg)
	}
}

// observePhase records one completed routing phase: counters for phases,
// steps, hops and deliveries; a monotone max gauge plus a congestion
// histogram for queue occupancy — the per-phase queue statistics the
// Leighton-style routing analyses reason about. One call per Route, outside
// every loop; all values derive from the deterministic Result.
func observePhase(reg *obs.Registry, kind string, res *Result) {
	if reg == nil {
		return
	}
	reg.Counter("routing.phases").Inc()
	reg.Counter("routing.phases." + kind).Inc()
	reg.Counter("routing.steps").Add(int64(res.Steps))
	reg.Counter("routing.hops").Add(int64(res.TotalHops))
	reg.Counter("routing.delivered").Add(int64(res.Delivered))
	reg.Gauge("routing.max_queue").SetMax(int64(res.MaxQueue))
	reg.Histogram("routing.queue_per_phase", queueBuckets).Observe(int64(res.MaxQueue))
	reg.Histogram("routing.steps_per_phase", stepBuckets).Observe(int64(res.Steps))
}

// queueBuckets and stepBuckets are the fixed histogram bounds for phase
// congestion and phase length. Powers of two: the quantities of interest
// scale with log m.
var (
	queueBuckets = []int64{1, 2, 4, 8, 16, 32, 64, 128}
	stepBuckets  = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}
)

// NextHopPolicy chooses, per packet, the neighbor to forward to. It is given
// the packet's current node and destination plus the precomputed distance
// vector to the destination, and must return a neighbor strictly closer to
// the destination.
type NextHopPolicy func(g *graph.Graph, at, dst int, distToDst []int, rng *rand.Rand) int

// MinIndexNextHop picks the smallest-index neighbor that makes progress.
func MinIndexNextHop(g *graph.Graph, at, dst int, distToDst []int, _ *rand.Rand) int {
	for _, w := range g.Neighbors(at) {
		if distToDst[w] == distToDst[at]-1 {
			return w
		}
	}
	return -1
}

// RandomNextHop picks a uniformly random neighbor that makes progress,
// breaking path symmetry (helps congestion on tori).
func RandomNextHop(g *graph.Graph, at, dst int, distToDst []int, rng *rand.Rand) int {
	var opts []int
	for _, w := range g.Neighbors(at) {
		if distToDst[w] == distToDst[at]-1 {
			opts = append(opts, w)
		}
	}
	if len(opts) == 0 {
		return -1
	}
	return opts[rng.Intn(len(opts))]
}

// distanceCache caches BFS distance vectors, one row per destination,
// computed on first use.
type distanceCache struct {
	g    *graph.Graph
	rows [][]int
}

func newDistanceCache(g *graph.Graph) *distanceCache {
	return &distanceCache{g: g, rows: make([][]int, g.N())}
}

func (c *distanceCache) to(dst int) []int {
	if d := c.rows[dst]; d != nil {
		return d
	}
	d := c.g.BFS(dst)
	c.rows[dst] = d
	return d
}

// LowerBoundSteps returns an instance-specific lower bound on the steps any
// store-and-forward router needs: the maximum of (a) the largest
// source→destination distance and (b) the bisection-style edge congestion
// Σ over packets of dist / m (every step moves at most one packet per
// directed edge, 2m directed edges).
func LowerBoundSteps(g *graph.Graph, p *Problem) (int, error) {
	if g.N() != p.N {
		return 0, fmt.Errorf("routing: size mismatch")
	}
	if err := checkPairs(p.N, p.Pairs); err != nil {
		return 0, err
	}
	cache := newDistanceCache(g)
	maxDist := 0
	totalWork := 0
	for _, pr := range p.Pairs {
		d := cache.to(pr.Dst)[pr.Src]
		if d < 0 {
			return 0, fmt.Errorf("routing: unreachable pair %v", pr)
		}
		if d > maxDist {
			maxDist = d
		}
		totalWork += d
	}
	if g.M() == 0 {
		return maxDist, nil
	}
	workBound := (totalWork + 2*g.M() - 1) / (2 * g.M())
	if workBound > maxDist {
		return workBound, nil
	}
	return maxDist, nil
}

// packet is the in-flight representation. left caches the distance to go
// and pos the directed-edge position of the hop it takes next, -1 until
// hop is asked from where it stands.
type packet struct {
	id   int
	at   int
	dst  int
	hops int
	left int
	pos  int
}

// stepRules is what a packet-stepping router hands stepPackets: its step
// bound, its next-hop rule and its distance to go. fixedHop declares that
// hop, like dist, depends on (at, dst) alone.
type stepRules struct {
	maxStep  int
	hop      func(pk *packet) (int, error)
	dist     func(pk *packet) int
	fixedHop bool
}

// GreedyRouter forwards every packet along shortest paths, arbitrating link
// contention farthest-first. Works on any connected topology.
type GreedyRouter struct {
	Mode    PortMode
	Policy  NextHopPolicy // nil ⇒ MinIndexNextHop
	Seed    int64
	MaxStep int // safety bound; 0 ⇒ 64·(diameter+1)·(h+1) heuristic
	// Obs, when non-nil, receives per-phase routing metrics.
	Obs *obs.Registry
}

// Name implements Router.
func (r *GreedyRouter) Name() string {
	return fmt.Sprintf("greedy(%s)", r.Mode)
}

// SetObs implements Instrumentable.
func (r *GreedyRouter) SetObs(reg *obs.Registry) { r.Obs = reg }

// Route implements Router.
func (r *GreedyRouter) Route(g *graph.Graph, p *Problem) (Result, error) {
	rules, err := r.rules(g, p)
	if err != nil {
		return Result{}, err
	}
	res, err := stepPackets(g, p, r.Mode, rules)
	if err != nil {
		return res, err
	}
	observePhase(r.Obs, "greedy", &res)
	return res, nil
}

// rules checks p against g and returns the greedy step rules: a fresh
// seeded policy over one BFS row per destination.
func (r *GreedyRouter) rules(g *graph.Graph, p *Problem) (stepRules, error) {
	if g.N() != p.N {
		return stepRules{}, fmt.Errorf("routing: graph has %d nodes, problem %d", g.N(), p.N)
	}
	if err := checkPairs(p.N, p.Pairs); err != nil {
		return stepRules{}, err
	}
	policy := r.Policy
	if policy == nil {
		policy = MinIndexNextHop
	}
	rng := rand.New(rand.NewSource(r.Seed))
	cache := newDistanceCache(g)

	diam := 1
	for _, pr := range p.Pairs {
		if pr.Src == pr.Dst {
			continue
		}
		d := cache.to(pr.Dst)[pr.Src]
		if d < 0 {
			return stepRules{}, fmt.Errorf("routing: destination %d unreachable from %d", pr.Dst, pr.Src)
		}
		if d > diam {
			diam = d
		}
	}
	maxStep := r.MaxStep
	if maxStep == 0 {
		maxStep = 64 * (diam + 1) * (p.H() + 1)
		if maxStep < 1024 {
			maxStep = 1024
		}
	}
	return stepRules{
		maxStep: maxStep,
		hop: func(pk *packet) (int, error) {
			v := policy(g, pk.at, pk.dst, cache.to(pk.dst), rng)
			if v < 0 {
				return 0, fmt.Errorf("routing: policy returned no progress from %d toward %d", pk.at, pk.dst)
			}
			return v, nil
		},
		dist:     func(pk *packet) int { return cache.to(pk.dst)[pk.at] },
		fixedHop: r.Policy == nil,
	}, nil
}

// edgeSlot is one directed edge's winner in stepPackets: the index in the
// live slice of the packet that holds the edge, valid in the step stamped.
type edgeSlot struct{ stamp, winner int }

// nodeSlot is one node's single-port admission and queue count in
// stepPackets, each field valid in the step it stamps.
type nodeSlot struct{ sent, received, counted, queue int }

// stepPackets routes p on g in synchronous store-and-forward steps; it is
// the step loop of every packet-stepping router. Its contract:
//   - each step, rules.hop names the next node of every undelivered packet,
//     called in packet order, so a seeded policy draws deterministically; a
//     node that is not a neighbor in g is an error. Under rules.fixedHop a
//     packet asks only when it is created and after it moves, and a waiting
//     packet keeps the answer it has;
//   - each directed edge carries one packet: the one with the most distance
//     left by rules.dist, the lower packet id on ties;
//   - under SinglePort the winners move in ascending (u, v) order while each
//     node sends at most once and receives at most once;
//   - Steps counts the steps until the last delivery, Delivered every
//     packet (self-pairs without a step), TotalHops the moves of delivered
//     packets and MaxQueue the most undelivered packets at one node after
//     any step;
//   - routing fails after rules.maxStep steps.
//
// A packet's distance is taken when it is created and after each move, so
// rules.dist must depend on (at, dst) alone. Arbitration runs on dense
// arrays indexed by directed-edge position in g's sorted adjacency (u's
// offset plus v's index in Neighbors(u)), so edge position order is (u, v)
// order; to holds each position's head v, and entries are stamped with the
// step instead of being cleared. Every pair must lie in [0, g.N()).
func stepPackets(g *graph.Graph, p *Problem, mode PortMode, rules stepRules) (Result, error) {
	var res Result
	live := make([]packet, 0, len(p.Pairs))
	for i, pr := range p.Pairs {
		if pr.Src == pr.Dst {
			res.Delivered++
			continue
		}
		live = append(live, packet{id: i, at: pr.Src, dst: pr.Dst, pos: -1})
		pk := &live[len(live)-1]
		pk.left = rules.dist(pk)
	}
	n := g.N()
	off := make([]int, n+1)
	for u := 0; u < n; u++ {
		off[u+1] = off[u] + g.Degree(u)
	}
	to := make([]int, off[n])
	for u := 0; u < n; u++ {
		copy(to[off[u]:], g.Neighbors(u))
	}
	edges := make([]edgeSlot, off[n])
	nodes := make([]nodeSlot, n)
	var used []int // positions of the edges with a winner this step
	for step := 0; len(live) > 0; step++ {
		if step >= rules.maxStep {
			return res, fmt.Errorf("routing: step bound %d exceeded with %d packets undelivered", rules.maxStep, len(live))
		}
		stamp := step + 1
		used = used[:0]
		for i := range live {
			pk := &live[i]
			if pk.pos < 0 || !rules.fixedHop {
				v, err := rules.hop(pk)
				if err != nil {
					return res, err
				}
				j, ok := slices.BinarySearch(g.Neighbors(pk.at), v)
				if !ok {
					return res, fmt.Errorf("routing: packet %d hops from %d to %d, which is not a neighbor", pk.id, pk.at, v)
				}
				pk.pos = off[pk.at] + j
			}
			e := &edges[pk.pos]
			if e.stamp != stamp {
				*e = edgeSlot{stamp: stamp, winner: i}
				used = append(used, pk.pos)
				continue
			}
			if cur := &live[e.winner]; pk.left > cur.left || pk.left == cur.left && pk.id < cur.id {
				e.winner = i
			}
		}
		if mode == SinglePort {
			slices.Sort(used)
		}
		for _, e := range used {
			pk := &live[edges[e].winner]
			v := to[e]
			if mode == SinglePort {
				if nodes[pk.at].sent == stamp || nodes[v].received == stamp {
					continue
				}
				nodes[pk.at].sent = stamp
				nodes[v].received = stamp
			}
			pk.at = v
			pk.hops++
			pk.left = rules.dist(pk)
			pk.pos = -1
		}
		// Deliveries and stats.
		next := live[:0]
		for _, pk := range live {
			if pk.at == pk.dst {
				res.Delivered++
				res.TotalHops += pk.hops
				continue
			}
			nd := &nodes[pk.at]
			if nd.counted != stamp {
				nd.counted, nd.queue = stamp, 0
			}
			nd.queue++
			res.MaxQueue = max(res.MaxQueue, nd.queue)
			next = append(next, pk)
		}
		live = next
		res.Steps = step + 1
	}
	return res, nil
}

// ValiantRouter routes in two phases: every packet first goes to a uniformly
// random intermediate node, then to its true destination (Valiant's trick),
// each phase with the greedy router. Defeats adversarial permutations.
type ValiantRouter struct {
	Mode PortMode
	Seed int64
	// Obs, when non-nil, receives per-phase routing metrics (the two
	// Valiant phases report through the greedy sub-router).
	Obs *obs.Registry
}

// Name implements Router.
func (r *ValiantRouter) Name() string { return fmt.Sprintf("valiant(%s)", r.Mode) }

// SetObs implements Instrumentable.
func (r *ValiantRouter) SetObs(reg *obs.Registry) { r.Obs = reg }

// Route implements Router.
func (r *ValiantRouter) Route(g *graph.Graph, p *Problem) (Result, error) {
	rng := rand.New(rand.NewSource(r.Seed))
	inter := make([]int, len(p.Pairs))
	phase1 := make([]Pair, len(p.Pairs))
	phase2 := make([]Pair, len(p.Pairs))
	for i, pr := range p.Pairs {
		inter[i] = rng.Intn(p.N)
		phase1[i] = Pair{Src: pr.Src, Dst: inter[i]}
		phase2[i] = Pair{Src: inter[i], Dst: pr.Dst}
	}
	sub := &GreedyRouter{Mode: r.Mode, Policy: RandomNextHop, Seed: r.Seed + 1, Obs: r.Obs}
	res1, err := sub.Route(g, &Problem{N: p.N, Pairs: phase1})
	if err != nil {
		return Result{}, fmt.Errorf("routing: valiant phase 1: %w", err)
	}
	sub.Seed = r.Seed + 2
	res2, err := sub.Route(g, &Problem{N: p.N, Pairs: phase2})
	if err != nil {
		return Result{}, fmt.Errorf("routing: valiant phase 2: %w", err)
	}
	out := Result{
		Steps:         res1.Steps + res2.Steps,
		Delivered:     res2.Delivered,
		TotalHops:     res1.TotalHops + res2.TotalHops,
		StepsPerPhase: []int{res1.Steps, res2.Steps},
	}
	if res1.MaxQueue > res2.MaxQueue {
		out.MaxQueue = res1.MaxQueue
	} else {
		out.MaxQueue = res2.MaxQueue
	}
	return out, nil
}

// CachedRouter memoizes results per problem: the §2 observation that a
// bounded-degree guest's per-step relations "depend on G only, and,
// therefore, are known in advance" — the schedule is computed once and its
// cost replayed on repeats. Wrap any deterministic Router; problems are
// keyed by graph hash plus their full pair multiset.
//
// The memo is a shared internal/cache LRU (byte-budgeted, singleflight),
// so concurrent Route calls for the same problem compute once, and a
// long-lived router cannot grow without bound. Leave Cache nil for a
// private cache with DefaultScheduleBudget, or inject a shared one (e.g. a
// service-wide schedule cache) to amortize across simulators.
type CachedRouter struct {
	Inner Router
	// Cache holds the memoized schedules. Nil ⇒ a private cache is created
	// on first use.
	Cache *cache.Cache[string, Result]
	// Obs, when non-nil, counts schedule-cache hits/misses/evictions (as
	// routing.cache.*) via the cache's own instrumentation.
	Obs *obs.Registry

	once sync.Once
}

// DefaultScheduleBudget bounds a private schedule cache: enough for every
// experiment in the suite (schedules are ~100 bytes) while capping a
// long-running server's memory.
const DefaultScheduleBudget = 1 << 22

// ScheduleSize estimates the bytes a memoized Result occupies, for cache
// budgets.
func ScheduleSize(res Result) int64 {
	return int64(8*5 + 16 + 8*len(res.StepsPerPhase))
}

// NewScheduleCache builds a cache suitable for CachedRouter.Cache, named
// routing.cache so its obs counters keep the established metric names.
func NewScheduleCache(budget int64, reg *obs.Registry) *cache.Cache[string, Result] {
	return cache.New[string, Result]("routing.cache", budget, ScheduleSize, reg)
}

// Name implements Router.
func (r *CachedRouter) Name() string { return "cached(" + r.Inner.Name() + ")" }

// init ensures a cache exists and carries the router's registry.
func (r *CachedRouter) init() {
	r.once.Do(func() {
		if r.Cache == nil {
			r.Cache = NewScheduleCache(DefaultScheduleBudget, r.Obs)
		} else if r.Obs != nil {
			r.Cache.SetObs(r.Obs)
		}
	})
}

// SetObs implements Instrumentable, threading reg through to the schedule
// cache and the inner router as well.
func (r *CachedRouter) SetObs(reg *obs.Registry) {
	r.Obs = reg
	r.init()
	r.Cache.SetObs(reg)
	SetObs(r.Inner, reg)
}

// Route implements Router.
func (r *CachedRouter) Route(g *graph.Graph, p *Problem) (Result, error) {
	return r.RouteKey(g, p, ProblemKey(g, p))
}

// RouteKey is Route with the schedule key already computed: key must be
// ProblemKey(g, p). A caller that routes one problem many times, as a
// simulation does every guest step, keys it once and still consults the
// cache on every call.
func (r *CachedRouter) RouteKey(g *graph.Graph, p *Problem, key string) (Result, error) {
	r.init()
	return r.Cache.GetOrCompute(key, func() (Result, error) {
		return r.Inner.Route(g, p)
	})
}

// ProblemKey folds the graph identity and the sorted pair multiset into
// CachedRouter's schedule key. Each pair is packed as Src<<32|Dst, so one
// integer sort puts in-range pairs in (Src, Dst) order; the key only has to
// be canonical, and its bytes never leave the cache.
func ProblemKey(g *graph.Graph, p *Problem) string {
	packed := make([]uint64, len(p.Pairs))
	for i, pr := range p.Pairs {
		packed[i] = uint64(pr.Src)<<32 | uint64(uint32(pr.Dst))
	}
	slices.Sort(packed)
	var b []byte
	b = appendUvarint(b, uint64(g.Hash()))
	b = appendUvarint(b, uint64(p.N))
	for _, x := range packed {
		b = appendUvarint(b, x>>32)
		b = appendUvarint(b, x&(1<<32-1))
	}
	return string(b)
}

func appendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}
