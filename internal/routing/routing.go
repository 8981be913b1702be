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
	"math"
	"math/bits"
	"math/rand"
	"slices"

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
// breaking path symmetry (helps congestion on tori). It counts the
// progressing neighbors, draws once and returns the drawn one in neighbor
// order, without collecting them.
func RandomNextHop(g *graph.Graph, at, dst int, distToDst []int, rng *rand.Rand) int {
	nb, want := g.Neighbors(at), distToDst[at]-1
	count := 0
	for _, w := range nb {
		if distToDst[w] == want {
			count++
		}
	}
	if count == 0 {
		return -1
	}
	k := rng.Intn(count)
	for _, w := range nb {
		if distToDst[w] == want {
			if k == 0 {
				return w
			}
			k--
		}
	}
	return -1
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

// packet is the in-flight representation: its pair index, where it stands,
// where it goes and the hops it has taken. Its place in the edge queues
// sits at the same index of edgeQueues.entry.
type packet struct {
	id   int
	at   int
	dst  int
	hops int
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

// nodeSlot is one node's state in stepPackets: the steps in which it last
// sent and received (single-port admission, stamped with the step instead
// of cleared) and the count of undelivered packets at it.
type nodeSlot struct{ sent, received, waiting int }

// rank packs the arbitration order of a packet with left to go and index i
// into one key, the smaller first: most distance left, then lower index,
// which is lower packet id. left must fit in an int32 and i in a uint32.
func rank(left, i int) uint64 {
	return uint64(math.MaxInt32-left)<<32 | uint64(i)
}

// queueEntry is one packet's place in edgeQueues: its arbitration key, its
// first child and its next sibling.
type queueEntry struct {
	key        uint64
	child, sib int32
}

// edgeQueues keeps the packets waiting on each directed-edge position in a
// pairing heap ordered by key. head[e] is the root of position e's heap, -1
// when it is empty, and entry, indexed like the packets, links the rest, so
// all the queues share one pool: an entry per packet and an int32 head per
// position.
type edgeQueues struct {
	head  []int32
	entry []queueEntry
}

// meld joins the heaps rooted at a and b and returns the new root. A root's
// sib is never read.
func (q *edgeQueues) meld(a, b int32) int32 {
	if q.entry[b].key < q.entry[a].key {
		a, b = b, a
	}
	q.entry[b].sib = q.entry[a].child
	q.entry[a].child = b
	return a
}

// push adds packet i to position e's queue.
func (q *edgeQueues) push(e int, i int32) {
	q.entry[i].child = -1
	if r := q.head[e]; r >= 0 {
		i = q.meld(r, i)
	}
	q.head[e] = i
}

// pop removes the root of position e's queue. Its children are melded in
// the pairing heap's two passes: in pairs from the first, each pair's root
// stacked through sib, then from the top of that stack down.
func (q *edgeQueues) pop(e int) {
	stack := int32(-1)
	for c := q.entry[q.head[e]].child; c >= 0; {
		d := q.entry[c].sib
		if d < 0 {
			q.entry[c].sib, stack = stack, c
			break
		}
		next := q.entry[d].sib
		m := q.meld(c, d)
		q.entry[m].sib, stack = stack, m
		c = next
	}
	root := stack
	if root >= 0 {
		for s := q.entry[root].sib; s >= 0; {
			next := q.entry[s].sib
			root = q.meld(root, s)
			s = next
		}
	}
	q.head[e] = root
}

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
// Under fixedHop a step costs its moves, not its waiting packets. A
// packet's distance is taken when it is created and after each move, so
// rules.dist must depend on (at, dst) alone; its key keeps it. Each directed-edge position in g's
// rows (Adjacency: u's offset plus v's index in Neighbors(u)) queues its
// waiting packets in edgeQueues, and a bitset over positions marks the
// non-empty queues, so a step walks the active edges in (u, v) order and
// pops one winner from each; a blocked single-port winner stays queued. The
// packets that must ask rules.hop are marked in a bitset over packet
// indices, which the next step walks in packet order: under fixedHop the
// packets that moved, otherwise every undelivered packet, with the queues
// emptied after each step. A packet is delivered at its move. Per-node
// counts follow the moves, every sender before any receiver, so MaxQueue
// scans all nodes only after the first step and then the receivers. Every
// pair must lie in [0, g.N()), and there are fewer than 2³¹ packets.
func stepPackets(g *graph.Graph, p *Problem, mode PortMode, rules stepRules) (Result, error) {
	var res Result
	off, nbr := g.Adjacency()
	nodes := make([]nodeSlot, g.N())
	pks := make([]packet, 0, len(p.Pairs))
	for i, pr := range p.Pairs {
		if pr.Src == pr.Dst {
			res.Delivered++
			continue
		}
		pks = append(pks, packet{id: i, at: pr.Src, dst: pr.Dst})
		nodes[pr.Src].waiting++
	}
	q := edgeQueues{head: make([]int32, len(nbr)), entry: make([]queueEntry, len(pks))}
	for i := range pks {
		q.entry[i].key = rank(rules.dist(&pks[i]), i)
	}
	for e := range q.head {
		q.head[e] = -1
	}
	words := (len(nbr) + 63) / 64
	bitsets := make([]uint64, words+(len(pks)+63)/64)
	active, pending := bitsets[:words], bitsets[words:]
	for i := range pks {
		pending[i/64] |= 1 << (i % 64)
	}
	undelivered := len(pks)
	for step := 0; undelivered > 0; step++ {
		if step >= rules.maxStep {
			return res, fmt.Errorf("routing: step bound %d exceeded with %d packets undelivered", rules.maxStep, undelivered)
		}
		// Each pending packet asks its hop and joins that edge's queue.
		for w := range pending {
			for b := pending[w]; b != 0; b &= b - 1 {
				i := w*64 + bits.TrailingZeros64(b)
				pk := &pks[i]
				v, err := rules.hop(pk)
				if err != nil {
					return res, err
				}
				j, ok := slices.BinarySearch(g.Neighbors(pk.at), v)
				if !ok {
					return res, fmt.Errorf("routing: packet %d hops from %d to %d, which is not a neighbor", pk.id, pk.at, v)
				}
				e := off[pk.at] + j
				q.push(e, int32(i))
				active[e/64] |= 1 << (e % 64)
			}
			if rules.fixedHop {
				pending[w] = 0
			}
		}
		// Each active edge's winner crosses it; arrivals are chained
		// through sib and counted after every departure.
		stamp, arrived := step+1, int32(-1)
		for w := range active {
			for b := active[w]; b != 0; b &= b - 1 {
				e := w*64 + bits.TrailingZeros64(b)
				i := q.head[e]
				pk := &pks[i]
				v := nbr[e]
				if mode == SinglePort {
					if nodes[pk.at].sent == stamp || nodes[v].received == stamp {
						continue
					}
					nodes[pk.at].sent = stamp
					nodes[v].received = stamp
				}
				q.pop(e)
				if q.head[e] < 0 {
					active[w] &^= 1 << (e % 64)
				}
				nodes[pk.at].waiting--
				pk.at = v
				pk.hops++
				if v == pk.dst {
					res.Delivered++
					res.TotalHops += pk.hops
					undelivered--
					pending[i/64] &^= 1 << (i % 64)
					continue
				}
				q.entry[i].key = rank(rules.dist(pk), int(i))
				pending[i/64] |= 1 << (i % 64)
				q.entry[i].sib, arrived = arrived, i
			}
		}
		for i := arrived; i >= 0; i = q.entry[i].sib {
			nd := &nodes[pks[i].at]
			nd.waiting++
			res.MaxQueue = max(res.MaxQueue, nd.waiting)
		}
		if step == 0 {
			for _, nd := range nodes {
				res.MaxQueue = max(res.MaxQueue, nd.waiting)
			}
		}
		if !rules.fixedHop {
			for w := range active {
				for b := active[w]; b != 0; b &= b - 1 {
					q.head[w*64+bits.TrailingZeros64(b)] = -1
				}
				active[w] = 0
			}
		}
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

// ScheduleSize estimates the bytes a memoized Result occupies, for cache
// budgets.
func ScheduleSize(res Result) int64 {
	return int64(8*5 + 16 + 8*len(res.StepsPerPhase))
}

// NewScheduleCache builds a schedule cache keyed by ProblemKey: the §2
// observation that a bounded-degree guest's per-step relations "depend on
// G only, and, therefore, are known in advance", so a schedule computed
// once serves every later request for the same (host, relation). It is
// named routing.cache, so its obs counters keep the established metric
// names.
func NewScheduleCache(budget int64, reg *obs.Registry) *cache.Cache[string, Result] {
	return cache.New[string, Result]("routing.cache", budget, ScheduleSize, reg)
}

// ProblemKey folds the graph identity and the sorted pair multiset into a
// schedule key. Each pair is packed as Src<<32|Dst, so one integer sort
// puts in-range pairs in (Src, Dst) order; the key only has to be
// canonical, and its bytes never leave the cache.
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
