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
	"encoding/binary"
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
// computed on first use; every row's search runs in one shared queue.
type distanceCache struct {
	g     *graph.Graph
	rows  [][]int
	queue []int
}

func newDistanceCache(g *graph.Graph) *distanceCache {
	return &distanceCache{g: g, rows: make([][]int, g.N()), queue: make([]int, 0, g.N())}
}

func (c *distanceCache) to(dst int) []int {
	if d := c.rows[dst]; d != nil {
		return d
	}
	d := c.g.BFSWithQueue(dst, c.queue)
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

// segment is one position's run in edgeQueues: n keys from off, in a block
// with room for cap; a position with n == 0 holds no block.
type segment struct{ off, n, cap int32 }

// freeBlock tags the header of a free block in edgeQueues.keys; the rest of
// that header is the block's size class << 32 | the next free block plus
// one. A live block's header is its position.
const freeBlock = 1 << 63

// edgeQueues keeps the keys of the packets waiting on each directed-edge
// position sorted in descending order, so a position's winner is its last
// key, whose low 32 bits are the packet index, and a push shifts only the
// keys that outrank it. The runs share one arena, keys, sized once for the
// route: each block is a header slot and room for keys, and the blocks tile
// keys[:top]. A push into a full block moves the run to a block of the next
// power of two, and an emptied queue releases its block. A released block
// is cut into power-of-two pieces, each heading its size's free list
// (free[c] is the offset plus one, 0 when the list is empty), so a block is
// reused without allocating. When a size has no free block and the tail
// past top is too short, compact slides the live blocks down over the free
// ones; the arena grows only when that leaves less than an eighth of it
// free.
type edgeQueues struct {
	seg  []segment
	keys []uint64
	top  int32
	free [32]int32
}

// alloc returns the offset of an unused block of 2^c slots.
func (q *edgeQueues) alloc(c int) int32 {
	if h := q.free[c]; h != 0 {
		q.free[c] = int32(uint32(q.keys[h-1]))
		return h - 1
	}
	if need := int(q.top) + 1<<c; need > len(q.keys) {
		q.compact()
		if need = int(q.top) + 1<<c; need > len(q.keys)-len(q.keys)/8 {
			keys := make([]uint64, max(2*len(q.keys), need))
			copy(keys, q.keys[:q.top])
			q.keys = keys
		}
	}
	off := q.top
	q.top += 1 << c
	return off
}

// release frees the n-slot block at off, cut into power-of-two pieces.
func (q *edgeQueues) release(off, n int32) {
	for n > 0 {
		c := bits.Len32(uint32(n)) - 1
		q.keys[off] = freeBlock | uint64(c)<<32 | uint64(q.free[c])
		q.free[c] = off + 1
		off += 1 << c
		n -= 1 << c
	}
}

// compact slides the live blocks to the front of the arena in address
// order, each cut to room for twice its keys, and empties the free lists.
// A block never grows, so none overwrites a header not yet read.
func (q *edgeQueues) compact() {
	dst := int32(0)
	for at := int32(0); at < q.top; {
		h := q.keys[at]
		if h&freeBlock != 0 {
			at += 1 << (h >> 32 & 63)
			continue
		}
		s := &q.seg[h]
		size := 1 + s.cap
		copy(q.keys[dst:dst+1+s.n], q.keys[at:at+1+s.n])
		s.off, s.cap = dst+1, min(s.cap, 2*s.n)
		at += size
		dst += 1 + s.cap
	}
	q.top, q.free = dst, [32]int32{}
}

// push adds key to position e's queue.
func (q *edgeQueues) push(e int, key uint64) {
	s := &q.seg[e]
	if s.n == s.cap {
		c := bits.Len32(uint32(s.cap + 1))
		off := q.alloc(c)
		q.keys[off] = uint64(e)
		copy(q.keys[off+1:off+1+s.n], q.keys[s.off:s.off+s.n])
		if s.cap > 0 {
			q.release(s.off-1, 1+s.cap)
		}
		s.off, s.cap = off+1, 1<<c-1
	}
	run := q.keys[s.off : s.off+s.n+1]
	j := len(run) - 1
	for ; j > 0 && run[j-1] < key; j-- {
		run[j] = run[j-1]
	}
	run[j] = key
	s.n++
}

// winner returns the packet index of position e's last key.
func (q *edgeQueues) winner(e int) int {
	s := q.seg[e]
	return int(uint32(q.keys[s.off+s.n-1]))
}

// pop removes position e's winner and reports whether its queue is empty.
func (q *edgeQueues) pop(e int) bool {
	s := &q.seg[e]
	s.n--
	if s.n > 0 {
		return false
	}
	q.release(s.off-1, 1+s.cap)
	s.cap = 0
	return true
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
// packet's distance is taken each time it joins a queue, so rules.dist must
// depend on (at, dst) alone; its key keeps it while it waits. Each
// directed-edge position in g's rows (Adjacency: u's offset plus v's index
// in Neighbors(u)) queues its waiting packets in edgeQueues, and a bitset
// over positions marks the non-empty queues, so a step walks the active
// edges in (u, v) order and pops one winner from each; a blocked
// single-port winner stays queued. The packets that must ask rules.hop are
// marked in a bitset over packet indices, which the next step walks in
// packet order: under fixedHop the packets that moved, otherwise every
// undelivered packet, with the queues emptied after each step. A packet is
// delivered at its move. Per-node counts follow the moves, and a bitset
// over nodes marks the step's receivers, so MaxQueue scans all nodes only
// after the first step and then the receivers, once every sender has left.
// Every pair must lie in [0, g.N()), and there are fewer than 2²⁸ packets,
// so the arena's int32 offsets cannot overflow.
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
	// Room for each key twice over and a header per queue.
	q := edgeQueues{seg: make([]segment, len(nbr)), keys: make([]uint64, 2*len(pks)+min(len(nbr), len(pks)))}
	words, nodeWords := (len(nbr)+63)/64, (g.N()+63)/64
	bitsets := make([]uint64, words+nodeWords+(len(pks)+63)/64)
	active, receivers, pending := bitsets[:words], bitsets[words:words+nodeWords], bitsets[words+nodeWords:]
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
				q.push(e, rank(rules.dist(pk), i))
				active[e/64] |= 1 << (e % 64)
			}
			if rules.fixedHop {
				pending[w] = 0
			}
		}
		// Each active edge's winner crosses it.
		stamp := step + 1
		for w := range active {
			for b := active[w]; b != 0; b &= b - 1 {
				e := w*64 + bits.TrailingZeros64(b)
				i := q.winner(e)
				pk := &pks[i]
				v := nbr[e]
				if mode == SinglePort {
					if nodes[pk.at].sent == stamp || nodes[v].received == stamp {
						continue
					}
					nodes[pk.at].sent = stamp
					nodes[v].received = stamp
				}
				if q.pop(e) {
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
				pending[i/64] |= 1 << (i % 64)
				nodes[v].waiting++
				receivers[v/64] |= 1 << (v % 64)
			}
		}
		for w := range receivers {
			for b := receivers[w]; b != 0; b &= b - 1 {
				res.MaxQueue = max(res.MaxQueue, nodes[w*64+bits.TrailingZeros64(b)].waiting)
			}
			receivers[w] = 0
		}
		if step == 0 {
			for _, nd := range nodes {
				res.MaxQueue = max(res.MaxQueue, nd.waiting)
			}
		}
		if !rules.fixedHop {
			for w := range active {
				for b := active[w]; b != 0; b &= b - 1 {
					q.seg[w*64+bits.TrailingZeros64(b)] = segment{}
				}
				active[w] = 0
			}
			q.top, q.free = 0, [32]int32{}
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

// ScheduleSize bounds the bytes a memoized Result and its ProblemKey take,
// for cache budgets: the Result, and a key of two uvarint headers and two
// uvarints per pair, each at most 5 bytes for the node ids of any graph
// that fits in memory (below 2³⁵). Delivered counts one packet per pair.
func ScheduleSize(res Result) int64 {
	key := 2*binary.MaxVarintLen64 + 10*res.Delivered
	return int64(8*5 + 16 + 8*len(res.StepsPerPhase) + key)
}

// NewScheduleCache builds a schedule cache keyed by ProblemKey: the §2
// observation that a bounded-degree guest's per-step relations "depend on
// G only, and, therefore, are known in advance", so a schedule computed
// once serves every later request for the same (host, relation). It
// charges each entry's key as well as its Result, so the budget bounds
// both. It is named routing.cache, so its obs counters keep the
// established metric names.
func NewScheduleCache(budget int64, reg *obs.Registry) *cache.Cache[string, Result] {
	return cache.New[string, Result]("routing.cache", budget, ScheduleSize, reg)
}

// ProblemKey folds the graph identity and the pairs, in their order, into a
// schedule key of uvarints. The order is part of the key because the
// packet loops break ties by packet index, so two orders of one multiset
// may route differently; the key's bytes never leave the cache.
func ProblemKey(g *graph.Graph, p *Problem) string {
	b := make([]byte, 0, 2*binary.MaxVarintLen64+2*len(p.Pairs))
	b = binary.AppendUvarint(b, uint64(g.Hash()))
	b = binary.AppendUvarint(b, uint64(p.N))
	for _, pr := range p.Pairs {
		b = binary.AppendUvarint(b, uint64(pr.Src))
		b = binary.AppendUvarint(b, uint64(pr.Dst))
	}
	return string(b)
}
