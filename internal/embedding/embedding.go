// Package embedding implements the static-embedding concept the paper
// contrasts with dynamic simulations (§1): guest processors are mapped to
// host processors once and for all, guest edges are routed along fixed host
// paths, and the quality of the embedding is measured by load (guests per
// host), dilation (longest path) and congestion (most-used host edge). The
// slowdown of an embedding-based simulation is Ω(load + dilation) and
// O(load·dilation·congestion) with trivial scheduling — the quantities the
// [4,3] lower bounds and the [13] exponential-size result speak about.
package embedding

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"universalnet/internal/graph"
)

// Embedding is a static embedding of a guest network into a host network.
type Embedding struct {
	Guest *graph.Graph
	Host  *graph.Graph
	// F[i] is the host processor of guest i.
	F []int
	// Paths[e] is the host path (vertex list, endpoints inclusive) routing
	// guest edge e; Paths[e][0] = F[e.U], last = F[e.V].
	Paths map[graph.Edge][]int
}

// New builds an embedding from a placement, routing every guest edge along
// a shortest host path (breadth-first, deterministic tie-breaking). One BFS
// tree per distinct source host serves every guest edge leaving that host;
// the edges are bucketed by source host so that only one tree is alive at a
// time, and a disconnected host is reported at the first such edge in
// Edges order.
func New(guest, host *graph.Graph, f []int) (*Embedding, error) {
	if len(f) != guest.N() {
		return nil, fmt.Errorf("embedding: placement has %d entries for %d guests", len(f), guest.N())
	}
	for i, q := range f {
		if q < 0 || q >= host.N() {
			return nil, fmt.Errorf("embedding: guest %d placed on invalid host %d", i, q)
		}
	}
	e := &Embedding{
		Guest: guest,
		Host:  host,
		F:     append([]int(nil), f...),
		Paths: make(map[graph.Edge][]int, guest.M()),
	}
	edges := guest.Edges()
	m := host.N()
	// start[q] is where host q's bucket begins in byHost, which lists edge
	// indices bucketed by source host, in Edges order within a bucket.
	start := make([]int, m+1)
	for _, ge := range edges {
		start[f[ge.U]+1]++
	}
	for q := 0; q < m; q++ {
		start[q+1] += start[q]
	}
	byHost := make([]int, len(edges))
	fill := slices.Clone(start[:m])
	for i, ge := range edges {
		byHost[fill[f[ge.U]]] = i
		fill[f[ge.U]]++
	}
	bad := len(edges) // the first edge, in Edges order, between disconnected hosts
	for q := 0; q < m; q++ {
		bucket := byHost[start[q]:start[q+1]]
		if len(bucket) == 0 {
			continue
		}
		tree := host.ShortestPathTree(q)
		for _, i := range bucket {
			if path := treePath(tree, f[edges[i].V]); path != nil {
				e.Paths[edges[i]] = path
			} else {
				bad = min(bad, i)
			}
		}
	}
	if bad < len(edges) {
		ge := edges[bad]
		return nil, fmt.Errorf("embedding: hosts %d and %d disconnected", f[ge.U], f[ge.V])
	}
	return e, nil
}

// treePath walks a ShortestPathTree parent array from dst back to its root
// and returns the path root first, or nil when dst is unreachable.
func treePath(parent []int, dst int) []int {
	if parent[dst] < 0 {
		return nil
	}
	hops := 0
	for x := dst; parent[x] != x; x = parent[x] {
		hops++
	}
	path := make([]int, hops+1)
	for i, x := hops, dst; i >= 0; i, x = i-1, parent[x] {
		path[i] = x
	}
	return path
}

// Load returns the maximum number of guests on one host processor.
func (e *Embedding) Load() int {
	count := make(map[int]int)
	max := 0
	for _, q := range e.F {
		count[q]++
		if count[q] > max {
			max = count[q]
		}
	}
	return max
}

// Dilation returns the length (hops) of the longest routing path; 0 when
// every guest edge maps within a single host node.
func (e *Embedding) Dilation() int {
	max := 0
	for _, p := range e.Paths {
		if l := len(p) - 1; l > max {
			max = l
		}
	}
	return max
}

// Congestion returns the maximum number of routing paths crossing a single
// host edge.
func (e *Embedding) Congestion() int {
	count := make(map[graph.Edge]int)
	max := 0
	for _, p := range e.Paths {
		for i := 0; i+1 < len(p); i++ {
			if p[i] == p[i+1] {
				continue
			}
			he := graph.NewEdge(p[i], p[i+1])
			count[he]++
			if count[he] > max {
				max = count[he]
			}
		}
	}
	return max
}

// SlowdownLowerBound returns the trivial lower bound on the slowdown of a
// step-by-step simulation through this embedding: max(load, dilation,
// congestion/degree-ish) — we report max(load, dilation) which is safe in
// every model.
func (e *Embedding) SlowdownLowerBound() int {
	l, d := e.Load(), e.Dilation()
	if d > l {
		return d
	}
	return l
}

// Validate checks structural invariants: path endpoints match the
// placement, consecutive path vertices are host edges.
func (e *Embedding) Validate() error {
	for _, ge := range e.Guest.Edges() {
		p, ok := e.Paths[ge]
		if !ok {
			return fmt.Errorf("embedding: guest edge %v has no path", ge)
		}
		if len(p) == 0 || p[0] != e.F[ge.U] || p[len(p)-1] != e.F[ge.V] {
			return fmt.Errorf("embedding: path of %v has wrong endpoints", ge)
		}
		for i := 0; i+1 < len(p); i++ {
			if p[i] != p[i+1] && !e.Host.HasEdge(p[i], p[i+1]) {
				return fmt.Errorf("embedding: path of %v uses non-edge {%d,%d}", ge, p[i], p[i+1])
			}
		}
	}
	return nil
}

// Identity returns the identity embedding of a guest into a host on the
// same vertex set (host must contain... nothing: paths are routed, so any
// connected host works; dilation reflects how well the host contains the
// guest).
func Identity(guest, host *graph.Graph) (*Embedding, error) {
	if guest.N() != host.N() {
		return nil, fmt.Errorf("embedding: identity needs equal sizes (%d vs %d)", guest.N(), host.N())
	}
	f := make([]int, guest.N())
	for i := range f {
		f[i] = i
	}
	return New(guest, host, f)
}

// Random returns an embedding with a uniformly random balanced placement:
// the guests are dealt to hosts ⌈n/m⌉ at a time in shuffled order.
func Random(guest, host *graph.Graph, rng *rand.Rand) (*Embedding, error) {
	n, m := guest.N(), host.N()
	f := make([]int, n)
	perm := rng.Perm(n)
	for idx, g := range perm {
		f[g] = idx % m
	}
	return New(guest, host, f)
}

// Greedy returns a locality-seeking embedding: guests are visited in BFS
// order from guest vertex 0 and each is placed on the least-loaded host
// within distance 1 of the hosts of its already-placed neighbors (falling
// back to the global least-loaded host). A cheap heuristic that captures
// what static placement can and cannot do.
func Greedy(guest, host *graph.Graph, rng *rand.Rand) (*Embedding, error) {
	n, m := guest.N(), host.N()
	capacity := (n + m - 1) / m
	load := make([]int, m)
	f := make([]int, n)
	for i := range f {
		f[i] = -1
	}
	order := guestBFSOrder(guest)
	for _, g := range order {
		// Candidate hosts: hosts of placed neighbors and their neighbors.
		cand := make(map[int]bool)
		for _, ng := range guest.Neighbors(g) {
			if f[ng] >= 0 {
				cand[f[ng]] = true
				for _, hq := range host.Neighbors(f[ng]) {
					cand[hq] = true
				}
			}
		}
		best := -1
		keys := make([]int, 0, len(cand))
		for q := range cand {
			keys = append(keys, q)
		}
		sort.Ints(keys)
		for _, q := range keys {
			if load[q] < capacity && (best < 0 || load[q] < load[best]) {
				best = q
			}
		}
		if best < 0 {
			// Global least-loaded host.
			for q := 0; q < m; q++ {
				if best < 0 || load[q] < load[best] {
					best = q
				}
			}
		}
		f[g] = best
		load[best]++
	}
	_ = rng
	return New(guest, host, f)
}

// guestBFSOrder returns the vertices in BFS order from vertex 0, appending
// unreached components afterwards.
func guestBFSOrder(g *graph.Graph) []int {
	n := g.N()
	seen := make([]bool, n)
	var order []int
	var bfs func(src int)
	bfs = func(src int) {
		queue := []int{src}
		seen[src] = true
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			order = append(order, v)
			for _, w := range g.Neighbors(v) {
				if !seen[w] {
					seen[w] = true
					queue = append(queue, w)
				}
			}
		}
	}
	for v := 0; v < n; v++ {
		if !seen[v] {
			bfs(v)
		}
	}
	return order
}
