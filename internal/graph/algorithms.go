package graph

import (
	"fmt"
	"math"
)

// BFS runs breadth-first search from src and returns the distance (in hops)
// from src to every vertex; unreachable vertices get -1.
func (g *Graph) BFS(src int) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	if src < 0 || src >= g.N() {
		return dist
	}
	dist[src] = 0
	queue := make([]int, 0, g.N())
	queue = append(queue, src)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, w := range g.adj[v] {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// ShortestPathTree returns src's breadth-first parent array: parent[src] is
// src, parent[v] is the vertex that first discovered v, scanning each
// vertex's sorted neighbors in queue order, and -1 marks an unreachable v.
// Walking parents from any reachable v back to src gives a shortest path,
// the one an early-exit search for v would find, since stopping at v
// changes no parent already assigned. src must lie in [0, N).
func (g *Graph) ShortestPathTree(src int) []int {
	parent := make([]int, g.N())
	for i := range parent {
		parent[i] = -1
	}
	parent[src] = src
	queue := make([]int, 0, g.N())
	queue = append(queue, src)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, w := range g.adj[v] {
			if parent[w] < 0 {
				parent[w] = v
				queue = append(queue, w)
			}
		}
	}
	return parent
}

// ConnectedComponents returns, for each vertex, the index of its component
// (components numbered 0.. in order of smallest contained vertex), and the
// number of components.
func (g *Graph) ConnectedComponents() (comp []int, count int) {
	comp = make([]int, g.N())
	for i := range comp {
		comp[i] = -1
	}
	queue := make([]int, 0, g.N())
	for v := 0; v < g.N(); v++ {
		if comp[v] >= 0 {
			continue
		}
		comp[v] = count
		queue = append(queue[:0], v)
		for head := 0; head < len(queue); head++ {
			x := queue[head]
			for _, w := range g.adj[x] {
				if comp[w] < 0 {
					comp[w] = count
					queue = append(queue, w)
				}
			}
		}
		count++
	}
	return comp, count
}

// IsConnected reports whether g has at most one connected component.
func (g *Graph) IsConnected() bool {
	if g.N() == 0 {
		return true
	}
	_, c := g.ConnectedComponents()
	return c <= 1
}

// Eccentricity returns the largest BFS distance from v to any reachable
// vertex, and whether all vertices are reachable from v.
func (g *Graph) Eccentricity(v int) (ecc int, connected bool) {
	dist := g.BFS(v)
	connected = true
	for _, d := range dist {
		if d < 0 {
			connected = false
			continue
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc, connected
}

// Diameter returns the exact diameter (max over vertices of eccentricity) by
// running BFS from every vertex: O(n·m). It returns -1 for a disconnected or
// empty graph. Intended for the moderate sizes used in tests and experiments.
func (g *Graph) Diameter() int {
	if g.N() == 0 {
		return -1
	}
	diam := 0
	for v := 0; v < g.N(); v++ {
		ecc, conn := g.Eccentricity(v)
		if !conn {
			return -1
		}
		if ecc > diam {
			diam = ecc
		}
	}
	return diam
}

// Girth returns the length of a shortest cycle, or -1 if g is acyclic
// (a forest). It runs a BFS from each vertex: O(n·m).
func (g *Graph) Girth() int {
	best := math.MaxInt
	n := g.N()
	dist := make([]int, n)
	parent := make([]int, n)
	for src := 0; src < n; src++ {
		for i := range dist {
			dist[i] = -1
			parent[i] = -1
		}
		dist[src] = 0
		queue := []int{src}
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, w := range g.adj[v] {
				if w == parent[v] {
					continue
				}
				if dist[w] < 0 {
					dist[w] = dist[v] + 1
					parent[w] = v
					queue = append(queue, w)
				} else if c := dist[v] + dist[w] + 1; c < best {
					// A non-tree edge closes a cycle through src of length
					// ≥ the true girth; minimizing over all sources is exact.
					best = c
				}
			}
		}
	}
	if best == math.MaxInt {
		return -1
	}
	return best
}

// TNeighborhoodSize returns |{w : dist(v,w) ≤ t}|, the size of the
// t-neighborhood of v — the quantity behind the paper's "polynomial spreading
// function" remark and the log m minimum-diameter argument.
func (g *Graph) TNeighborhoodSize(v, t int) int {
	dist := g.BFS(v)
	count := 0
	for _, d := range dist {
		if d >= 0 && d <= t {
			count++
		}
	}
	return count
}

// InducedSubgraph returns the subgraph induced by the given vertices,
// relabeled 0..len(vertices)-1 in the given order, together with the mapping
// newIndex → oldIndex. Duplicate vertices are an error.
func (g *Graph) InducedSubgraph(vertices []int) (*Graph, []int, error) {
	idx := make(map[int]int, len(vertices))
	for i, v := range vertices {
		if v < 0 || v >= g.N() {
			return nil, nil, fmt.Errorf("graph: vertex %d out of range", v)
		}
		if _, dup := idx[v]; dup {
			return nil, nil, fmt.Errorf("graph: duplicate vertex %d in induced set", v)
		}
		idx[v] = i
	}
	b := NewBuilder(len(vertices))
	for i, v := range vertices {
		for _, w := range g.adj[v] {
			if j, ok := idx[w]; ok && i < j {
				b.MustAddEdge(i, j)
			}
		}
	}
	mapping := append([]int(nil), vertices...)
	return b.Build(), mapping, nil
}

// Union returns the graph on max(g.N(), h.N()) vertices whose edge set is the
// union of the two edge sets. Used to overlay the multitorus and expander
// edge sets of Definition 3.9.
func Union(g, h *Graph) *Graph {
	n := g.N()
	if h.N() > n {
		n = h.N()
	}
	b := NewBuilder(n)
	for _, e := range g.Edges() {
		b.MustAddEdge(e.U, e.V)
	}
	for _, e := range h.Edges() {
		b.MustAddEdge(e.U, e.V)
	}
	return b.Build()
}

// IsSubgraphOf reports whether every edge of g is an edge of h and
// g.N() ≤ h.N().
func (g *Graph) IsSubgraphOf(h *Graph) bool {
	if g.N() > h.N() {
		return false
	}
	for _, e := range g.Edges() {
		if !h.HasEdge(e.U, e.V) {
			return false
		}
	}
	return true
}

// FNV-1a over the adjacency structure; identical labeled graphs hash equal.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Hash returns a structural hash of the labeled graph, suitable for
// deduplicating graphs in counting experiments.
func (g *Graph) Hash() uint64 {
	h := uint64(fnvOffset)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= fnvPrime
			x >>= 8
		}
	}
	mix(uint64(g.N()))
	for v, a := range g.adj {
		mix(uint64(v))
		for _, w := range a {
			mix(uint64(w) + 1)
		}
	}
	return h
}
