// Package graph provides the immutable undirected simple-graph type used
// throughout the universal-network laboratory, together with the structural
// algorithms the paper's constructions rely on: breadth-first search,
// connectivity, diameter, girth, Eulerian orientation (Lemma 3.3), and
// graph set operations (union, residual, induced subgraph).
//
// Vertices are the integers 0..N-1. Graphs are simple (no self-loops, no
// parallel edges) and undirected unless stated otherwise. All graphs are
// immutable once built; construction goes through a Builder.
package graph

import (
	"errors"
	"fmt"
	"sort"
)

// Edge is an undirected edge with U < V.
type Edge struct {
	U, V int
}

// NewEdge returns the canonical form of the edge {u, v} (smaller endpoint
// first). It panics if u == v, because the graphs in this package are simple.
func NewEdge(u, v int) Edge {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at vertex %d", u))
	}
	if u > v {
		u, v = v, u
	}
	return Edge{U: u, V: v}
}

// Graph is an immutable, undirected, simple graph on vertices 0..N-1.
// Adjacency lists are sorted ascending, enabling O(log d) edge queries.
type Graph struct {
	adj   [][]int
	edges int
}

// Builder accumulates edges for a Graph. The zero value is not usable; call
// NewBuilder.
//
// Duplicate edges are found on the adjacency lists the builder keeps anyway:
// a query scans the shorter endpoint's list. Only when both lists are longer
// than denseDegree does it look in dense, the set of exactly the edges
// between two such lists, so every query costs at most denseDegree steps or
// one set probe, and a sparse construction never allocates the set.
type Builder struct {
	n     int
	adj   [][]int
	dense map[Edge]struct{}

	// block holds unused first-capacity slots of smallCap ints each, and
	// listed counts the vertices that have taken one.
	block  []int
	listed int
}

const (
	// denseDegree is the longest adjacency list a duplicate check scans.
	denseDegree = 32
	// smallCap is the capacity each list first gets from the shared block.
	smallCap = 4
)

// NewBuilder returns a Builder for a graph with n vertices (n ≥ 0).
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Builder{n: n, adj: make([][]int, n)}
}

// N returns the number of vertices the builder was created with.
func (b *Builder) N() int { return b.n }

// AddEdge inserts the undirected edge {u, v}. Inserting an edge twice is a
// no-op, so constructions that overlay edge sets (for example the G₀ graph of
// Definition 3.9, a multitorus union an expander) can add freely. It returns
// an error for out-of-range endpoints or self-loops.
func (b *Builder) AddEdge(u, v int) error {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, b.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at vertex %d", u)
	}
	if b.has(u, v) {
		return nil
	}
	b.push(u, v)
	b.push(v, u)
	du, dv := len(b.adj[u]), len(b.adj[v])
	// A list that just grew past denseDegree brings its edges to other
	// long lists into the set; the new edge joins if both lists are long.
	if du == denseDegree+1 {
		b.indexDense(u)
	}
	if dv == denseDegree+1 {
		b.indexDense(v)
	}
	if du > denseDegree && dv > denseDegree {
		b.markDense(u, v)
	}
	return nil
}

// has reports whether {u, v} was added; u ≠ v, both in range.
func (b *Builder) has(u, v int) bool {
	a, w := b.adj[u], v
	if len(b.adj[v]) < len(a) {
		a, w = b.adj[v], u
	}
	if len(a) > denseDegree {
		_, ok := b.dense[NewEdge(u, v)]
		return ok
	}
	for _, x := range a {
		if x == w {
			return true
		}
	}
	return false
}

// push appends w to v's list, giving the list its first capacity from the
// shared block.
func (b *Builder) push(v, w int) {
	if b.adj[v] == nil {
		if len(b.block) == 0 {
			// A block serves as many vertices as have lists already (an
			// eighth at first), capped at those without: an eighth, an
			// eighth, a quarter and a half, at most four per build.
			k := min(max(b.listed, (b.n+7)/8), b.n-b.listed)
			b.block = make([]int, k*smallCap)
		}
		b.adj[v] = b.block[:0:smallCap]
		b.block = b.block[smallCap:]
		b.listed++
	}
	b.adj[v] = append(b.adj[v], w)
}

// indexDense adds v's edges to other lists longer than denseDegree to the
// set.
func (b *Builder) indexDense(v int) {
	for _, w := range b.adj[v] {
		if len(b.adj[w]) > denseDegree {
			b.markDense(v, w)
		}
	}
}

func (b *Builder) markDense(u, v int) {
	if b.dense == nil {
		b.dense = make(map[Edge]struct{})
	}
	b.dense[NewEdge(u, v)] = struct{}{}
}

// MustAddEdge is AddEdge that panics on error; for use in topology
// constructors whose index arithmetic guarantees validity.
func (b *Builder) MustAddEdge(u, v int) {
	if err := b.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// HasEdge reports whether {u, v} has already been added.
func (b *Builder) HasEdge(u, v int) bool {
	if u == v || u < 0 || v < 0 || u >= b.n || v >= b.n {
		return false
	}
	return b.has(u, v)
}

// Degree returns the current degree of v in the builder.
func (b *Builder) Degree(v int) int { return len(b.adj[v]) }

// Build finalizes the graph. The builder may be reused afterwards; the graph
// does not alias builder memory. All lists share one backing array, each
// sliced with capacity equal to its length, so an append to a Neighbors
// result cannot write into the next vertex's list.
func (b *Builder) Build() *Graph {
	total := 0
	for _, a := range b.adj {
		total += len(a)
	}
	flat := make([]int, total)
	adj := make([][]int, b.n)
	off := 0
	for v, a := range b.adj {
		if len(a) == 0 {
			continue
		}
		end := off + copy(flat[off:], a)
		adj[v] = flat[off:end:end]
		sort.Ints(adj[v])
		off = end
	}
	return &Graph{adj: adj, edges: total / 2}
}

// FromEdges builds a graph on n vertices from an edge list. Duplicate edges
// are merged. It returns an error on invalid endpoints or self-loops.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	b := NewBuilder(n)
	for _, e := range edges {
		if err := b.AddEdge(e.U, e.V); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of edges.
func (g *Graph) M() int { return g.edges }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// Neighbors returns the sorted adjacency list of v. The returned slice is
// shared with the graph and must not be modified.
func (g *Graph) Neighbors(v int) []int { return g.adj[v] }

// HasEdge reports whether {u, v} is an edge, in O(log deg(u)).
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= len(g.adj) || v >= len(g.adj) || u == v {
		return false
	}
	a := g.adj[u]
	i := sort.SearchInts(a, v)
	return i < len(a) && a[i] == v
}

// Edges returns all edges in canonical (U < V) order, sorted.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.edges)
	for u, nbrs := range g.adj {
		for _, v := range nbrs {
			if u < v {
				out = append(out, Edge{U: u, V: v})
			}
		}
	}
	return out
}

// MaxDegree returns the largest vertex degree (0 for the empty graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for _, a := range g.adj {
		if len(a) > max {
			max = len(a)
		}
	}
	return max
}

// MinDegree returns the smallest vertex degree (0 for the empty graph).
func (g *Graph) MinDegree() int {
	if len(g.adj) == 0 {
		return 0
	}
	min := len(g.adj[0])
	for _, a := range g.adj[1:] {
		if len(a) < min {
			min = len(a)
		}
	}
	return min
}

// IsRegular reports whether every vertex has degree d.
func (g *Graph) IsRegular(d int) bool {
	for _, a := range g.adj {
		if len(a) != d {
			return false
		}
	}
	return true
}

// Validate checks internal invariants: sorted adjacency, symmetry, no loops,
// no duplicates, consistent edge count. Graphs produced by Builder always
// pass; Validate guards hand-constructed test fixtures and deserialized data.
func (g *Graph) Validate() error {
	total := 0
	for u, a := range g.adj {
		for i, v := range a {
			if v < 0 || v >= len(g.adj) {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", u, v)
			}
			if v == u {
				return fmt.Errorf("graph: self-loop at vertex %d", u)
			}
			if i > 0 && a[i-1] >= v {
				return fmt.Errorf("graph: adjacency of %d not strictly sorted", u)
			}
			if !g.HasEdge(v, u) {
				return fmt.Errorf("graph: asymmetric edge {%d,%d}", u, v)
			}
		}
		total += len(a)
	}
	if total != 2*g.edges {
		return fmt.Errorf("graph: edge count %d inconsistent with adjacency sum %d", g.edges, total)
	}
	return nil
}

// Equal reports whether g and h are identical as labeled graphs.
func (g *Graph) Equal(h *Graph) bool {
	if g.N() != h.N() || g.M() != h.M() {
		return false
	}
	for v := range g.adj {
		a, b := g.adj[v], h.adj[v]
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
	}
	return true
}

// String returns a short human-readable description.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph(n=%d, m=%d, Δ=%d)", g.N(), g.M(), g.MaxDegree())
}

// ErrNotEulerian is returned by EulerianOrientation when some vertex has odd
// degree.
var ErrNotEulerian = errors.New("graph: vertex of odd degree; no Eulerian orientation exists")

// Arc is a directed edge.
type Arc struct {
	From, To int
}

// EulerianOrientation orients every edge of g such that each vertex has
// in-degree equal to out-degree (= degree/2). This is the orientation used in
// the proof of Lemma 3.3 to describe a c-regular graph by the c/2 edges
// leaving each vertex. All vertex degrees must be even; connectivity is not
// required (each component is handled independently).
func (g *Graph) EulerianOrientation() ([]Arc, error) {
	n := g.N()
	for v := 0; v < n; v++ {
		if g.Degree(v)%2 != 0 {
			return nil, ErrNotEulerian
		}
	}
	// Hierholzer's algorithm per component, using an iterator cursor per
	// vertex and a "used" set over canonical edges with multiplicity-free
	// simple graphs.
	used := make(map[Edge]bool, g.M())
	cursor := make([]int, n)
	arcs := make([]Arc, 0, g.M())

	var trace func(start int)
	trace = func(start int) {
		// Iterative Hierholzer: walk until stuck (back at a vertex with no
		// unused incident edge), splicing sub-tours.
		stack := []int{start}
		var tour []int
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			advanced := false
			for cursor[v] < len(g.adj[v]) {
				w := g.adj[v][cursor[v]]
				cursor[v]++
				e := NewEdge(v, w)
				if used[e] {
					continue
				}
				used[e] = true
				stack = append(stack, w)
				advanced = true
				break
			}
			if !advanced {
				tour = append(tour, v)
				stack = stack[:len(stack)-1]
			}
		}
		// tour is the Euler tour reversed; orient along the walk order.
		for i := len(tour) - 1; i > 0; i-- {
			arcs = append(arcs, Arc{From: tour[i], To: tour[i-1]})
		}
	}

	for v := 0; v < n; v++ {
		if cursor[v] < len(g.adj[v]) {
			trace(v)
		}
	}
	if len(arcs) != g.M() {
		panic(fmt.Sprintf("graph: Eulerian orientation produced %d arcs for %d edges", len(arcs), g.M()))
	}
	return arcs, nil
}
