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
	"slices"
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

// Graph is an immutable, undirected, simple graph on vertices 0..N-1,
// stored as CSR rows: v's neighbors, sorted ascending, are
// nbr[off[v]:off[v+1]], so an edge query costs O(log d).
type Graph struct {
	off []int // N+1 row starts
	nbr []int // every row, one after another
}

// Builder accumulates edges for a Graph. The zero value is not usable; call
// NewBuilder.
type Builder struct {
	n     int
	edges []Edge
}

// NewBuilder returns a Builder for a graph with n vertices (n ≥ 0).
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Builder{n: n}
}

// N returns the number of vertices the builder was created with.
func (b *Builder) N() int { return b.n }

// AddEdge inserts the undirected edge {u, v}. Inserting an edge twice adds
// nothing to the built graph, so constructions that overlay edge sets (for
// example the G₀ graph of Definition 3.9, a multitorus union an expander)
// can add freely. It returns an error for out-of-range endpoints or
// self-loops.
func (b *Builder) AddEdge(u, v int) error {
	if err := checkEdge(b.n, u, v); err != nil {
		return err
	}
	b.edges = append(b.edges, NewEdge(u, v))
	return nil
}

func checkEdge(n, u, v int) error {
	if u < 0 || u >= n || v < 0 || v >= n {
		return fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at vertex %d", u)
	}
	return nil
}

// MustAddEdge is AddEdge that panics on error; for use in topology
// constructors whose index arithmetic guarantees validity.
func (b *Builder) MustAddEdge(u, v int) {
	if err := b.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// Build finalizes the graph. The builder may be reused afterwards; the graph
// does not alias builder memory.
func (b *Builder) Build() *Graph { return build(b.n, b.edges) }

// FromEdges builds a graph on n vertices from an edge list. Duplicate edges
// are merged. It returns an error on invalid endpoints or self-loops.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	for _, e := range edges {
		if err := checkEdge(n, e.U, e.V); err != nil {
			return nil, err
		}
	}
	return build(n, edges), nil
}

// FromRows builds a graph from rows already filled: v's neighbors, in any
// order, are nbr[off[v]:off[v+1]], and every edge is listed in both of its
// endpoints' rows. Repeats within a row are merged. The graph takes both
// slices and sorts and compacts them in place, so the caller must not use
// them afterwards. It returns an error when off does not rise from 0 to
// len(nbr) or when an entry is out of range or a self-loop; it does not
// check that the rows are symmetric (Validate does).
func FromRows(off, nbr []int) (*Graph, error) {
	if len(off) == 0 || off[0] != 0 || off[len(off)-1] != len(nbr) {
		return nil, fmt.Errorf("graph: row offsets do not run from 0 to %d", len(nbr))
	}
	n := len(off) - 1
	for v := 0; v < n; v++ {
		if off[v+1] < off[v] || off[v+1] > len(nbr) {
			return nil, fmt.Errorf("graph: row %d runs from %d to %d", v, off[v], off[v+1])
		}
		for _, w := range nbr[off[v]:off[v+1]] {
			if err := checkEdge(n, v, w); err != nil {
				return nil, err
			}
		}
	}
	return finishRows(off, nbr), nil
}

// build packs edges, all in range and loop-free, into rows: it counts each
// vertex's entries and places every edge in both endpoints' rows, then
// finishes them.
func build(n int, edges []Edge) *Graph {
	off := make([]int, n+1)
	for _, e := range edges {
		off[e.U]++
		off[e.V]++
	}
	// off[v] becomes the end of v's row, and filling the row from its end
	// leaves off[v] at its start.
	for v := 1; v <= n; v++ {
		off[v] += off[v-1]
	}
	nbr := make([]int, off[n])
	for _, e := range edges {
		off[e.U]--
		nbr[off[e.U]] = e.V
		off[e.V]--
		nbr[off[e.V]] = e.U
	}
	return finishRows(off, nbr)
}

// finishRows sorts each row of off and nbr, all entries in range and
// loop-free, and drops repeated entries, moving the rows down over the
// gaps they leave; the graph keeps both slices.
func finishRows(off, nbr []int) *Graph {
	n := len(off) - 1
	w := 0
	for v := 0; v < n; v++ {
		row := nbr[off[v]:off[v+1]]
		slices.Sort(row)
		off[v] = w
		for _, x := range row {
			if w == off[v] || nbr[w-1] != x {
				nbr[w] = x
				w++
			}
		}
	}
	off[n] = w
	return &Graph{off: off, nbr: nbr[:w]}
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.off) - 1 }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.nbr) / 2 }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int { return g.off[v+1] - g.off[v] }

// Neighbors returns the sorted adjacency list of v. The returned slice is
// shared with the graph and must not be modified; its capacity ends with
// the list, so an append copies it rather than writing into the next one.
func (g *Graph) Neighbors(v int) []int { return g.nbr[g.off[v]:g.off[v+1]:g.off[v+1]] }

// Adjacency returns the rows behind Neighbors: v's list is
// nbr[off[v]:off[v+1]], and off has N+1 entries. Position off[u]+i stands
// for the directed edge from u to its i-th neighbor, so positions run in
// (u, v) order. The slices are shared with the graph and must not be
// modified.
func (g *Graph) Adjacency() (off, nbr []int) { return g.off, g.nbr }

// HasEdge reports whether {u, v} is an edge, in O(log deg(u)).
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= g.N() || v >= g.N() || u == v {
		return false
	}
	a := g.Neighbors(u)
	i := sort.SearchInts(a, v)
	return i < len(a) && a[i] == v
}

// Edges returns all edges in canonical (U < V) order, sorted.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.M())
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
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
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// MinDegree returns the smallest vertex degree (0 for the empty graph).
func (g *Graph) MinDegree() int {
	if g.N() == 0 {
		return 0
	}
	min := g.Degree(0)
	for v := 1; v < g.N(); v++ {
		if d := g.Degree(v); d < min {
			min = d
		}
	}
	return min
}

// IsRegular reports whether every vertex has degree d.
func (g *Graph) IsRegular(d int) bool {
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != d {
			return false
		}
	}
	return true
}

// Validate checks internal invariants: sorted adjacency, symmetry, no loops,
// no duplicates. Graphs from Build and FromEdges always pass, and so do
// graphs from FromRows given symmetric rows; tests and the decoders' fuzz
// targets hold them to it.
func (g *Graph) Validate() error {
	for u := 0; u < g.N(); u++ {
		a := g.Neighbors(u)
		for i, v := range a {
			if v < 0 || v >= g.N() {
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
	}
	return nil
}

// Equal reports whether g and h are identical as labeled graphs.
func (g *Graph) Equal(h *Graph) bool {
	return slices.Equal(g.off, h.off) && slices.Equal(g.nbr, h.nbr)
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
			for cursor[v] < g.Degree(v) {
				w := g.Neighbors(v)[cursor[v]]
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
		if cursor[v] < g.Degree(v) {
			trace(v)
		}
	}
	if len(arcs) != g.M() {
		panic(fmt.Sprintf("graph: Eulerian orientation produced %d arcs for %d edges", len(arcs), g.M()))
	}
	return arcs, nil
}
