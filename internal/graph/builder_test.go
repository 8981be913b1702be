package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// mapBuilder is the reference rule for Builder: a set of canonical edges
// decides duplicates, and each new edge is appended to both endpoints'
// lists in insertion order.
type mapBuilder struct {
	n    int
	adj  [][]int
	seen map[Edge]struct{}
}

func (o *mapBuilder) addEdge(u, v int) error {
	if u < 0 || u >= o.n || v < 0 || v >= o.n {
		return fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, o.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at vertex %d", u)
	}
	e := NewEdge(u, v)
	if _, dup := o.seen[e]; dup {
		return nil
	}
	o.seen[e] = struct{}{}
	o.adj[u] = append(o.adj[u], v)
	o.adj[v] = append(o.adj[v], u)
	return nil
}

// sortedAdj is the adjacency Build must produce from the reference lists.
func (o *mapBuilder) sortedAdj() [][]int {
	out := make([][]int, o.n)
	for v, a := range o.adj {
		out[v] = append([]int(nil), a...)
		sort.Ints(out[v])
	}
	return out
}

func sameAdj(g *Graph, want [][]int) error {
	if g.N() != len(want) {
		return fmt.Errorf("n = %d, want %d", g.N(), len(want))
	}
	total := 0
	for v, a := range want {
		got := g.Neighbors(v)
		if len(got) != len(a) || cap(got) != len(got) {
			return fmt.Errorf("vertex %d: list %v (cap %d), want %v", v, got, cap(got), a)
		}
		for i := range a {
			if got[i] != a[i] {
				return fmt.Errorf("vertex %d: list %v, want %v", v, got, a)
			}
		}
		total += len(a)
	}
	if g.M() != total/2 {
		return fmt.Errorf("m = %d, want %d", g.M(), total/2)
	}
	return g.Validate()
}

// TestBuilderMatchesMapRule drives Builder and the map-based reference with
// the same random AddEdge sequences. Most endpoints come from a few hubs, so
// rows grow long and edges repeat; the rest are spread over all vertices,
// off by one past either end, or self-loops. A graph built mid-sequence must
// not change as the builder goes on.
func TestBuilderMatchesMapRule(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(199)
		hubs := 1 + rng.Intn(min(n, 48))
		b := NewBuilder(n)
		o := &mapBuilder{n: n, adj: make([][]int, n), seen: make(map[Edge]struct{})}
		endpoint := func() int {
			switch r := rng.Intn(20); {
			case r == 0:
				return -1
			case r == 1:
				return n
			case r < 14:
				return rng.Intn(hubs)
			default:
				return rng.Intn(n)
			}
		}
		var mid *Graph
		var midAdj [][]int
		ops := 100 + rng.Intn(3000)
		for i := 0; i < ops; i++ {
			u, v := endpoint(), endpoint()
			if rng.Intn(8) == 0 {
				v = u
			}
			got, want := b.AddEdge(u, v), o.addEdge(u, v)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("seed %d op %d: AddEdge(%d,%d) = %v, want %v", seed, i, u, v, got, want)
			}
			if i == ops/2 {
				mid, midAdj = b.Build(), o.sortedAdj()
				// Appending to a list must not reach the next one.
				_ = append(mid.Neighbors(0), -7)
			}
		}
		if b.N() != n {
			t.Fatalf("seed %d: N = %d", seed, b.N())
		}
		if err := sameAdj(b.Build(), o.sortedAdj()); err != nil {
			t.Fatalf("seed %d: final build: %v", seed, err)
		}
		if err := sameAdj(mid, midAdj); err != nil {
			t.Fatalf("seed %d: build in mid-sequence changed: %v", seed, err)
		}
	}
}

// TestBuilderAllocsConstant pins the sparse case. Build makes the same three
// allocations at any n: the graph, its offsets and its rows. Building a
// whole ring adds only the appends that grow the edge list, O(log n) of
// them, so an allocation per vertex, which would cost n, fails the bound.
func TestBuilderAllocsConstant(t *testing.T) {
	ring := func(n int) *Builder {
		b := NewBuilder(n)
		for i := 0; i < n; i++ {
			b.MustAddEdge(i, (i+1)%n)
		}
		return b
	}
	for _, n := range []int{100, 100000} {
		b := ring(n)
		if got := testing.AllocsPerRun(3, func() { b.Build() }); got != 3 {
			t.Errorf("Build of a ring at n=%d: %v allocations, want 3", n, got)
		}
		if got := testing.AllocsPerRun(3, func() { ring(n).Build() }); got > 40 {
			t.Errorf("ring construction at n=%d: %v allocations, want at most 40", n, got)
		}
	}
}

// TestAdjacencyRows checks the rows Adjacency exposes against Neighbors on
// random graphs: off has N+1 entries, and v's row is its neighbor list.
// Rows follow each other and each is strictly sorted, so positions run in
// (u, v) order.
func TestAdjacencyRows(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(60)
		b := NewBuilder(n)
		for i := rng.Intn(4 * (n + 1)); i > 0 && n > 1; i-- {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				b.MustAddEdge(u, v)
			}
		}
		g := b.Build()
		off, nbr := g.Adjacency()
		if len(off) != n+1 || off[0] != 0 || off[n] != len(nbr) || len(nbr) != 2*g.M() {
			t.Fatalf("seed %d: off %v for n=%d, %d entries, m=%d", seed, off, n, len(nbr), g.M())
		}
		for u := 0; u < n; u++ {
			if off[u] > off[u+1] || !slices.Equal(nbr[off[u]:off[u+1]], g.Neighbors(u)) {
				t.Fatalf("seed %d: row %d at [%d,%d), Neighbors = %v", seed, u, off[u], off[u+1], g.Neighbors(u))
			}
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
