package graph

import (
	"fmt"
	"math/rand"
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

func (o *mapBuilder) hasEdge(u, v int) bool {
	_, ok := o.seen[Edge{U: min(u, v), V: max(u, v)}]
	return ok && u != v
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
// the same random AddEdge/HasEdge/Degree/Build sequences. Most endpoints
// come from a few hubs, so lists cross denseDegree and edges between two
// long lists go through the dense set; the rest are spread over all
// vertices, off by one past either end, or self-loops. A graph built
// mid-sequence must not change as the builder goes on.
func TestBuilderMatchesMapRule(t *testing.T) {
	crossed, denseHits := 0, 0
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
		ops := 200 + rng.Intn(6000)
		for i := 0; i < ops; i++ {
			u, v := endpoint(), endpoint()
			if rng.Intn(8) == 0 {
				v = u
			}
			switch rng.Intn(4) {
			case 0, 1:
				got, want := b.AddEdge(u, v), o.addEdge(u, v)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("seed %d op %d: AddEdge(%d,%d) = %v, want %v", seed, i, u, v, got, want)
				}
			case 2:
				if got, want := b.HasEdge(u, v), o.hasEdge(u, v); got != want {
					t.Fatalf("seed %d op %d: HasEdge(%d,%d) = %v, want %v", seed, i, u, v, got, want)
				}
				if u >= 0 && u < n && v >= 0 && v < n && b.Degree(u) > denseDegree && b.Degree(v) > denseDegree {
					denseHits++
				}
			default:
				if w := rng.Intn(n); b.Degree(w) != len(o.adj[w]) {
					t.Fatalf("seed %d op %d: Degree(%d) = %d, want %d", seed, i, w, b.Degree(w), len(o.adj[w]))
				}
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
		for v := 0; v < n; v++ {
			if b.Degree(v) > denseDegree {
				crossed++
			}
		}
	}
	if crossed == 0 || denseHits == 0 {
		t.Fatalf("sequences never reached the dense set: %d long lists, %d queries between two", crossed, denseHits)
	}
}

// TestBuilderAllocsConstant pins the sparse case: a ring's lists fit their
// first capacity, so building it costs the same few allocations at any n.
func TestBuilderAllocsConstant(t *testing.T) {
	ring := func(n int) func() {
		return func() {
			b := NewBuilder(n)
			for i := 0; i < n; i++ {
				b.MustAddEdge(i, (i+1)%n)
			}
			b.Build()
		}
	}
	small, large := testing.AllocsPerRun(3, ring(100)), testing.AllocsPerRun(3, ring(100000))
	if large != small || large > 10 {
		t.Errorf("ring allocations: %v at n=100, %v at n=100000; want equal and at most 10", small, large)
	}
}
