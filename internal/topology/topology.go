// Package topology constructs the constant-degree processor networks that
// appear in the paper: meshes, tori, the (a,n)-multitorus of Definition 3.8,
// butterflies, cube-connected cycles, shuffle-exchange and de Bruijn
// networks, hypercubes, trees, random regular graphs (the counting class 𝒰'),
// and the fixed subgraph G₀ of Definition 3.9.
//
// All constructors return *graph.Graph values on vertices 0..n-1 and report
// errors for invalid parameters rather than panicking, so command-line tools
// can surface them.
package topology

import (
	"fmt"
	"math"

	"universalnet/internal/graph"
)

// Path returns the path (linear array) on n ≥ 1 vertices.
func Path(n int) (*graph.Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("topology: path needs n ≥ 1, got %d", n)
	}
	b := graph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.MustAddEdge(i, i+1)
	}
	return b.Build(), nil
}

// Ring returns the cycle on n ≥ 3 vertices.
func Ring(n int) (*graph.Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("topology: ring needs n ≥ 3, got %d", n)
	}
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.MustAddEdge(i, (i+1)%n)
	}
	return b.Build(), nil
}

// Complete returns the complete network K_n (n ≥ 1). The paper's simulation
// results for "the complete network" use this as guest.
func Complete(n int) (*graph.Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("topology: complete needs n ≥ 1, got %d", n)
	}
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.MustAddEdge(u, v)
		}
	}
	return b.Build(), nil
}

// Star returns the star K_{1,n-1} with center 0.
func Star(n int) (*graph.Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("topology: star needs n ≥ 2, got %d", n)
	}
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.MustAddEdge(0, v)
	}
	return b.Build(), nil
}

// CompleteBinaryTree returns the complete binary tree with n = 2^{d+1}-1
// vertices in heap order (children of i are 2i+1, 2i+2).
func CompleteBinaryTree(depth int) (*graph.Graph, error) {
	if depth < 0 || depth > 30 {
		return nil, fmt.Errorf("topology: tree depth %d out of range [0,30]", depth)
	}
	n := (1 << (depth + 1)) - 1
	b := graph.NewBuilder(n)
	for i := 0; 2*i+2 < n; i++ {
		b.MustAddEdge(i, 2*i+1)
		b.MustAddEdge(i, 2*i+2)
	}
	return b.Build(), nil
}

// Hypercube returns the d-dimensional hypercube on 2^d vertices; vertex i is
// adjacent to i XOR 2^j for each dimension j. Degree d (not constant, but the
// classic reference point for the constant-degree derivatives below).
func Hypercube(d int) (*graph.Graph, error) {
	if d < 0 || d > 30 {
		return nil, fmt.Errorf("topology: hypercube dimension %d out of range [0,30]", d)
	}
	n := 1 << d
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		for j := 0; j < d; j++ {
			w := v ^ (1 << j)
			if v < w {
				b.MustAddEdge(v, w)
			}
		}
	}
	return b.Build(), nil
}

// ButterflyNode maps a butterfly coordinate (level ∈ [0,d], row ∈ [0,2^d))
// to its vertex index in the graph returned by Butterfly.
func ButterflyNode(d, level, row int) int { return level*(1<<d) + row }

// Butterfly returns the (unwrapped) d-dimensional butterfly network:
// (d+1)·2^d vertices arranged in levels 0..d of 2^d rows. Node (l, r) is
// joined to (l+1, r) (straight edge) and (l+1, r XOR 2^l) (cross edge).
// Interior nodes have degree 4; level-0 and level-d nodes have degree 2.
func Butterfly(d int) (*graph.Graph, error) {
	if d < 1 || d > 24 {
		return nil, fmt.Errorf("topology: butterfly dimension %d out of range [1,24]", d)
	}
	rows := 1 << d
	b := graph.NewBuilder((d + 1) * rows)
	for l := 0; l < d; l++ {
		for r := 0; r < rows; r++ {
			b.MustAddEdge(ButterflyNode(d, l, r), ButterflyNode(d, l+1, r))
			b.MustAddEdge(ButterflyNode(d, l, r), ButterflyNode(d, l+1, r^(1<<l)))
		}
	}
	return b.Build(), nil
}

// WrappedButterfly returns the wrapped butterfly: levels 0..d-1 (level d is
// identified with level 0), d·2^d vertices, 4-regular for d ≥ 3.
func WrappedButterfly(d int) (*graph.Graph, error) {
	if d < 2 || d > 24 {
		return nil, fmt.Errorf("topology: wrapped butterfly dimension %d out of range [2,24]", d)
	}
	rows := 1 << d
	node := func(l, r int) int { return (l%d)*rows + r }
	b := graph.NewBuilder(d * rows)
	for l := 0; l < d; l++ {
		for r := 0; r < rows; r++ {
			b.MustAddEdge(node(l, r), node(l+1, r))
			b.MustAddEdge(node(l, r), node(l+1, r^(1<<l)))
		}
	}
	return b.Build(), nil
}

// CubeConnectedCycles returns the CCC of dimension d: each hypercube node is
// replaced by a cycle of d vertices; vertex (v, i) connects to (v, i±1 mod d)
// and (v XOR 2^i, i). 3-regular for d ≥ 3; d·2^d vertices.
func CubeConnectedCycles(d int) (*graph.Graph, error) {
	if d < 3 || d > 24 {
		return nil, fmt.Errorf("topology: CCC dimension %d out of range [3,24]", d)
	}
	node := func(v, i int) int { return v*d + i }
	b := graph.NewBuilder(d * (1 << d))
	for v := 0; v < 1<<d; v++ {
		for i := 0; i < d; i++ {
			b.MustAddEdge(node(v, i), node(v, (i+1)%d))
			w := v ^ (1 << i)
			if v < w {
				b.MustAddEdge(node(v, i), node(w, i))
			}
		}
	}
	return b.Build(), nil
}

// ShuffleExchange returns the shuffle-exchange network on 2^d vertices:
// exchange edges {v, v XOR 1} and shuffle edges {v, rot(v)} where rot is a
// one-bit cyclic left rotation of the d-bit address. Degree ≤ 3.
func ShuffleExchange(d int) (*graph.Graph, error) {
	if d < 2 || d > 28 {
		return nil, fmt.Errorf("topology: shuffle-exchange dimension %d out of range [2,28]", d)
	}
	n := 1 << d
	rot := func(v int) int { return ((v << 1) | (v >> (d - 1))) & (n - 1) }
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		if w := v ^ 1; v < w {
			b.MustAddEdge(v, w)
		}
		if w := rot(v); w != v {
			b.MustAddEdge(v, w)
		}
	}
	return b.Build(), nil
}

// DeBruijn returns the binary de Bruijn graph on 2^d vertices: v is adjacent
// to (2v mod n) and (2v+1 mod n). Degree ≤ 4 (self-loops dropped).
func DeBruijn(d int) (*graph.Graph, error) {
	if d < 2 || d > 28 {
		return nil, fmt.Errorf("topology: de Bruijn dimension %d out of range [2,28]", d)
	}
	n := 1 << d
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		for _, w := range []int{(2 * v) % n, (2*v + 1) % n} {
			if w != v {
				b.MustAddEdge(v, w)
			}
		}
	}
	return b.Build(), nil
}

// IsPowerOfTwo reports whether x is a positive power of two.
func IsPowerOfTwo(x int) bool { return x > 0 && x&(x-1) == 0 }

// SideLength returns √n if n is a perfect square, else an error. Meshes and
// tori in the paper assume n = N².
func SideLength(n int) (int, error) {
	if n < 1 {
		return 0, fmt.Errorf("topology: size %d not positive", n)
	}
	N := int(math.Round(math.Sqrt(float64(n))))
	for N*N > n {
		N--
	}
	for (N+1)*(N+1) <= n {
		N++
	}
	if N*N != n {
		return 0, fmt.Errorf("topology: size %d is not a perfect square", n)
	}
	return N, nil
}
