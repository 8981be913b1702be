package embedding

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"universalnet/internal/graph"
	"universalnet/internal/topology"
)

// identity places guest i on host i.
func identity(n int) []int {
	f := make([]int, n)
	for i := range f {
		f[i] = i
	}
	return f
}

func TestIdentityEmbeddingRingIntoRing(t *testing.T) {
	g, err := topology.Ring(8)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(g, g, identity(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	if e.Load() != 1 || e.Dilation() != 1 || e.Congestion() != 1 {
		t.Errorf("load=%d dilation=%d congestion=%d; want 1,1,1", e.Load(), e.Dilation(), e.Congestion())
	}
	if e.SlowdownLowerBound() != 1 {
		t.Errorf("slowdown bound %d", e.SlowdownLowerBound())
	}
}

func TestIdentityEmbeddingCompleteIntoRing(t *testing.T) {
	k, err := topology.Complete(8)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := topology.Ring(8)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(k, ring, identity(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	// Antipodal guest edges dilate to ring distance 4.
	if e.Dilation() != 4 {
		t.Errorf("dilation = %d, want 4", e.Dilation())
	}
	if e.Congestion() < 4 {
		t.Errorf("congestion = %d suspiciously low for K8 on a ring", e.Congestion())
	}
}

func TestNewRejectsBadPlacement(t *testing.T) {
	g, _ := topology.Ring(4)
	h, _ := topology.Ring(4)
	if _, err := New(g, h, []int{0, 1}); err == nil {
		t.Error("short placement accepted")
	}
	if _, err := New(g, h, []int{0, 1, 2, 9}); err == nil {
		t.Error("invalid host accepted")
	}
}

func TestNewRejectsDisconnectedHost(t *testing.T) {
	g, _ := topology.Ring(4)
	b := graph.NewBuilder(4)
	b.MustAddEdge(0, 1)
	b.MustAddEdge(2, 3)
	_, err := New(g, b.Build(), []int{0, 1, 2, 3})
	if want := "embedding: hosts 0 and 3 disconnected"; err == nil || err.Error() != want {
		t.Errorf("disconnected host: error %v, want %q", err, want)
	}
}

// shortestPath is the per-edge search New ran before it kept one BFS tree
// per source host, kept as its oracle: a breadth-first search from src over
// sorted neighbor lists that stops when it discovers dst, then walks the
// parents back. It returns nil when dst is unreachable.
func shortestPath(g *graph.Graph, src, dst int) []int {
	if src == dst {
		return []int{src}
	}
	parent := make([]int, g.N())
	for i := range parent {
		parent[i] = -1
	}
	parent[src] = src
	queue := []int{src}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, w := range g.Neighbors(v) {
			if parent[w] >= 0 {
				continue
			}
			parent[w] = v
			if w == dst {
				path := []int{dst}
				for x := dst; x != src; x = parent[x] {
					path = append(path, parent[x])
				}
				slices.Reverse(path)
				return path
			}
			queue = append(queue, w)
		}
	}
	return nil
}

// TestNewMatchesShortestPath holds New's tree walks to the per-edge
// early-exit search on seeded random guests placed at random and i mod m on
// ring, torus, expander and ccc hosts, with more guests than hosts so that
// guests share a host and many edges leave one host.
func TestNewMatchesShortestPath(t *testing.T) {
	must := func(g *graph.Graph, err error) *graph.Graph {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	hosts := []struct {
		name string
		g    *graph.Graph
	}{
		{"ring", must(topology.Ring(12))},
		{"torus", must(topology.Torus(25))},
		{"expander", must(topology.RandomRegular(rand.New(rand.NewSource(5)), 30, 4))},
		{"ccc", must(topology.CubeConnectedCycles(3))},
	}
	instances := 0
	for seed := int64(1); seed <= 4; seed++ {
		for _, h := range hosts {
			m := h.g.N()
			rng := rand.New(rand.NewSource(seed))
			guest := must(topology.RandomGuest(rng, 2*m+2*int(seed), 4))
			for _, placement := range []string{"random", "mod"} {
				f := make([]int, guest.N())
				for i := range f {
					if placement == "mod" {
						f[i] = i % m
					} else {
						f[i] = rng.Intn(m)
					}
				}
				e, err := New(guest, h.g, f)
				if err != nil {
					t.Fatalf("seed %d %s %s: %v", seed, h.name, placement, err)
				}
				edges := guest.Edges()
				if len(e.Paths) != len(edges) {
					t.Fatalf("seed %d %s %s: %d paths for %d edges", seed, h.name, placement, len(e.Paths), len(edges))
				}
				for _, ge := range edges {
					if got, want := e.Paths[ge], shortestPath(h.g, f[ge.U], f[ge.V]); !slices.Equal(got, want) {
						t.Fatalf("seed %d %s %s edge %v: path %v, oracle %v", seed, h.name, placement, ge, got, want)
					}
				}
				instances++
			}
		}
	}
	if instances < 30 {
		t.Fatalf("%d instances, want at least 30", instances)
	}
}

// BenchmarkEmbeddingNew times an embed miss's embedding: a 1024-guest,
// degree-4 random guest placed i mod m on a 64-processor 4-regular random
// host, every guest edge routed on a shortest host path.
func BenchmarkEmbeddingNew(b *testing.B) {
	guest, err := topology.RandomGuest(rand.New(rand.NewSource(1)), 1024, 4)
	if err != nil {
		b.Fatal(err)
	}
	host, err := topology.RandomRegular(rand.New(rand.NewSource(1)), 64, 4)
	if err != nil {
		b.Fatal(err)
	}
	if !host.IsConnected() {
		b.Fatal("host is disconnected")
	}
	f := make([]int, guest.N())
	for i := range f {
		f[i] = i % host.N()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := New(guest, host, f); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRandomEmbeddingBalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	guest, err := topology.RandomGuest(rng, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	host, err := topology.Torus(16)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Random(guest, host, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	if e.Load() != 2 {
		t.Errorf("load = %d, want 2 (balanced)", e.Load())
	}
}

func TestGreedyEmbeddingBeatsRandomLocally(t *testing.T) {
	// Embedding a torus into itself: greedy (locality-aware) must achieve
	// much lower dilation than a random shuffle.
	rng := rand.New(rand.NewSource(2))
	guest, err := topology.Torus(64)
	if err != nil {
		t.Fatal(err)
	}
	host, err := topology.Torus(64)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := Greedy(guest, host, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := greedy.Validate(); err != nil {
		t.Fatal(err)
	}
	random, err := Random(guest, host, rng)
	if err != nil {
		t.Fatal(err)
	}
	if greedy.Dilation() >= random.Dilation() {
		t.Errorf("greedy dilation %d not below random %d", greedy.Dilation(), random.Dilation())
	}
	if greedy.Load() > 1 {
		t.Errorf("greedy load %d on equal-size host", greedy.Load())
	}
}

func TestGreedyEmbeddingLoadCap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	guest, err := topology.RandomGuest(rng, 48, 4)
	if err != nil {
		t.Fatal(err)
	}
	host, err := topology.Ring(12)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Greedy(guest, host, rng)
	if err != nil {
		t.Fatal(err)
	}
	if e.Load() != 4 {
		t.Errorf("load = %d, want the capacity 4", e.Load())
	}
}

func TestEmbeddingValidateCatchesCorruption(t *testing.T) {
	g, _ := topology.Ring(6)
	e, err := New(g, g, identity(6))
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one path with a non-edge jump.
	for ge := range e.Paths {
		e.Paths[ge] = []int{e.F[ge.U], (e.F[ge.U] + 3) % 6, e.F[ge.V]}
		break
	}
	if err := e.Validate(); err == nil {
		t.Error("corrupted path accepted")
	}
	// Remove a path entirely.
	e2, _ := New(g, g, identity(6))
	for ge := range e2.Paths {
		delete(e2.Paths, ge)
		break
	}
	if err := e2.Validate(); err == nil {
		t.Error("missing path accepted")
	}
}

func TestPropertyEmbeddingInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 8 + 2*r.Intn(8) // even, for regular guests
		guest, err := topology.RandomRegular(r, n, 3)
		if err != nil || !guest.IsConnected() {
			return true // skip rare disconnected samples
		}
		host, err := topology.Ring(4 + r.Intn(8))
		if err != nil {
			return false
		}
		e, err := Random(guest, host, r)
		if err != nil {
			return false
		}
		if e.Validate() != nil {
			return false
		}
		// Load · m ≥ n and dilation ≤ host diameter.
		if e.Load()*host.N() < n {
			return false
		}
		return e.Dilation() <= host.Diameter()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestGuestBFSOrderCoversAll(t *testing.T) {
	b := graph.NewBuilder(5)
	b.MustAddEdge(0, 1)
	b.MustAddEdge(3, 4) // second component
	g := b.Build()
	order := guestBFSOrder(g)
	if len(order) != 5 {
		t.Errorf("order %v misses vertices", order)
	}
	seen := make(map[int]bool)
	for _, v := range order {
		if seen[v] {
			t.Errorf("vertex %d repeated", v)
		}
		seen[v] = true
	}
}
