package topology

import (
	"math/rand"
	"testing"

	"universalnet/internal/graph"
)

func checkValid(t *testing.T) func(g *graph.Graph, err error) *graph.Graph {
	return func(g *graph.Graph, err error) *graph.Graph {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if verr := g.Validate(); verr != nil {
			t.Fatal(verr)
		}
		return g
	}
}

func TestPath(t *testing.T) {
	g := checkValid(t)(Path(5))
	if g.N() != 5 || g.M() != 4 {
		t.Errorf("path: n=%d m=%d", g.N(), g.M())
	}
	if g.Diameter() != 4 {
		t.Errorf("path diameter %d", g.Diameter())
	}
	if _, err := Path(0); err == nil {
		t.Error("Path(0) accepted")
	}
}

func TestRing(t *testing.T) {
	g := checkValid(t)(Ring(8))
	if !g.IsRegular(2) || g.Diameter() != 4 {
		t.Errorf("ring wrong: %v diam=%d", g, g.Diameter())
	}
	if _, err := Ring(2); err == nil {
		t.Error("Ring(2) accepted")
	}
}

func TestComplete(t *testing.T) {
	g := checkValid(t)(Complete(6))
	if g.M() != 15 || !g.IsRegular(5) || g.Diameter() != 1 {
		t.Errorf("K6 wrong: %v", g)
	}
}

func TestStar(t *testing.T) {
	g := checkValid(t)(Star(5))
	if g.Degree(0) != 4 || g.M() != 4 {
		t.Errorf("star wrong: %v", g)
	}
}

func TestCompleteBinaryTree(t *testing.T) {
	g := checkValid(t)(CompleteBinaryTree(3))
	if g.N() != 15 || g.M() != 14 {
		t.Errorf("tree wrong: %v", g)
	}
	if g.Girth() != -1 {
		t.Error("tree has a cycle")
	}
	if !g.IsConnected() {
		t.Error("tree disconnected")
	}
}

func TestHypercube(t *testing.T) {
	g := checkValid(t)(Hypercube(4))
	if g.N() != 16 || !g.IsRegular(4) || g.Diameter() != 4 {
		t.Errorf("Q4 wrong: %v diam=%d", g, g.Diameter())
	}
	// Q0 is a single vertex.
	g0 := checkValid(t)(Hypercube(0))
	if g0.N() != 1 || g0.M() != 0 {
		t.Errorf("Q0 wrong: %v", g0)
	}
}

func TestButterfly(t *testing.T) {
	d := 3
	g := checkValid(t)(Butterfly(d))
	if g.N() != (d+1)*(1<<d) {
		t.Errorf("BF(%d) n=%d", d, g.N())
	}
	// Interior levels degree 4, boundary levels degree 2.
	for r := 0; r < 1<<d; r++ {
		if got := g.Degree(ButterflyNode(d, 0, r)); got != 2 {
			t.Errorf("level-0 degree %d", got)
		}
		if got := g.Degree(ButterflyNode(d, d, r)); got != 2 {
			t.Errorf("level-d degree %d", got)
		}
		if got := g.Degree(ButterflyNode(d, 1, r)); got != 4 {
			t.Errorf("interior degree %d", got)
		}
	}
	if !g.IsConnected() {
		t.Error("butterfly disconnected")
	}
	// Any level-0 row reaches any level-d row in exactly d hops via bit fixing.
	if dist := g.BFS(ButterflyNode(d, 0, 0))[ButterflyNode(d, d, 5)]; dist != d {
		t.Errorf("level-0 to level-d distance %d, want %d", dist, d)
	}
}

func TestWrappedButterfly(t *testing.T) {
	d := 3
	g := checkValid(t)(WrappedButterfly(d))
	if g.N() != d*(1<<d) || !g.IsRegular(4) {
		t.Errorf("WBF wrong: %v", g)
	}
	if !g.IsConnected() {
		t.Error("wrapped butterfly disconnected")
	}
}

func TestCubeConnectedCycles(t *testing.T) {
	d := 3
	g := checkValid(t)(CubeConnectedCycles(d))
	if g.N() != d*(1<<d) || !g.IsRegular(3) {
		t.Errorf("CCC wrong: %v degrees [%d, %d]", g, g.MinDegree(), g.MaxDegree())
	}
	if !g.IsConnected() {
		t.Error("CCC disconnected")
	}
}

func TestShuffleExchange(t *testing.T) {
	g := checkValid(t)(ShuffleExchange(4))
	if g.N() != 16 || g.MaxDegree() > 3 {
		t.Errorf("SE wrong: %v", g)
	}
	if !g.IsConnected() {
		t.Error("shuffle-exchange disconnected")
	}
}

func TestDeBruijn(t *testing.T) {
	g := checkValid(t)(DeBruijn(4))
	if g.N() != 16 || g.MaxDegree() > 4 {
		t.Errorf("dB wrong: %v", g)
	}
	if !g.IsConnected() {
		t.Error("de Bruijn disconnected")
	}
	// Diameter of de Bruijn on 2^d vertices is ≤ d.
	if g.Diameter() > 4 {
		t.Errorf("dB diameter %d > 4", g.Diameter())
	}
}

func TestMeshAndTorus(t *testing.T) {
	mesh := checkValid(t)(Mesh(16))
	if mesh.M() != 24 || mesh.Diameter() != 6 {
		t.Errorf("mesh wrong: %v diam=%d", mesh, mesh.Diameter())
	}
	torus := checkValid(t)(Torus(16))
	if !torus.IsRegular(4) || torus.Diameter() != 4 {
		t.Errorf("torus wrong: %v diam=%d", torus, torus.Diameter())
	}
	if !mesh.IsSubgraphOf(torus) {
		t.Error("mesh not a subgraph of torus")
	}
	if _, err := Mesh(15); err == nil {
		t.Error("non-square mesh accepted")
	}
	if _, err := Torus(4); err == nil {
		t.Error("too-small torus accepted")
	}
}

func TestMeshCoordRoundTrip(t *testing.T) {
	N := 7
	for i := 0; i < N*N; i++ {
		x, y := MeshCoord(N, i)
		if MeshIndex(N, x, y) != i {
			t.Fatalf("coord round trip failed at %d", i)
		}
	}
}

func TestMultitorus(t *testing.T) {
	// 12×12 torus with 4×4 blocks.
	g := checkValid(t)(Multitorus(4, 144))
	if g.MinDegree() < 4 || g.MaxDegree() > 8 {
		t.Errorf("multitorus degrees [%d, %d] out of [4,8]", g.MinDegree(), g.MaxDegree())
	}
	torus := checkValid(t)(Torus(144))
	if !torus.IsSubgraphOf(g) {
		t.Error("torus not subgraph of multitorus")
	}
	if _, err := Multitorus(5, 144); err == nil {
		t.Error("non-dividing block side accepted")
	}
	if _, err := Multitorus(2, 144); err == nil {
		t.Error("tiny block side accepted")
	}
}

func TestTorusPartition(t *testing.T) {
	blocks, err := TorusPartition(4, 144)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 9 {
		t.Fatalf("partition has %d blocks, want 9", len(blocks))
	}
	seen := make(map[int]bool)
	for bi := range blocks {
		bl := &blocks[bi]
		if len(bl.Vertices) != 16 {
			t.Errorf("block %d size %d", bi, len(bl.Vertices))
		}
		for _, v := range bl.Vertices {
			if seen[v] {
				t.Errorf("vertex %d repeated", v)
			}
			seen[v] = true
			if !bl.Contains(v) {
				t.Errorf("block does not contain own vertex %d", v)
			}
			if BlockOf(blocks, v) != bi {
				t.Errorf("BlockOf(%d) != %d", v, bi)
			}
			dx, dy := bl.Rel(v)
			if bl.Index(dx, dy) != v {
				t.Errorf("Rel/Index round trip failed for %d", v)
			}
		}
	}
	if len(seen) != 144 {
		t.Errorf("partition covers %d vertices", len(seen))
	}
}

func TestTorusDistance(t *testing.T) {
	if d := TorusDistance(4, 0, 0, 3, 3); d != 2 {
		t.Errorf("wrap distance = %d, want 2", d)
	}
	if d := TorusDistance(4, 0, 0, 2, 2); d != 4 {
		t.Errorf("distance = %d, want 4", d)
	}
	if d := TorusDistance(5, 1, 1, 1, 1); d != 0 {
		t.Errorf("self distance = %d", d)
	}
}

func TestRandomRegular(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct{ n, d int }{{10, 3}, {20, 4}, {30, 5}, {64, 16}} {
		if tc.n*tc.d%2 != 0 {
			continue
		}
		g, err := RandomRegular(rng, tc.n, tc.d)
		if err != nil {
			t.Fatalf("RandomRegular(%d,%d): %v", tc.n, tc.d, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		if !g.IsRegular(tc.d) {
			t.Errorf("(%d,%d): not regular: degrees [%d, %d]", tc.n, tc.d, g.MinDegree(), g.MaxDegree())
		}
	}
}

func TestRandomRegularOddSumRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := RandomRegular(rng, 5, 3); err == nil {
		t.Error("odd degree sum accepted")
	}
}

func TestRandomWithDegreeSequenceForbidden(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	forbidden, err := Ring(12)
	if err != nil {
		t.Fatal(err)
	}
	seq := make([]int, 12)
	for i := range seq {
		seq[i] = 4
	}
	g, err := RandomWithDegreeSequence(rng, seq, forbidden)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsRegular(4) {
		t.Errorf("not 4-regular: degrees [%d, %d]", g.MinDegree(), g.MaxDegree())
	}
	for _, e := range forbidden.Edges() {
		if g.HasEdge(e.U, e.V) {
			t.Errorf("forbidden edge %v present", e)
		}
	}
}

func TestRandomGuestConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, err := RandomGuest(rng, 40, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsConnected() || !g.IsRegular(16) {
		t.Errorf("guest invalid: %v", g)
	}
}

func TestG0Construction(t *testing.T) {
	// Block side 4 (a = 2), side 16 → n = 256, h = 16 blocks.
	g0, err := BuildG0WithBlockSide(256, 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := g0.Validate(); err != nil {
		t.Fatal(err)
	}
	if g0.H() != 16 {
		t.Errorf("h = %d, want 16", g0.H())
	}
	if g0.A != 2 || g0.BlockSide != 4 {
		t.Errorf("a=%d blockSide=%d", g0.A, g0.BlockSide)
	}
	if !g0.Multitorus.IsSubgraphOf(g0.Graph) || !g0.Expander.IsSubgraphOf(g0.Graph) {
		t.Error("components not subgraphs of G0")
	}
	if g0.Graph.MaxDegree() > 12 {
		t.Errorf("G0 max degree %d", g0.Graph.MaxDegree())
	}
	if !g0.Graph.IsConnected() {
		t.Error("G0 disconnected")
	}
}

func TestG0SampleGuest(t *testing.T) {
	g0, err := BuildG0WithBlockSide(144, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	guest, err := g0.SampleGuest(rng, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !guest.IsRegular(16) {
		t.Errorf("guest degrees [%d, %d], want 16", guest.MinDegree(), guest.MaxDegree())
	}
	if !g0.Graph.IsSubgraphOf(guest) {
		t.Error("G0 not a subgraph of sampled guest")
	}
	// c below max degree must fail.
	if _, err := g0.SampleGuest(rng, 6); err == nil {
		t.Error("too-small c accepted")
	}
}

func TestG0SizeHelpers(t *testing.T) {
	if !ValidG0Size(256, 4) {
		t.Error("256/4 should be valid")
	}
	if ValidG0Size(255, 4) {
		t.Error("non-square accepted")
	}
	if ValidG0Size(16, 4) {
		t.Error("single-block size accepted")
	}
	if got := NextValidG0Size(100, 4); got != 144 {
		t.Errorf("NextValidG0Size(100,4) = %d, want 144", got)
	}
	if got := NextValidG0Size(1, 4); got != 64 {
		t.Errorf("NextValidG0Size(1,4) = %d, want 64", got)
	}
	if !ValidG0Size(NextValidG0Size(500, 6), 6) {
		t.Error("NextValidG0Size result invalid")
	}
	if bs := G0BlockSide(1 << 16); bs != 8 {
		t.Errorf("G0BlockSide(2^16) = %d, want 8", bs)
	}
	if bs := G0BlockSide(1); bs != 4 {
		t.Errorf("G0BlockSide(1) = %d, want 4", bs)
	}
}

func TestBuildG0FromHostSize(t *testing.T) {
	m := 1 << 9 // block side = 2·⌈√9⌉ = 6
	bs := G0BlockSide(m)
	n := NextValidG0Size(200, bs)
	g0, err := BuildG0(n, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g0.BlockSide != bs {
		t.Errorf("block side %d, want %d", g0.BlockSide, bs)
	}
	if err := g0.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLogHelpers(t *testing.T) {
	if !IsPowerOfTwo(64) || IsPowerOfTwo(0) || IsPowerOfTwo(12) {
		t.Error("IsPowerOfTwo wrong")
	}
}

func TestSideLength(t *testing.T) {
	if s, err := SideLength(49); err != nil || s != 7 {
		t.Errorf("SideLength(49) = %d, %v", s, err)
	}
	if _, err := SideLength(50); err == nil {
		t.Error("non-square accepted")
	}
	if _, err := SideLength(0); err == nil {
		t.Error("zero accepted")
	}
	// Large square where float sqrt may be inexact.
	big := 1 << 30
	if s, err := SideLength(big); err != nil || s*s != big {
		t.Errorf("SideLength(2^30) = %d, %v", s, err)
	}
}
