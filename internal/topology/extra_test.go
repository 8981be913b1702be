package topology

import "testing"

func TestMeshOfTrees(t *testing.T) {
	N := 4
	g := checkValid(t)(MeshOfTrees(N))
	want := N*N + 2*N*(N-1)
	if g.N() != want {
		t.Errorf("n = %d, want %d", g.N(), want)
	}
	if !g.IsConnected() {
		t.Error("mesh of trees disconnected")
	}
	if g.MaxDegree() > 3 {
		t.Errorf("max degree %d > 3", g.MaxDegree())
	}
	// Leaves (grid points) have degree 2: one row-tree and one column-tree
	// parent.
	for leaf := 0; leaf < N*N; leaf++ {
		if g.Degree(leaf) != 2 {
			t.Fatalf("leaf %d degree %d, want 2", leaf, g.Degree(leaf))
		}
	}
	if _, err := MeshOfTrees(3); err == nil {
		t.Error("non-power-of-two side accepted")
	}
	if _, err := MeshOfTrees(1); err == nil {
		t.Error("side 1 accepted")
	}
}

func TestXTree(t *testing.T) {
	g := checkValid(t)(XTree(3))
	if g.N() != 15 {
		t.Errorf("n = %d", g.N())
	}
	// Tree edges 14 + level edges (1 + 3 + 7) = 25.
	if g.M() != 25 {
		t.Errorf("m = %d, want 25", g.M())
	}
	if g.MaxDegree() > 5 {
		t.Errorf("max degree %d > 5", g.MaxDegree())
	}
	if !g.IsConnected() {
		t.Error("X-tree disconnected")
	}
	// X-tree diameter is O(depth), much below the tree's 2·depth for wide
	// levels: check it does not exceed 2·depth.
	if g.Diameter() > 6 {
		t.Errorf("diameter %d > 6", g.Diameter())
	}
	if _, err := XTree(0); err == nil {
		t.Error("depth 0 accepted")
	}
}

func TestTorus3D(t *testing.T) {
	g := checkValid(t)(Torus3D(3))
	if g.N() != 27 || !g.IsRegular(6) {
		t.Errorf("3D torus wrong: %v degrees [%d, %d]", g, g.MinDegree(), g.MaxDegree())
	}
	if !g.IsConnected() {
		t.Error("3D torus disconnected")
	}
	// Diameter of L³ torus is 3·⌊L/2⌋.
	if g.Diameter() != 3 {
		t.Errorf("diameter %d, want 3", g.Diameter())
	}
	if _, err := Torus3D(2); err == nil {
		t.Error("side 2 accepted")
	}
}

func TestKautz(t *testing.T) {
	g := checkValid(t)(Kautz(2, 2))
	// K(2,2): (2+1)·2² = 12 vertices, diameter ≤ 3, degree ≤ 4.
	if g.N() != 12 {
		t.Errorf("n = %d, want 12", g.N())
	}
	if g.MaxDegree() > 4 {
		t.Errorf("max degree %d > 4", g.MaxDegree())
	}
	if !g.IsConnected() {
		t.Error("Kautz disconnected")
	}
	if g.Diameter() > 3 {
		t.Errorf("diameter %d > 3", g.Diameter())
	}
	g3 := checkValid(t)(Kautz(2, 3))
	if g3.N() != 24 {
		t.Errorf("K(2,3) n = %d, want 24", g3.N())
	}
	if g3.Diameter() > 4 {
		t.Errorf("K(2,3) diameter %d > 4", g3.Diameter())
	}
	if _, err := Kautz(1, 2); err == nil {
		t.Error("base 1 accepted")
	}
	if _, err := Kautz(10, 10); err == nil {
		t.Error("oversized Kautz accepted")
	}
}

func TestMultibutterfly(t *testing.T) {
	d, mult := 4, 2
	g := checkValid(t)(Multibutterfly(d, mult, 7))
	if g.N() != (d+1)*(1<<d) {
		t.Errorf("n = %d", g.N())
	}
	if !g.IsConnected() {
		t.Error("multibutterfly disconnected")
	}
	if g.MaxDegree() > 4*mult {
		t.Errorf("degree %d > 4·mult", g.MaxDegree())
	}
	// Level-0 nodes have only up-edges: degree ≤ 2·mult.
	for r := 0; r < 1<<d; r++ {
		if deg := g.Degree(MultibutterflyNode(d, 0, r)); deg > 2*mult {
			t.Errorf("level-0 degree %d > 2·mult", deg)
		}
	}
	// Determinism.
	g2 := checkValid(t)(Multibutterfly(d, mult, 7))
	if !g.Equal(g2) {
		t.Error("same seed gave different multibutterflies")
	}
	if _, err := Multibutterfly(0, 2, 1); err == nil {
		t.Error("d=0 accepted")
	}
	if _, err := Multibutterfly(3, 0, 1); err == nil {
		t.Error("mult=0 accepted")
	}
	if _, err := Multibutterfly(3, 9, 1); err == nil {
		t.Error("mult=9 accepted")
	}
}

func TestMultibutterflyRoutesLikeButterfly(t *testing.T) {
	// Any level-0 row reaches any level-d row in exactly d hops (each hop
	// descends one level and halves the candidate block).
	d := 4
	g := checkValid(t)(Multibutterfly(d, 2, 9))
	dist := g.BFS(MultibutterflyNode(d, 0, 3))
	for r := 0; r < 1<<d; r++ {
		if got := dist[MultibutterflyNode(d, d, r)]; got != d {
			t.Errorf("level-0 → level-%d row %d distance %d, want %d", d, r, got, d)
		}
	}
}

func TestEnumerateRegularGraphsMatchesExactCount(t *testing.T) {
	// Two independent implementations (enumerator vs counter) must agree.
	cases := []struct {
		n, c int
		want int
	}{
		{4, 1, 3}, {6, 1, 15}, {4, 2, 3}, {5, 2, 12}, {6, 2, 70},
		{4, 3, 1}, {6, 3, 70}, {6, 4, 15}, {5, 4, 1},
	}
	for _, tc := range cases {
		gs, err := EnumerateRegularGraphs(tc.n, tc.c, 100000)
		if err != nil {
			t.Fatalf("n=%d c=%d: %v", tc.n, tc.c, err)
		}
		if len(gs) != tc.want {
			t.Errorf("n=%d c=%d: enumerated %d, want %d", tc.n, tc.c, len(gs), tc.want)
		}
		// Every enumerated graph is valid, c-regular, and distinct.
		seen := make(map[uint64]bool)
		for _, g := range gs {
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
			if !g.IsRegular(tc.c) {
				t.Fatalf("n=%d c=%d: non-regular graph enumerated", tc.n, tc.c)
			}
			h := g.Hash()
			if seen[h] {
				t.Fatalf("n=%d c=%d: duplicate graph", tc.n, tc.c)
			}
			seen[h] = true
		}
	}
}

func TestEnumerateRegularGraphsEdgeCases(t *testing.T) {
	if gs, err := EnumerateRegularGraphs(5, 3, 0); err != nil || gs != nil {
		t.Errorf("odd sum: %v %v", gs, err)
	}
	if _, err := EnumerateRegularGraphs(13, 3, 0); err == nil {
		t.Error("oversized n accepted")
	}
	gs, err := EnumerateRegularGraphs(6, 3, 5)
	if err == nil {
		t.Errorf("limit not enforced: got %d graphs", len(gs))
	}
}
