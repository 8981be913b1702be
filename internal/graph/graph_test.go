package graph

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func mustGraph(t *testing.T, n int, edges [][2]int) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for _, e := range edges {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatalf("AddEdge(%d,%d): %v", e[0], e[1], err)
		}
	}
	g := b.Build()
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return g
}

// ringGraph returns the n-cycle, a handy regular fixture.
func ringGraph(t *testing.T, n int) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.MustAddEdge(i, (i+1)%n)
	}
	return b.Build()
}

func TestNewEdgeCanonical(t *testing.T) {
	e := NewEdge(5, 2)
	if e.U != 2 || e.V != 5 {
		t.Errorf("NewEdge(5,2) = %v, want {2,5}", e)
	}
}

func TestNewEdgeSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewEdge(3,3) did not panic")
		}
	}()
	NewEdge(3, 3)
}

func TestBuilderRejectsBadEdges(t *testing.T) {
	b := NewBuilder(3)
	if err := b.AddEdge(0, 3); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if err := b.AddEdge(-1, 0); err == nil {
		t.Error("negative vertex accepted")
	}
	if err := b.AddEdge(1, 1); err == nil {
		t.Error("self-loop accepted")
	}
}

func TestBuilderDeduplicates(t *testing.T) {
	b := NewBuilder(4)
	b.MustAddEdge(0, 1)
	b.MustAddEdge(1, 0)
	b.MustAddEdge(0, 1)
	g := b.Build()
	if g.M() != 1 {
		t.Errorf("M = %d, want 1 after duplicate inserts", g.M())
	}
	if !b.HasEdge(0, 1) || !b.HasEdge(1, 0) {
		t.Error("builder HasEdge missing inserted edge")
	}
	if b.HasEdge(2, 3) {
		t.Error("builder HasEdge reports absent edge")
	}
}

func TestBuildIsIndependentOfBuilder(t *testing.T) {
	b := NewBuilder(3)
	b.MustAddEdge(0, 1)
	g1 := b.Build()
	b.MustAddEdge(1, 2)
	g2 := b.Build()
	if g1.M() != 1 || g2.M() != 2 {
		t.Errorf("builder reuse broke immutability: m1=%d m2=%d", g1.M(), g2.M())
	}
}

func TestBasicAccessors(t *testing.T) {
	g := mustGraph(t, 5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {0, 2}})
	if g.N() != 5 {
		t.Errorf("N = %d", g.N())
	}
	if g.M() != 6 {
		t.Errorf("M = %d", g.M())
	}
	if g.Degree(0) != 3 || g.Degree(3) != 2 {
		t.Errorf("degrees wrong: deg(0)=%d deg(3)=%d", g.Degree(0), g.Degree(3))
	}
	if g.MaxDegree() != 3 || g.MinDegree() != 2 {
		t.Errorf("max/min degree wrong: %d/%d", g.MaxDegree(), g.MinDegree())
	}
	if !g.HasEdge(0, 2) || !g.HasEdge(2, 0) {
		t.Error("HasEdge misses chord")
	}
	if g.HasEdge(1, 3) {
		t.Error("HasEdge reports absent edge")
	}
	if g.HasEdge(0, 0) || g.HasEdge(-1, 2) || g.HasEdge(0, 99) {
		t.Error("HasEdge accepts invalid queries")
	}
}

func TestEdgesCanonicalAndComplete(t *testing.T) {
	g := ringGraph(t, 6)
	es := g.Edges()
	if len(es) != 6 {
		t.Fatalf("len(Edges) = %d", len(es))
	}
	for _, e := range es {
		if e.U >= e.V {
			t.Errorf("edge %v not canonical", e)
		}
		if !g.HasEdge(e.U, e.V) {
			t.Errorf("edge %v not in graph", e)
		}
	}
}

func TestIsRegular(t *testing.T) {
	g := ringGraph(t, 8)
	if !g.IsRegular(2) {
		t.Error("ring not 2-regular")
	}
	if g.IsRegular(3) {
		t.Error("ring claimed 3-regular")
	}
}

func TestEqualAndHash(t *testing.T) {
	g := ringGraph(t, 7)
	c := ringGraph(t, 7)
	if !g.Equal(c) {
		t.Error("identical rings not equal")
	}
	if g.Hash() != c.Hash() {
		t.Error("identical rings hash differently")
	}
	h := ringGraph(t, 8)
	if g.Equal(h) {
		t.Error("different rings equal")
	}
}

func TestBFSDistances(t *testing.T) {
	// Path 0-1-2-3 plus isolated vertex 4.
	g := mustGraph(t, 5, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	d := g.BFS(0)
	want := []int{0, 1, 2, 3, -1}
	for i := range want {
		if d[i] != want[i] {
			t.Errorf("dist[%d] = %d, want %d", i, d[i], want[i])
		}
	}
}

// TestShortestPath: every vertex's tree parent is a neighbor one BFS level
// nearer the root, the root is its own parent, and on the ring the walk
// from 5 back to 0 is a 5-hop path whose first step goes to the lower
// neighbor 1, the one a search scanning sorted neighbors discovers first.
func TestShortestPath(t *testing.T) {
	g := ringGraph(t, 10)
	parent := g.ShortestPathTree(0)
	dist := g.BFS(0)
	for v, p := range parent {
		if v == 0 {
			if p != 0 {
				t.Errorf("root parent %d, want 0", p)
			}
			continue
		}
		if !g.HasEdge(v, p) || dist[p] != dist[v]-1 {
			t.Errorf("parent of %d is %d: edge %v, levels %d and %d", v, p, g.HasEdge(v, p), dist[v], dist[p])
		}
	}
	var path []int
	for x := 5; x != 0; x = parent[x] {
		path = append(path, x)
	}
	if want := []int{5, 4, 3, 2, 1}; !slices.Equal(path, want) {
		t.Errorf("walk from 5: %v, want %v", path, want)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := mustGraph(t, 4, [][2]int{{0, 1}, {2, 3}})
	if parent := g.ShortestPathTree(0); parent[2] != -1 || parent[3] != -1 {
		t.Errorf("tree across components: %v", parent)
	}
}

func TestConnectedComponents(t *testing.T) {
	g := mustGraph(t, 6, [][2]int{{0, 1}, {1, 2}, {3, 4}})
	comp, count := g.ConnectedComponents()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Error("first component split")
	}
	if comp[3] != comp[4] || comp[3] == comp[0] || comp[5] == comp[0] || comp[5] == comp[3] {
		t.Error("component labels wrong")
	}
	if g.IsConnected() {
		t.Error("disconnected graph claimed connected")
	}
	if !ringGraph(t, 5).IsConnected() {
		t.Error("ring claimed disconnected")
	}
}

func TestDiameter(t *testing.T) {
	if d := ringGraph(t, 10).Diameter(); d != 5 {
		t.Errorf("ring diameter = %d, want 5", d)
	}
	// Path of 4 vertices: diameter 3.
	g := mustGraph(t, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	if d := g.Diameter(); d != 3 {
		t.Errorf("path diameter = %d, want 3", d)
	}
	// Disconnected.
	h := mustGraph(t, 3, [][2]int{{0, 1}})
	if d := h.Diameter(); d != -1 {
		t.Errorf("disconnected diameter = %d, want -1", d)
	}
}

func TestGirth(t *testing.T) {
	if gi := ringGraph(t, 9).Girth(); gi != 9 {
		t.Errorf("ring girth = %d, want 9", gi)
	}
	tree := mustGraph(t, 4, [][2]int{{0, 1}, {0, 2}, {0, 3}})
	if gi := tree.Girth(); gi != -1 {
		t.Errorf("tree girth = %d, want -1", gi)
	}
	// K4 has girth 3.
	k4 := mustGraph(t, 4, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})
	if gi := k4.Girth(); gi != 3 {
		t.Errorf("K4 girth = %d, want 3", gi)
	}
}

func TestTNeighborhoodSize(t *testing.T) {
	g := ringGraph(t, 12)
	if s := g.TNeighborhoodSize(0, 0); s != 1 {
		t.Errorf("0-neighborhood = %d", s)
	}
	if s := g.TNeighborhoodSize(0, 2); s != 5 {
		t.Errorf("2-neighborhood = %d, want 5", s)
	}
	if s := g.TNeighborhoodSize(0, 100); s != 12 {
		t.Errorf("large-neighborhood = %d, want 12", s)
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := ringGraph(t, 6)
	sub, mapping, err := g.InducedSubgraph([]int{0, 1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if sub.N() != 4 || sub.M() != 2 {
		t.Errorf("induced: n=%d m=%d, want 4, 2", sub.N(), sub.M())
	}
	if !sub.HasEdge(0, 1) || !sub.HasEdge(1, 2) {
		t.Error("induced edges missing")
	}
	if mapping[3] != 4 {
		t.Errorf("mapping wrong: %v", mapping)
	}
	if _, _, err := g.InducedSubgraph([]int{0, 0}); err == nil {
		t.Error("duplicate vertex accepted")
	}
	if _, _, err := g.InducedSubgraph([]int{99}); err == nil {
		t.Error("out-of-range vertex accepted")
	}
}

func TestUnionAndSubgraph(t *testing.T) {
	a := mustGraph(t, 4, [][2]int{{0, 1}, {1, 2}})
	b := mustGraph(t, 4, [][2]int{{1, 2}, {2, 3}})
	u := Union(a, b)
	if u.M() != 3 {
		t.Errorf("union M = %d, want 3", u.M())
	}
	if !a.IsSubgraphOf(u) || !b.IsSubgraphOf(u) {
		t.Error("operands not subgraphs of union")
	}
	if u.IsSubgraphOf(a) {
		t.Error("union subgraph of operand")
	}
}

func TestEulerianOrientationRing(t *testing.T) {
	g := ringGraph(t, 7)
	arcs, err := g.EulerianOrientation()
	if err != nil {
		t.Fatal(err)
	}
	checkOrientation(t, g, arcs)
}

func TestEulerianOrientationOddDegreeFails(t *testing.T) {
	g := mustGraph(t, 2, [][2]int{{0, 1}})
	if _, err := g.EulerianOrientation(); err != ErrNotEulerian {
		t.Errorf("err = %v, want ErrNotEulerian", err)
	}
}

func TestEulerianOrientationDisconnected(t *testing.T) {
	// Two disjoint triangles.
	g := mustGraph(t, 6, [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}})
	arcs, err := g.EulerianOrientation()
	if err != nil {
		t.Fatal(err)
	}
	checkOrientation(t, g, arcs)
}

func checkOrientation(t *testing.T, g *Graph, arcs []Arc) {
	t.Helper()
	if len(arcs) != g.M() {
		t.Fatalf("arcs = %d, edges = %d", len(arcs), g.M())
	}
	in := make([]int, g.N())
	out := make([]int, g.N())
	seen := make(map[Edge]bool)
	for _, a := range arcs {
		if !g.HasEdge(a.From, a.To) {
			t.Fatalf("arc %v not an edge", a)
		}
		e := NewEdge(a.From, a.To)
		if seen[e] {
			t.Fatalf("edge %v oriented twice", e)
		}
		seen[e] = true
		out[a.From]++
		in[a.To]++
	}
	for v := 0; v < g.N(); v++ {
		if in[v] != out[v] || in[v] != g.Degree(v)/2 {
			t.Errorf("vertex %d: in=%d out=%d deg=%d", v, in[v], out[v], g.Degree(v))
		}
	}
}

func TestFromEdges(t *testing.T) {
	g, err := FromEdges(3, []Edge{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 2 {
		t.Errorf("M = %d", g.M())
	}
	if _, err := FromEdges(2, []Edge{{0, 5}}); err == nil {
		t.Error("invalid edge accepted")
	}
}

// randomGraph builds an Erdős–Rényi-ish random graph for property tests.
func randomGraph(rng *rand.Rand, n int, p float64) *Graph {
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				b.MustAddEdge(u, v)
			}
		}
	}
	return b.Build()
}

func TestPropertyValidateRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(30)
		g := randomGraph(r, n, r.Float64())
		if err := g.Validate(); err != nil {
			t.Logf("validate: %v", err)
			return false
		}
		// Handshake: sum of degrees = 2m.
		sum := 0
		for v := 0; v < n; v++ {
			sum += g.Degree(v)
		}
		return sum == 2*g.M()
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPropertyBFSTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(25)
		g := randomGraph(r, n, 0.3)
		u, v := r.Intn(n), r.Intn(n)
		du := g.BFS(u)
		dv := g.BFS(v)
		// For every w reachable from both: |du[w]-dv[w]| ≤ dist(u,v).
		if du[v] < 0 {
			return true
		}
		for w := 0; w < n; w++ {
			if du[w] < 0 || dv[w] < 0 {
				continue
			}
			diff := du[w] - dv[w]
			if diff < 0 {
				diff = -diff
			}
			if diff > du[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestPropertyEulerianOrientationOnEvenGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// Build an even-degree graph as a union of edge-disjoint cycles.
		n := 4 + r.Intn(20)
		b := NewBuilder(n)
		for c := 0; c < 3; c++ {
			perm := r.Perm(n)
			l := 3 + r.Intn(n-3)
			cyc := perm[:l]
			for i := 0; i < l; i++ {
				u, v := cyc[i], cyc[(i+1)%l]
				if b.HasEdge(u, v) {
					return true // cycle overlap would break even degrees; skip trial
				}
			}
			for i := 0; i < l; i++ {
				b.MustAddEdge(cyc[i], cyc[(i+1)%l])
			}
		}
		g := b.Build()
		arcs, err := g.EulerianOrientation()
		if err != nil {
			return false
		}
		in := make([]int, n)
		out := make([]int, n)
		for _, a := range arcs {
			out[a.From]++
			in[a.To]++
		}
		for v := 0; v < n; v++ {
			if in[v] != out[v] {
				return false
			}
		}
		return len(arcs) == g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestHashDistinguishes(t *testing.T) {
	a := ringGraph(t, 8)
	bld := NewBuilder(8)
	for i := 0; i < 8; i++ {
		bld.MustAddEdge(i, (i+2)%8)
	}
	b := bld.Build()
	if a.Hash() == b.Hash() {
		t.Error("distinct graphs hash equal (unlikely collision)")
	}
}

func TestStringer(t *testing.T) {
	s := ringGraph(t, 4).String()
	if s == "" {
		t.Error("empty String()")
	}
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Build()
	if g.N() != 0 || g.M() != 0 || g.MaxDegree() != 0 || g.MinDegree() != 0 {
		t.Error("empty graph accessors wrong")
	}
	if !g.IsConnected() {
		t.Error("empty graph should be connected by convention")
	}
	if g.Diameter() != -1 {
		t.Error("empty diameter should be -1")
	}
}

func TestGraphJSONRoundTrip(t *testing.T) {
	g := ringGraph(t, 9)
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(back) {
		t.Error("round trip changed the graph")
	}
}

func TestGraphJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("nope")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadJSON(strings.NewReader(`{"n":-2}`)); err == nil {
		t.Error("negative n accepted")
	}
	if _, err := ReadJSON(strings.NewReader(`{"n":2,"edges":[[0,9]]}`)); err == nil {
		t.Error("bad edge accepted")
	}
	if _, err := ReadJSON(strings.NewReader(`{"n":2,"edges":[[1,1]]}`)); err == nil {
		t.Error("self loop accepted")
	}
}

// TestReadJSONRejectsCraftedVertexCounts: a count above the decoder cap is
// an error before anything is allocated for it. Before CheckVertexCount,
// {"n":1099511627776} ran the process out of memory.
func TestReadJSONRejectsCraftedVertexCounts(t *testing.T) {
	for _, data := range []string{`{"n":1099511627776}`, `{"n":16777217}`, `{"n":-1}`} {
		if _, err := ReadJSON(strings.NewReader(data)); err == nil {
			t.Errorf("ReadJSON accepted %s", data)
		}
	}
	for n, ok := range map[int]bool{-1: false, 0: true, 1 << 24: true, 1<<24 + 1: false, 1 << 40: false} {
		if err := CheckVertexCount(n); (err == nil) != ok {
			t.Errorf("CheckVertexCount(%d) = %v", n, err)
		}
	}
}

func TestBuilderAccessors(t *testing.T) {
	b := NewBuilder(5)
	if b.N() != 5 {
		t.Errorf("N = %d", b.N())
	}
	b.MustAddEdge(0, 1)
	if b.Degree(0) != 1 || b.Degree(2) != 0 {
		t.Error("builder degrees wrong")
	}
	g := b.Build()
	if len(g.Neighbors(0)) != 1 || g.Neighbors(0)[0] != 1 {
		t.Errorf("Neighbors(0) = %v", g.Neighbors(0))
	}
	defer func() {
		if recover() == nil {
			t.Error("MustAddEdge on bad edge did not panic")
		}
	}()
	b.MustAddEdge(0, 9)
}

func TestNewBuilderNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewBuilder(-1) did not panic")
		}
	}()
	NewBuilder(-1)
}
