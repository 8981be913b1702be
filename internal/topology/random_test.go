package topology

import (
	"math/rand"
	"testing"

	"universalnet/internal/graph"
)

// TestGeneratorHashPins pins the adjacency hash of graphs built through
// graph.Builder: random guests of both degrees the experiments use, a
// degree sequence realized around a G₀ it must avoid, and a dense graph.
// A change to how the builder finds duplicate edges, or to the order of the
// generators' random draws, shows here as a changed hash.
func TestGeneratorHashPins(t *testing.T) {
	g0, err := BuildG0WithBlockSide(256, 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	residual := make([]int, g0.N)
	for v := range residual {
		residual[v] = 16 - g0.Graph.Degree(v)
	}
	cases := []struct {
		name  string
		want  uint64
		build func() (*graph.Graph, error)
	}{
		{"RandomGuest(1e4,3,seed1)", 0x4c08031393984049, func() (*graph.Graph, error) {
			return RandomGuest(rand.New(rand.NewSource(1)), 10000, 3)
		}},
		{"RandomGuest(1e4,16,seed2)", 0xa364ada295c44738, func() (*graph.Graph, error) {
			return RandomGuest(rand.New(rand.NewSource(2)), 10000, 16)
		}},
		{"RandomGuest(2000,4,seed3)", 0x5dced56970494dc8, func() (*graph.Graph, error) {
			return RandomGuest(rand.New(rand.NewSource(3)), 2000, 4)
		}},
		{"G0(256,4,seed42)", 0xf5d9e0f0da9db1e2, func() (*graph.Graph, error) {
			return g0.Graph, nil
		}},
		{"RandomWithDegreeSequence(16-deg,G0,seed6)", 0xeaf4a8b35f759eba, func() (*graph.Graph, error) {
			return RandomWithDegreeSequence(rand.New(rand.NewSource(6)), residual, g0.Graph)
		}},
		{"Complete(300)", 0xa884d6057ad23e2d, func() (*graph.Graph, error) {
			return Complete(300)
		}},
	}
	for _, tc := range cases {
		g, err := tc.build()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := g.Hash(); got != tc.want {
			t.Errorf("%s: hash %016x, want %016x", tc.name, got, tc.want)
		}
	}
}

// TestRandomGuestAllocs bounds a 10⁴-vertex guest at a constant number of
// allocations (12 when written): a stub-matching pass allocates its stubs,
// slots, fill counts and edge list once each, and FromEdges packs the rows
// in one go. An edge-set map, or a list allocated per vertex, costs
// thousands.
func TestRandomGuestAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := RandomGuest(rand.New(rand.NewSource(1)), 10000, 3); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 24 {
		t.Errorf("RandomGuest(10⁴, 3) made %v allocations, want at most 24", allocs)
	}
}
