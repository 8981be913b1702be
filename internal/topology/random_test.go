package topology

import (
	"fmt"
	"math/rand"
	"strings"
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
		{"RandomWithDegreeSequence(2,K40-C40,seed1)", 0x93e8f56978d0252d, func() (*graph.Graph, error) {
			return cycleOnly(2, 5285103754982433312)
		}},
		{"RandomWithDegreeSequence(1,K40-C40,seed1)", 0x72e66306f1cd8a05, func() (*graph.Graph, error) {
			return cycleOnly(1, 1563227115034091217)
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

// cycleOnly realizes degree d at each of 40 vertices while avoiding every
// edge of K₄₀ except the cycle 0–1–…–39–0, from seed 1. Nearly every random
// pair conflicts there, so the pass reaches the exhaustive scan: at d = 2 it
// places 4 pairs there, and at d = 1 it dead-ends and restarts 62 times. It
// fails unless the draw after the call is next, which pins how many draws
// the passes consumed.
func cycleOnly(d int, next int64) (*graph.Graph, error) {
	const n = 40
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 2; v < n; v++ {
			if u != 0 || v != n-1 {
				b.MustAddEdge(u, v)
			}
		}
	}
	seq := make([]int, n)
	for v := range seq {
		seq[v] = d
	}
	rng := rand.New(rand.NewSource(1))
	g, err := RandomWithDegreeSequence(rng, seq, b.Build())
	if err != nil {
		return nil, err
	}
	if got := rng.Int63(); got != next {
		return nil, fmt.Errorf("next draw %d, want %d", got, next)
	}
	return g, nil
}

// TestDegreeSumOverInt32Refused checks that a degree sum of 2³¹ or more,
// past the stub matcher's int32 block offsets, is refused before the
// matcher allocates its stubs (8 GiB here): 46,342 vertices of degree
// 46,341 sum to 2,147,534,622. Only the error allocates.
func TestDegreeSumOverInt32Refused(t *testing.T) {
	seq := make([]int, 46342)
	for v := range seq {
		seq[v] = 46341
	}
	rng := rand.New(rand.NewSource(1))
	var err error
	allocs := testing.AllocsPerRun(1, func() {
		_, err = RandomWithDegreeSequence(rng, seq, nil)
	})
	if err == nil || !strings.Contains(err.Error(), "degree sum 2147534622 on 46342 vertices") {
		t.Fatalf("error %v, want the degree sum refused", err)
	}
	if allocs > 4 {
		t.Errorf("%v allocations before the refusal, want at most 4", allocs)
	}
}

// TestRandomGuestAllocs bounds a 10⁴-vertex guest at a constant number of
// allocations (10 when written): a stub-matching pass allocates its stubs
// and its per-vertex blocks (a count beside the slots) once each, copies
// the full slots out as the graph's rows beside one offset array, and
// IsConnected allocates a bitset and a queue. An edge-set map, or a list
// allocated per vertex, costs thousands.
func TestRandomGuestAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := RandomGuest(rand.New(rand.NewSource(1)), 10000, 3); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Errorf("RandomGuest(10⁴, 3) made %v allocations, want at most 16", allocs)
	}
}
