package routing

import (
	"math/rand"
	"testing"

	"universalnet/internal/graph"
	"universalnet/internal/topology"
)

// TestRouterResultPins pins Steps, TotalHops, MaxQueue and Delivered of the
// packet-stepping routers on one random 3–3 problem on a 6×6 mesh and torus,
// in both port modes. The values are fixed: a change to link arbitration,
// single-port admission, delivery or queue accounting moves them.
func TestRouterResultPins(t *testing.T) {
	const side = 6
	routers := []struct {
		name string
		make func(wrap bool, mode PortMode) Router
	}{
		{"dimorder", func(wrap bool, mode PortMode) Router {
			return &DimensionOrderRouter{N: side, Wrap: wrap, Mode: mode}
		}},
		{"greedy", func(_ bool, mode PortMode) Router { return &GreedyRouter{Mode: mode} }},
		{"greedy-random", func(_ bool, mode PortMode) Router {
			return &GreedyRouter{Mode: mode, Policy: RandomNextHop, Seed: 5}
		}},
		{"valiant", func(_ bool, mode PortMode) Router { return &ValiantRouter{Mode: mode, Seed: 9} }},
	}
	// want[topology][mode][router] = {Steps, TotalHops, MaxQueue, Delivered}.
	want := map[bool]map[PortMode][4][4]int{
		false: {
			MultiPort:  {{11, 422, 6, 108}, {11, 422, 7, 108}, {10, 422, 7, 108}, {22, 882, 8, 108}},
			SinglePort: {{24, 422, 6, 108}, {30, 422, 7, 108}, {25, 422, 8, 108}, {50, 882, 7, 108}},
		},
		true: {
			MultiPort:  {{8, 330, 4, 108}, {11, 330, 8, 108}, {7, 330, 5, 108}, {14, 674, 8, 108}},
			SinglePort: {{16, 330, 5, 108}, {27, 330, 5, 108}, {16, 330, 5, 108}, {35, 674, 7, 108}},
		},
	}
	for _, wrap := range []bool{false, true} {
		var g *graph.Graph
		var err error
		if wrap {
			g, err = topology.Torus(side * side)
		} else {
			g, err = topology.Mesh(side * side)
		}
		if err != nil {
			t.Fatal(err)
		}
		p := RandomHH(rand.New(rand.NewSource(11)), side*side, 3)
		for _, mode := range []PortMode{MultiPort, SinglePort} {
			for ri, r := range routers {
				res, err := r.make(wrap, mode).Route(g, p)
				if err != nil {
					t.Fatalf("wrap=%v %v %s: %v", wrap, mode, r.name, err)
				}
				got := [4]int{res.Steps, res.TotalHops, res.MaxQueue, res.Delivered}
				if got != want[wrap][mode][ri] {
					t.Errorf("wrap=%v %v %s: {Steps, TotalHops, MaxQueue, Delivered} = %v, want %v",
						wrap, mode, r.name, got, want[wrap][mode][ri])
				}
			}
		}
	}
}
