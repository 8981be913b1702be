package routing

import (
	"fmt"
	"math/rand"
	"testing"

	"universalnet/internal/graph"
	"universalnet/internal/topology"
)

// guestRelation is the ⌈n/m⌉–⌈n/m⌉ relation a Theorem 2.1 simulation routes
// every guest step: each guest ships its state once to every other host
// that holds one of its neighbors, under the placement i mod m.
func guestRelation(guest *graph.Graph, m int) *Problem {
	var pairs []Pair
	shipped := make([]int, m)
	for i := 0; i < guest.N(); i++ {
		shipped[i%m] = i + 1
		for _, j := range guest.Neighbors(i) {
			if shipped[j%m] != i+1 {
				shipped[j%m] = i + 1
				pairs = append(pairs, Pair{Src: i % m, Dst: j % m})
			}
		}
	}
	return &Problem{N: m, Pairs: pairs}
}

// BenchmarkRoutePackets times the packet loop on the shape a simulation
// miss routes: the relation of a 1024-guest, degree-4 random guest placed
// i mod m on a 64-processor host, routed with no schedule cache, by
// dimension-order on the 8×8 torus and greedily on a 4-regular random host
// and on ccc(4), in both port modes. ring/multi-port is the regime where
// few waiting packets move: a random 64–64 problem routed greedily on a
// 128-node ring (TestRingRouteResultPin's instance).
func BenchmarkRoutePackets(b *testing.B) {
	guest, err := topology.RandomGuest(rand.New(rand.NewSource(1)), 1024, 4)
	if err != nil {
		b.Fatal(err)
	}
	torus, err := topology.Torus(64)
	if err != nil {
		b.Fatal(err)
	}
	expander, err := topology.RandomRegular(rand.New(rand.NewSource(1)), 64, 4)
	if err != nil {
		b.Fatal(err)
	}
	if !expander.IsConnected() {
		b.Fatal("expander host is disconnected")
	}
	ccc, err := topology.CubeConnectedCycles(4)
	if err != nil {
		b.Fatal(err)
	}
	ring, err := topology.Ring(128)
	if err != nil {
		b.Fatal(err)
	}
	both := []PortMode{MultiPort, SinglePort}
	greedy := func(mode PortMode) Router { return &GreedyRouter{Mode: mode} }
	hosts := []struct {
		name   string
		g      *graph.Graph
		p      *Problem
		modes  []PortMode
		router func(PortMode) Router
	}{
		{"torus", torus, guestRelation(guest, torus.N()), both,
			func(mode PortMode) Router { return &DimensionOrderRouter{N: 8, Wrap: true, Mode: mode} }},
		{"expander", expander, guestRelation(guest, expander.N()), both, greedy},
		{"ccc", ccc, guestRelation(guest, ccc.N()), both, greedy},
		{"ring", ring, RandomHH(rand.New(rand.NewSource(1)), ring.N(), 64), []PortMode{MultiPort}, greedy},
	}
	for _, h := range hosts {
		p := h.p
		for _, mode := range h.modes {
			r := h.router(mode)
			b.Run(fmt.Sprintf("%s/%s", h.name, mode), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := r.Route(h.g, p)
					if err != nil {
						b.Fatal(err)
					}
					if res.Delivered != len(p.Pairs) {
						b.Fatalf("delivered %d of %d packets", res.Delivered, len(p.Pairs))
					}
				}
			})
		}
	}
}
