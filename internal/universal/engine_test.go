package universal

import (
	"math/rand"
	"slices"
	"testing"

	"universalnet/internal/graph"
	"universalnet/internal/routing"
	"universalnet/internal/sim"
	"universalnet/internal/topology"
)

// recordingRouter routes through inner and keeps a copy of every problem
// it is asked to route.
type recordingRouter struct {
	inner    routing.Router
	problems [][]routing.Pair
}

func (r *recordingRouter) Route(g *graph.Graph, p *routing.Problem) (routing.Result, error) {
	r.problems = append(r.problems, slices.Clone(p.Pairs))
	return r.inner.Route(g, p)
}

func (r *recordingRouter) Name() string { return "recording(" + r.inner.Name() + ")" }

// TestSingleReplicaRunsMatchEmbedding: a fault-free FaultTolerantSimulator
// run with one replica per guest is the EmbeddingSimulator run of the same
// assignment. Both route the same relation, once, and report the same
// costs and trace.
func TestSingleReplicaRunsMatchEmbedding(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	guest, err := topology.RandomGuest(rng, 40, 4)
	if err != nil {
		t.Fatal(err)
	}
	comp := sim.MixMod(guest, rng)
	g, err := topology.Torus(16)
	if err != nil {
		t.Fatal(err)
	}
	// A non-balanced assignment: guests in blocks of three, host 15 empty.
	f := make([]int, 40)
	reps := make([][]int, 40)
	for i := range f {
		f[i] = (i / 3) % 15
		reps[i] = []int{f[i]}
	}
	esRouter := &recordingRouter{inner: &routing.GreedyRouter{Mode: routing.MultiPort}}
	ftRouter := &recordingRouter{inner: &routing.GreedyRouter{Mode: routing.MultiPort}}
	es, err := (&EmbeddingSimulator{Host: &Host{Graph: g, Router: esRouter}, F: f}).Run(comp, 4)
	if err != nil {
		t.Fatal(err)
	}
	ft, err := (&FaultTolerantSimulator{Host: &Host{Graph: g, Router: ftRouter}, Replicas: reps}).Run(comp, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(esRouter.problems) != 1 || len(ftRouter.problems) != 1 {
		t.Fatalf("router calls: embedding %d, fault-tolerant %d; want 1 each",
			len(esRouter.problems), len(ftRouter.problems))
	}
	if !slices.Equal(esRouter.problems[0], ftRouter.problems[0]) {
		t.Errorf("routed problems differ: embedding %d pairs, fault-tolerant %d",
			len(esRouter.problems[0]), len(ftRouter.problems[0]))
	}
	got := ft.RunReport
	got.Trace = es.Trace
	if got != *es {
		t.Errorf("fault-tolerant report %+v, embedding report %+v", got, *es)
	}
	if ft.Trace.Checksum() != es.Trace.Checksum() {
		t.Error("trace checksums differ")
	}
	if ft.MaxLoad != 3 {
		t.Errorf("max load %d, want 3", ft.MaxLoad)
	}
}

// TestReplicatedRunRoutesDistinctNeeds: a replicated fault-free run ships
// guest i's configuration once to each host that holds a replica of a
// neighbour of i but none of i, and routes that relation once. The
// instance is E16's m ≤ n, r = 4 row at the report's seed 7 (the derived
// seed below): 497 distinct needs, where one fetch per neighbouring
// replica would route 644 packets.
func TestReplicatedRunRoutesDistinctNeeds(t *testing.T) {
	const seed = 4262006135279282052 // experiments.Config{Seed: 7}.SeedFor("E16")
	rng := rand.New(rand.NewSource(seed))
	guest, err := topology.RandomGuest(rng, 48, 4)
	if err != nil {
		t.Fatal(err)
	}
	comp := sim.MixMod(guest, rng)
	host, err := ButterflyHost(3) // m = 24
	if err != nil {
		t.Fatal(err)
	}
	reps, err := PlaceReplicas(48, 24, 4, rand.New(rand.NewSource(seed+4)))
	if err != nil {
		t.Fatal(err)
	}
	type need struct{ guest, host int }
	needs := make(map[need]bool)
	for i := 0; i < 48; i++ {
		for _, j := range guest.Neighbors(i) {
			for _, q := range reps[j] {
				if !slices.Contains(reps[i], q) {
					needs[need{i, q}] = true
				}
			}
		}
	}
	if len(needs) != 497 {
		t.Fatalf("instance has %d distinct needs, want 497", len(needs))
	}
	rec := &recordingRouter{inner: host.Router}
	host.Router = rec
	rep, err := (&FaultTolerantSimulator{Host: host, Replicas: reps}).Run(comp, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.problems) != 1 {
		t.Fatalf("router called %d times in a 3-step run, want once", len(rec.problems))
	}
	if got := len(rec.problems[0]); got != len(needs) {
		t.Errorf("routed %d packets, want %d distinct needs", got, len(needs))
	}
	direct, err := comp.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace.Checksum() != direct.Checksum() {
		t.Error("replicated trace diverged from direct execution")
	}
}

// TestComputeAtChecksMemoryTimes: a replica computes from its host's memory
// only when the host holds its guest and every neighbour for the step
// before; a stale or unknown cell is the engine's error, not an input.
func TestComputeAtChecksMemoryTimes(t *testing.T) {
	b := graph.NewBuilder(3)
	b.MustAddEdge(0, 1)
	b.MustAddEdge(1, 2)
	sum := func(i int, self sim.State, nbrs []sim.State) sim.State {
		for _, s := range nbrs {
			self = 10*self + s
		}
		return self
	}
	c, err := sim.NewComputation(b.Build(), []sim.State{5, 7, 9}, sum, "sum")
	if err != nil {
		t.Fatal(err)
	}
	nbuf := make([]sim.State, 0, 2)
	// Every cell holds guest time 1 (t+1 = 2), as step 2 reads them.
	local := []memCell{{5, 2}, {7, 2}, {9, 2}}
	if s, err := computeAt(c, local, 4, 1, 2, nbuf); err != nil || s != 759 {
		t.Fatalf("computeAt = %d, %v; want 759, nil", s, err)
	}
	for _, tc := range []struct {
		cell int
		t1   int
		want string
	}{
		{2, 1, "universal: host 4 computing guest 1 lacks neighbor 2 at t=1"},
		{0, 0, "universal: host 4 computing guest 1 lacks neighbor 0 at t=1"},
		{1, 3, "universal: host 4 missing own guest 1 at t=1"},
		{1, 0, "universal: host 4 missing own guest 1 at t=1"},
	} {
		bad := slices.Clone(local)
		bad[tc.cell].t1 = tc.t1
		if _, err := computeAt(c, bad, 4, 1, 2, nbuf); err == nil || err.Error() != tc.want {
			t.Errorf("cell %d at t+1=%d: error %v, want %q", tc.cell, tc.t1, err, tc.want)
		}
	}
}
