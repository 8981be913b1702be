package universal

import (
	"math/rand"
	"testing"

	"universalnet/internal/routing"
	"universalnet/internal/sim"
	"universalnet/internal/topology"
)

func TestNewBenesHost(t *testing.T) {
	bh, err := NewBenesHost(3)
	if err != nil {
		t.Fatal(err)
	}
	if bh.Rows != 8 {
		t.Errorf("rows = %d", bh.Rows)
	}
	if err := bh.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	if !bh.Graph.IsConnected() {
		t.Error("Beneš host disconnected")
	}
	if bh.Graph.MaxDegree() > 5 {
		t.Errorf("max degree %d not constant-small", bh.Graph.MaxDegree())
	}
	if bh.GuestNode(3) != routing.BenesNode(3, 0, 3) {
		t.Error("guest node mapping wrong")
	}
	f := bh.Assignment(20)
	for i, q := range f {
		if q != bh.GuestNode(i%8) {
			t.Errorf("assignment[%d] = %d", i, q)
		}
	}
}

func TestOfflineBenesRouterDeterministic(t *testing.T) {
	d := 4
	bh, err := NewBenesHost(d)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	// A random h–h relation between level-0 rows, h = 3.
	var pairs []routing.Pair
	for k := 0; k < 3; k++ {
		perm := rng.Perm(bh.Rows)
		for s, dd := range perm {
			pairs = append(pairs, routing.Pair{Src: bh.GuestNode(s), Dst: bh.GuestNode(dd)})
		}
	}
	p := &routing.Problem{N: bh.Graph.N(), Pairs: pairs}
	res1, err := bh.Router.Route(bh.Graph, p)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := bh.Router.Route(bh.Graph, p)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Steps != res2.Steps {
		t.Error("offline routing not deterministic")
	}
	// Pipelined: steps = (rounds−1) + 2d with rounds ≤ h.
	if res1.StepsPerPhase[0] > 3 {
		t.Errorf("rounds = %d > h", res1.StepsPerPhase[0])
	}
	if res1.Steps != res1.StepsPerPhase[0]-1+2*d {
		t.Errorf("steps %d ≠ rounds−1+2d = %d", res1.Steps, res1.StepsPerPhase[0]-1+2*d)
	}
}

func TestOfflineBenesRouterRejectsNonLevel0(t *testing.T) {
	bh, err := NewBenesHost(3)
	if err != nil {
		t.Fatal(err)
	}
	p := &routing.Problem{N: bh.Graph.N(), Pairs: []routing.Pair{{Src: bh.Graph.N() - 1, Dst: 0}}}
	if _, err := bh.Router.Route(bh.Graph, p); err == nil {
		t.Error("non-level-0 endpoint accepted")
	}
	wrong, err := topology.Ring(12)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bh.Router.Route(wrong, &routing.Problem{N: 12}); err == nil {
		t.Error("wrong graph accepted")
	}
}

func TestBenesHostEndToEndSimulation(t *testing.T) {
	// The full Theorem 2.1 construction: guest on the Beneš host with
	// deterministic offline routing, trace-verified.
	d := 4
	bh, err := NewBenesHost(d)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	n := 64 // load 4 on 16 rows
	guest, err := topology.RandomGuest(rng, n, 4)
	if err != nil {
		t.Fatal(err)
	}
	comp := sim.MixMod(guest, rng)
	es := &EmbeddingSimulator{Host: &bh.Host, F: bh.Assignment(n)}
	rep, err := es.Run(comp, 3)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := comp.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace.Checksum() != direct.Checksum() {
		t.Fatal("Beneš-host simulation diverged")
	}
	// Routing cost per guest step is identical every step (fixed relation,
	// offline schedule): RouteSteps divisible by guest steps.
	if rep.RouteSteps%3 != 0 {
		t.Errorf("route steps %d not uniform across 3 guest steps", rep.RouteSteps)
	}
	// Pipelined per-step cost ≥ 2d (one traversal) and deterministic.
	perStep := rep.RouteSteps / 3
	if perStep < 2*d {
		t.Errorf("per-step routing %d below one Beneš traversal 2d=%d", perStep, 2*d)
	}
}

func TestObliviousOnBenesHostOffline(t *testing.T) {
	// §2 distinguishes offline (fixed relations) from online (complete
	// network); the offline Beneš machinery still APPLIES per round to a
	// fresh permutation — Waksman is constructive for any permutation — it
	// just cannot be precomputed. Deterministic steps per round: 2d (one
	// permutation, one pipeline pass).
	d := 3
	bh, err := NewBenesHost(d)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	n := bh.Rows // one guest per row: oblivious rounds are row permutations
	init := sim.RandomInit(n, rng)
	pattern := RandomObliviousPattern(rng, n, 4)
	direct, err := DirectObliviousRun(init, pattern)
	if err != nil {
		t.Fatal(err)
	}
	es := &EmbeddingSimulator{Host: &bh.Host, F: bh.Assignment(n)}
	rep, err := es.RunOblivious(init, pattern)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace.Checksum() != direct.Checksum() {
		t.Fatal("oblivious run on the Beneš host diverged")
	}
	// Each round is one (partial) permutation → exactly 2d steps.
	perRound := rep.RouteSteps / len(pattern)
	if perRound != 2*d {
		t.Errorf("per-round routing %d, want 2d = %d", perRound, 2*d)
	}
}
