package pebble

import (
	"math/rand"
	"testing"

	"universalnet/internal/depgraph"
	"universalnet/internal/topology"
)

// Direct unit tests of the Lemma 3.12 machinery (ComputeLemmaWeights,
// CriticalTimes, ChooseRoots) on a small 𝒰[G₀] instance — the experiments
// package exercises them end to end; here we pin the local invariants.

func lemmaFixture(t *testing.T) (*topology.G0, *State, *Protocol) {
	t.Helper()
	g0, err := topology.BuildG0WithBlockSide(64, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	guest, err := g0.SampleGuest(rng, 16)
	if err != nil {
		t.Fatal(err)
	}
	host, err := topology.Ring(8)
	if err != nil {
		t.Fatal(err)
	}
	D := depgraph.TreeDepth(g0.BlockSide)
	pr, err := BuildEmbeddingProtocol(guest, host, nil, D+6)
	if err != nil {
		t.Fatal(err)
	}
	st, err := pr.Validate()
	if err != nil {
		t.Fatal(err)
	}
	return g0, st, pr
}

func TestComputeLemmaWeights(t *testing.T) {
	g0, st, pr := lemmaFixture(t)
	lw, err := st.ComputeLemmaWeights(g0)
	if err != nil {
		t.Fatal(err)
	}
	if lw.D != depgraph.TreeDepth(4) {
		t.Errorf("D = %d", lw.D)
	}
	if lw.TreeSize <= 0 || lw.TreeSize > 48*g0.A*g0.A {
		t.Errorf("tree size %d outside (0, 48a²]", lw.TreeSize)
	}
	// Σ_t SumQ[t] for t ≥ 1 must equal TotalQ.
	sum := 0
	for tt := 1; tt <= pr.T; tt++ {
		sum += lw.SumQ[tt]
	}
	if sum != lw.TotalQ {
		t.Errorf("TotalQ %d ≠ Σ SumQ %d", lw.TotalQ, sum)
	}
	// TotalQ bounded by pebble placements.
	if lw.TotalQ > st.PebbleCount() {
		t.Errorf("TotalQ %d exceeds pebble count %d", lw.TotalQ, st.PebbleCount())
	}
	// Tree weights: w_{i,t} ≥ q at every tree node; per-step SumW positive
	// for t ≥ D.
	for tt := lw.D; tt <= pr.T; tt++ {
		if lw.SumW[tt] <= 0 {
			t.Errorf("SumW[%d] = %d", tt, lw.SumW[tt])
		}
	}
	// Too-short horizon errors.
	short, err2 := BuildEmbeddingProtocol(st.guest, st.host, nil, 2)
	if err2 != nil {
		t.Fatal(err2)
	}
	stShort, err2 := short.Validate()
	if err2 != nil {
		t.Fatal(err2)
	}
	if _, err := stShort.ComputeLemmaWeights(g0); err == nil {
		t.Error("short horizon accepted")
	}
}

func TestCriticalTimesGuarantee(t *testing.T) {
	g0, st, pr := lemmaFixture(t)
	lw, err := st.ComputeLemmaWeights(g0)
	if err != nil {
		t.Fatal(err)
	}
	z := lw.CriticalTimes(pr.T)
	if len(z) < (pr.T-lw.D)/2 {
		t.Errorf("|Z_S| = %d below the Markov guarantee %d", len(z), (pr.T-lw.D)/2)
	}
	for _, t0 := range z {
		if t0 <= lw.D || t0 > pr.T {
			t.Errorf("critical time %d outside (D, T]", t0)
		}
	}
	// Degenerate horizon: no critical times.
	if got := lw.CriticalTimes(lw.D); got != nil {
		t.Errorf("T = D returned %v", got)
	}
}

func TestChooseRootsProperties(t *testing.T) {
	g0, st, pr := lemmaFixture(t)
	lw, err := st.ComputeLemmaWeights(g0)
	if err != nil {
		t.Fatal(err)
	}
	z := lw.CriticalTimes(pr.T)
	if len(z) == 0 {
		t.Fatal("no critical times")
	}
	t0 := z[0]
	roots, err := st.ChooseRoots(g0, lw, t0)
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) != g0.H() {
		t.Fatalf("got %d roots for %d blocks", len(roots), g0.H())
	}
	// One root per block, inside its block.
	for bi, r := range roots {
		if topology.BlockOf(g0.Blocks, r) != bi {
			t.Errorf("root %d not in block %d", r, bi)
		}
	}
	// The chosen roots avoid the top quarter by the Markov property:
	// q_{r_j, t0−D} ≤ 4·avg over the block.
	for bi, r := range roots {
		sum := 0
		for _, v := range g0.Blocks[bi].Vertices {
			sum += st.Weight(v, t0-lw.D)
		}
		avg := float64(sum) / float64(len(g0.Blocks[bi].Vertices))
		if float64(st.Weight(r, t0-lw.D)) > 4*avg+1e-9 {
			t.Errorf("root %d weight %d above 4·avg %.2f", r, st.Weight(r, t0-lw.D), avg)
		}
	}
	// Out-of-range t0 rejected.
	if _, err := st.ChooseRoots(g0, lw, lw.D); err == nil {
		t.Error("t0 = D accepted")
	}
}

func TestTreeWeightMatchesManualSum(t *testing.T) {
	g0, st, _ := lemmaFixture(t)
	D := depgraph.TreeDepth(g0.BlockSide)
	tree, err := depgraph.BuildDependencyTree(g0, g0.Blocks[0].Vertices[0], D)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, nd := range tree.Nodes() {
		want += st.Weight(nd.P, nd.T)
	}
	if got := st.TreeWeight(tree); got != want {
		t.Errorf("TreeWeight = %d, want %d", got, want)
	}
}

func TestPickersAndHelpers(t *testing.T) {
	if PickFirst(3, []int{7, 8, 9}) != 0 {
		t.Error("PickFirst not 0")
	}
	if topQuarterSet([]vertexWeight{{v: 1, weight: 5}, {v: 2, weight: 9}, {v: 3, weight: 1}, {v: 4, weight: 7}}, 1)[2] != true {
		t.Error("topQuarterSet missed the heaviest vertex")
	}
}

func TestLemma313Part2OnRealProtocol(t *testing.T) {
	// Σ_i q_{i,t₀} ≤ 384·n·k at critical times (Lemma 3.13(2)) — on a real
	// protocol, with plenty of slack since our k is large.
	g0, st, pr := lemmaFixture(t)
	lw, err := st.ComputeLemmaWeights(g0)
	if err != nil {
		t.Fatal(err)
	}
	k := pr.Inefficiency()
	n := float64(pr.Guest.N())
	for _, t0 := range lw.CriticalTimes(pr.T) {
		if float64(lw.SumQ[t0]) > 384*n*k {
			t.Errorf("t0=%d: Σq = %d > 384·n·k = %.1f", t0, lw.SumQ[t0], 384*n*k)
		}
	}
	// Global budget: ΣΣ q ≤ n·k·T (= T'·m).
	if float64(lw.TotalQ) > k*n*float64(pr.T)+1e-6 {
		t.Errorf("ΣΣq = %d exceeds n·k·T = %.1f", lw.TotalQ, k*n*float64(pr.T))
	}
}
