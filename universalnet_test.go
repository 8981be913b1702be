package universalnet

import (
	"math/rand"
	"testing"
)

// The facade tests exercise the public API end to end, the way a downstream
// user would: build a guest, build a host, simulate, measure, and compare
// against the paper's bounds.

func TestFacadeEndToEndSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	guest, err := RandomGuest(rng, 96, 4)
	if err != nil {
		t.Fatal(err)
	}
	comp := MixMod(guest, rng)

	host, err := ButterflyHost(4) // m = 64 < n = 96
	if err != nil {
		t.Fatal(err)
	}
	rep, err := (&EmbeddingSimulator{Host: host}).Run(comp, 5)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := comp.Run(5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace.Checksum() != direct.Checksum() {
		t.Fatal("simulation diverged from direct execution")
	}
	// The measured slowdown respects the Theorem 2.1 asymptotic shape.
	upper := UpperBoundSlowdown(96, 64, 20) // generous constant
	if rep.Slowdown > upper {
		t.Errorf("slowdown %.1f exceeds generous upper envelope %.1f", rep.Slowdown, upper)
	}
}

func TestFacadePebbleProtocol(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	guest, err := RandomGuest(rng, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	host, err := WrappedButterfly(3)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := BuildEmbeddingProtocol(guest, host, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	st, err := pr.Validate()
	if err != nil {
		t.Fatal(err)
	}
	frag, err := st.ExtractFragment(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := frag.Validate(); err != nil {
		t.Fatal(err)
	}
	// m·s vs n·k bookkeeping: k = s·m/n exactly.
	k := pr.Inefficiency()
	s := pr.Slowdown()
	if diff := k - s*float64(host.N())/float64(guest.N()); diff > 1e-9 || diff < -1e-9 {
		t.Errorf("inefficiency bookkeeping off by %g", diff)
	}
}

func TestFacadeLowerBoundAPI(t *testing.T) {
	p := PaperParams()
	k, err := p.MinInefficiency(1<<16, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	if k < 1 {
		t.Errorf("k = %f below 1", k)
	}
	toy := ToyParams()
	rows, err := toy.TradeoffTable(1<<16, []int{1 << 8, 1 << 12, 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	// m·s lower bound must not decrease as hosts shrink relative to n·log m.
	for _, r := range rows {
		if r.ProductMS < float64(r.N) { // s ≥ 1 and k ≥ 1 imply m·s ≥ ... at least n when m ≤ n·s
			if r.M < r.N {
				t.Errorf("m·s = %f below n for m=%d", r.ProductMS, r.M)
			}
		}
	}
}

func TestFacadeG0AndTrees(t *testing.T) {
	n := NextValidG0Size(100, 4)
	g0, err := BuildG0(n, 1<<4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := g0.Validate(); err != nil {
		t.Fatal(err)
	}
	depth := TreeDepth(g0.BlockSide)
	tree, err := BuildDependencyTree(g0, g0.Blocks[0].Vertices[0], depth)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(g0.Multitorus, 2); err != nil {
		t.Fatal(err)
	}
	cert, err := CertifyExpansion(g0.Expander, 0.25, 100, 200, 9)
	if err != nil {
		t.Fatal(err)
	}
	if cert.Lambda2 >= 1 {
		t.Errorf("expander overlay has no spectral gap: %f", cert.Lambda2)
	}
}

func TestFacadeTreeCachedHost(t *testing.T) {
	h, err := BuildTreeCachedHost(8, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	guest, err := RandomGuest(rand.New(rand.NewSource(3)), 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := h.SimulateProtocol(guest)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pr.Validate(); err != nil {
		t.Fatal(err)
	}
	if pr.Slowdown() != 4 { // c+2
		t.Errorf("slowdown %f, want 4", pr.Slowdown())
	}
}

func TestFacadeRouting(t *testing.T) {
	g, err := Torus(64)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	perm := rng.Perm(64)
	pairs := make([]RoutingPair, 64)
	for i, d := range perm {
		pairs[i] = RoutingPair{Src: i, Dst: d}
	}
	res, err := (&GreedyRouter{}).Route(g, &RoutingProblem{N: 64, Pairs: pairs})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 64 {
		t.Errorf("delivered %d/64", res.Delivered)
	}
	rounds, err := DecomposeHRelation(64, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 1 {
		t.Errorf("permutation decomposed into %d rounds", len(rounds))
	}
	if _, err := OfflinePermutationSteps(6, perm); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeNewTopologiesAndRouting(t *testing.T) {
	if g, err := MeshOfTrees(4); err != nil || !g.IsConnected() {
		t.Errorf("MeshOfTrees: %v", err)
	}
	if g, err := Torus3D(3); err != nil || !g.IsRegular(6) {
		t.Errorf("Torus3D: %v", err)
	}
	if g, err := XTree(3); err != nil || !g.IsConnected() {
		t.Errorf("XTree: %v", err)
	}
	if g, err := Kautz(2, 2); err != nil || g.N() != 12 {
		t.Errorf("Kautz: %v", err)
	}
	// Routing lower bound on a path.
	pathHost := NewGraphBuilder(8)
	for i := 0; i < 7; i++ {
		pathHost.MustAddEdge(i, i+1)
	}
	g := pathHost.Build()
	perm := rand.New(rand.NewSource(5)).Perm(8)
	pairs := make([]RoutingPair, 8)
	for i, d := range perm {
		pairs[i] = RoutingPair{Src: i, Dst: d}
	}
	if lb, err := RoutingLowerBound(g, &RoutingProblem{N: 8, Pairs: pairs}); err != nil || lb < 1 {
		t.Errorf("routing lower bound: %v %d", err, lb)
	}
}

func TestFacadeObliviousAndCounting(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pattern := RandomObliviousPattern(rng, 16, 3)
	init := make([]State, 16)
	for i := range init {
		init[i] = State(rng.Uint64())
	}
	direct, err := DirectObliviousRun(init, pattern)
	if err != nil {
		t.Fatal(err)
	}
	host, err := ExpanderHost(8, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := (&EmbeddingSimulator{Host: host}).RunOblivious(init, pattern)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace.Checksum() != direct.Checksum() {
		t.Error("oblivious simulation diverged")
	}
	cnt, err := CountRegularGraphsExact(6, 3)
	if err != nil || cnt.Int64() != 70 {
		t.Errorf("count = %v, %v", cnt, err)
	}
	ring := NewGraphBuilder(8)
	for i := 0; i < 8; i++ {
		ring.MustAddEdge(i, (i+1)%8)
	}
	h, _, err := ExactConductance(ring.Build())
	if err != nil || h != 0.25 {
		t.Errorf("conductance = %f, %v", h, err)
	}
	lo, hi := CheegerBounds(0.5)
	if lo <= 0 || hi <= lo {
		t.Errorf("Cheeger bounds %f %f", lo, hi)
	}
}

func TestFacadeEmbeddingAndBuilders(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	guest, err := RandomGuest(rng, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	host, err := WrappedButterfly(3)
	if err != nil {
		t.Fatal(err)
	}
	emb, err := GreedyEmbedding(guest, host, rng)
	if err != nil {
		t.Fatal(err)
	}
	if emb.Dilation() < 1 || emb.Load() < 1 {
		t.Errorf("embedding degenerate: %+v", emb)
	}
	pr, err := BuildPipelinedProtocol(guest, host, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pr.Validate(); err != nil {
		t.Fatal(err)
	}
	rp, err := RandomPebbleProtocol(guest, host, 2, rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rp.Validate(); err != nil {
		t.Fatal(err)
	}
}
