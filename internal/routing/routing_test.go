package routing

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"universalnet/internal/graph"
	"universalnet/internal/obs"
	"universalnet/internal/topology"
)

func TestProblemH(t *testing.T) {
	p := &Problem{N: 4, Pairs: []Pair{{0, 1}, {0, 2}, {3, 2}}}
	if p.H() != 2 {
		t.Errorf("H = %d, want 2", p.H())
	}
	if checkPairs(2, []Pair{{0, 5}}) == nil {
		t.Error("out-of-range pair accepted")
	}
}

func TestRandomGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := RandomPermutation(rng, 16)
	if p.H() != 1 || len(p.Pairs) != 16 {
		t.Error("RandomPermutation not a permutation")
	}
	hh := RandomHH(rng, 10, 3)
	if hh.H() != 3 || len(hh.Pairs) != 30 {
		t.Errorf("RandomHH: h=%d pairs=%d", hh.H(), len(hh.Pairs))
	}
	br := BitReversal(3)
	if br.H() != 1 {
		t.Error("bit reversal not a permutation")
	}
	for _, pr := range br.Pairs {
		if pr.Src == 1 && pr.Dst != 4 {
			t.Errorf("rev(001) = %d, want 100", pr.Dst)
		}
	}
}

func TestGreedyRouterRing(t *testing.T) {
	g, err := topology.Ring(16)
	if err != nil {
		t.Fatal(err)
	}
	p := RandomPermutation(rand.New(rand.NewSource(2)), 16)
	r := &GreedyRouter{Mode: MultiPort}
	res, err := r.Route(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 16 {
		t.Errorf("delivered %d/16", res.Delivered)
	}
	if res.Steps < 1 || res.Steps > 200 {
		t.Errorf("steps = %d out of plausible range", res.Steps)
	}
}

func TestGreedyRouterSinglePortSlower(t *testing.T) {
	g, err := topology.Torus(64)
	if err != nil {
		t.Fatal(err)
	}
	p := RandomHH(rand.New(rand.NewSource(3)), 64, 4)
	multi, err := (&GreedyRouter{Mode: MultiPort}).Route(g, p)
	if err != nil {
		t.Fatal(err)
	}
	single, err := (&GreedyRouter{Mode: SinglePort}).Route(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if single.Steps < multi.Steps {
		t.Errorf("single-port %d steps faster than multi-port %d", single.Steps, multi.Steps)
	}
	if multi.Delivered != 256 || single.Delivered != 256 {
		t.Error("not all packets delivered")
	}
}

func TestGreedyRouterSelfPairs(t *testing.T) {
	g, err := topology.Ring(8)
	if err != nil {
		t.Fatal(err)
	}
	p := &Problem{N: 8, Pairs: []Pair{{3, 3}, {0, 1}}}
	res, err := (&GreedyRouter{}).Route(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 2 {
		t.Errorf("delivered %d, want 2", res.Delivered)
	}
	if res.Steps != 1 {
		t.Errorf("steps %d, want 1", res.Steps)
	}
}

func TestGreedyRouterUnreachable(t *testing.T) {
	// Two disjoint edges: 0-1 and 2-3.
	b := graph.NewBuilder(4)
	b.MustAddEdge(0, 1)
	b.MustAddEdge(2, 3)
	disc := b.Build()
	p := &Problem{N: 4, Pairs: []Pair{{0, 3}}}
	if _, err := (&GreedyRouter{}).Route(disc, p); err == nil {
		t.Error("unreachable destination accepted")
	}
}

func TestGreedyRouterSizeMismatch(t *testing.T) {
	g, _ := topology.Ring(8)
	p := &Problem{N: 4, Pairs: []Pair{{0, 1}}}
	if _, err := (&GreedyRouter{}).Route(g, p); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestValiantRouter(t *testing.T) {
	g, err := topology.Torus(64)
	if err != nil {
		t.Fatal(err)
	}
	p := BitReversal(6)
	r := &ValiantRouter{Mode: MultiPort, Seed: 7}
	res, err := r.Route(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 64 {
		t.Errorf("delivered %d/64", res.Delivered)
	}
	if len(res.StepsPerPhase) != 2 || res.StepsPerPhase[0]+res.StepsPerPhase[1] != res.Steps {
		t.Errorf("phase accounting wrong: %v vs %d", res.StepsPerPhase, res.Steps)
	}
}

func TestDimensionOrderRouterMesh(t *testing.T) {
	N := 8
	g, err := topology.Mesh(N * N)
	if err != nil {
		t.Fatal(err)
	}
	p := RandomPermutation(rand.New(rand.NewSource(4)), N*N)
	r := &DimensionOrderRouter{N: N, Wrap: false, Mode: MultiPort}
	res, err := r.Route(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != N*N {
		t.Errorf("delivered %d", res.Delivered)
	}
	// X-Y routing on an N×N mesh finishes a permutation within O(N) steps;
	// allow generous constant.
	if res.Steps > 20*N {
		t.Errorf("steps = %d too large", res.Steps)
	}
}

func TestDimensionOrderRouterTorusWrap(t *testing.T) {
	N := 6
	g, err := topology.Torus(N * N)
	if err != nil {
		t.Fatal(err)
	}
	// Single packet that should take the wrap path: (0,0) → (0,5) is 1 hop.
	p := &Problem{N: N * N, Pairs: []Pair{{0, 5}}}
	r := &DimensionOrderRouter{N: N, Wrap: true, Mode: MultiPort}
	res, err := r.Route(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 1 || res.TotalHops != 1 {
		t.Errorf("wrap routing took %d steps, %d hops; want 1, 1", res.Steps, res.TotalHops)
	}
}

func TestDimensionOrderMismatch(t *testing.T) {
	g, _ := topology.Mesh(16)
	p := &Problem{N: 16}
	r := &DimensionOrderRouter{N: 5}
	if _, err := r.Route(g, p); err == nil {
		t.Error("mismatched N accepted")
	}
}

func TestMeasureRoute(t *testing.T) {
	g, err := topology.Torus(36)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MeasureRoute(g, &GreedyRouter{Mode: MultiPort}, 2, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps <= 0 {
		t.Errorf("route_G(2) measured as %d", res.Steps)
	}
}

func TestBenesGraphStructure(t *testing.T) {
	d := 3
	g, err := BenesGraph(d)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != BenesLevels(d)*(1<<d) {
		t.Errorf("n = %d", g.N())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !g.IsConnected() {
		t.Error("Beneš graph disconnected")
	}
	if _, err := BenesGraph(0); err == nil {
		t.Error("d=0 accepted")
	}
}

func TestBenesStageBits(t *testing.T) {
	d := 4
	want := []int{0, 1, 2, 3, 2, 1, 0}
	for s, w := range want {
		if got := benesStageBit(d, s); got != w {
			t.Errorf("stage %d bit %d, want %d", s, got, w)
		}
	}
}

func TestBenesPathsIdentity(t *testing.T) {
	d := 3
	n := 1 << d
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	paths, err := BenesPaths(d, perm)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyBenesPaths(d, perm, paths); err != nil {
		t.Error(err)
	}
}

func TestBenesPathsReversal(t *testing.T) {
	d := 4
	n := 1 << d
	perm := make([]int, n)
	for i := range perm {
		perm[i] = n - 1 - i
	}
	paths, err := BenesPaths(d, perm)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyBenesPaths(d, perm, paths); err != nil {
		t.Error(err)
	}
}

func TestBenesPathsRandomPermutations(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, d := range []int{1, 2, 3, 4, 5, 6} {
		n := 1 << d
		for trial := 0; trial < 10; trial++ {
			perm := rng.Perm(n)
			paths, err := BenesPaths(d, perm)
			if err != nil {
				t.Fatalf("d=%d: %v", d, err)
			}
			if err := VerifyBenesPaths(d, perm, paths); err != nil {
				t.Fatalf("d=%d trial %d: %v", d, trial, err)
			}
		}
	}
}

// TestPathScratchReuseMatchesBenesPaths: one scratch routing permutation
// after permutation, as BuildBenesProtocol routes its decomposition rounds,
// returns each time what a fresh BenesPaths returns, so no state of one
// permutation leaks into the next.
func TestPathScratchReuseMatchesBenesPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for d := 1; d <= 6; d++ {
		ps := NewPathScratch(d)
		for trial := 0; trial < 20; trial++ {
			perm := rng.Perm(1 << d)
			got, err := ps.Paths(perm)
			if err != nil {
				t.Fatalf("d=%d trial %d: %v", d, trial, err)
			}
			want, err := BenesPaths(d, perm)
			if err != nil {
				t.Fatalf("d=%d trial %d: %v", d, trial, err)
			}
			if !slices.EqualFunc(got, want, slices.Equal[[]int]) {
				t.Fatalf("d=%d trial %d: reused scratch routed %v, fresh routing %v", d, trial, got, want)
			}
		}
	}
}

func TestBenesPathsRejectsBadPerm(t *testing.T) {
	if _, err := BenesPaths(2, []int{0, 0, 1, 2}); err == nil {
		t.Error("repeated value accepted")
	}
	if _, err := BenesPaths(2, []int{0, 1}); err == nil {
		t.Error("short permutation accepted")
	}
	if _, err := BenesPaths(2, []int{0, 1, 2, 9}); err == nil {
		t.Error("out-of-range value accepted")
	}
}

func TestOfflinePermutationSteps(t *testing.T) {
	d := 5
	perm := rand.New(rand.NewSource(6)).Perm(1 << d)
	steps, err := OfflinePermutationSteps(d, perm)
	if err != nil {
		t.Fatal(err)
	}
	if steps != 2*d-1 {
		t.Errorf("steps = %d, want %d", steps, 2*d-1)
	}
}

func TestDecomposeHRelation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct{ n, h int }{{8, 1}, {8, 2}, {16, 3}, {32, 5}} {
		p := RandomHH(rng, tc.n, tc.h)
		rounds, err := DecomposeHRelation(tc.n, p.Pairs)
		if err != nil {
			t.Fatalf("n=%d h=%d: %v", tc.n, tc.h, err)
		}
		if len(rounds) > tc.h {
			t.Errorf("n=%d h=%d: %d rounds > h", tc.n, tc.h, len(rounds))
		}
		if err := VerifyRounds(p.Pairs, rounds); err != nil {
			t.Errorf("n=%d h=%d: %v", tc.n, tc.h, err)
		}
	}
}

func TestDecomposeIrregular(t *testing.T) {
	// Unbalanced demands: node 0 sends 3, others few.
	pairs := []Pair{{0, 1}, {0, 2}, {0, 3}, {1, 1}, {2, 3}}
	rounds, err := DecomposeHRelation(5, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) > 3 {
		t.Errorf("%d rounds > h=3", len(rounds))
	}
	if err := VerifyRounds(pairs, rounds); err != nil {
		t.Error(err)
	}
}

func TestDecomposeEmpty(t *testing.T) {
	rounds, err := DecomposeHRelation(4, nil)
	if err != nil || rounds != nil {
		t.Errorf("empty decomposition: %v, %v", rounds, err)
	}
}

func TestDecomposeDuplicatePairs(t *testing.T) {
	pairs := []Pair{{1, 2}, {1, 2}}
	rounds, err := DecomposeHRelation(4, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyRounds(pairs, rounds); err != nil {
		t.Error(err)
	}
	if len(rounds) != 2 {
		t.Errorf("duplicate pair needs 2 rounds, got %d", len(rounds))
	}
}

func TestDecomposeRejectsOutOfRange(t *testing.T) {
	if _, err := DecomposeHRelation(2, []Pair{{0, 7}}); err == nil {
		t.Error("bad pair accepted")
	}
}

func TestOfflineScheduleHH(t *testing.T) {
	d := 4
	n := 1 << d
	p := RandomHH(rand.New(rand.NewSource(8)), n, 3)
	steps, rounds, err := OfflineScheduleHH(d, p)
	if err != nil {
		t.Fatal(err)
	}
	if rounds > 3 {
		t.Errorf("rounds = %d > h", rounds)
	}
	if steps != rounds*(2*d-1) {
		t.Errorf("steps = %d, want rounds·(2d−1) = %d", steps, rounds*(2*d-1))
	}
	bad := &Problem{N: 5, Pairs: nil}
	if _, _, err := OfflineScheduleHH(d, bad); err == nil {
		t.Error("wrong-size problem accepted")
	}
}

func TestCompletePermutation(t *testing.T) {
	perm := CompletePermutation(5, []Pair{{1, 3}, {4, 0}})
	if err := checkPermutation(perm); err != nil {
		t.Fatalf("not a permutation: %v (%v)", err, perm)
	}
	if perm[1] != 3 || perm[4] != 0 {
		t.Errorf("given pairs not preserved: %v", perm)
	}
}

func TestPropertyDecomposeAlwaysPermutationRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(20)
		k := r.Intn(4 * n)
		pairs := make([]Pair, k)
		for i := range pairs {
			pairs[i] = Pair{Src: r.Intn(n), Dst: r.Intn(n)}
		}
		rounds, err := DecomposeHRelation(n, pairs)
		if err != nil {
			return false
		}
		return VerifyRounds(pairs, rounds) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestPropertyGreedyDeliversOnTorus(t *testing.T) {
	g, err := topology.Torus(49)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := RandomHH(r, 49, 1+r.Intn(3))
		res, err := (&GreedyRouter{Mode: MultiPort, Seed: seed}).Route(g, p)
		return err == nil && res.Delivered == len(p.Pairs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestRouterNames(t *testing.T) {
	names := []string{
		(&GreedyRouter{Mode: MultiPort}).Name(),
		(&GreedyRouter{Mode: SinglePort}).Name(),
		(&ValiantRouter{}).Name(),
		(&DimensionOrderRouter{N: 4}).Name(),
		(&DimensionOrderRouter{N: 4, Wrap: true}).Name(),
	}
	seen := map[string]bool{}
	for _, n := range names {
		if n == "" {
			t.Error("empty router name")
		}
		seen[n] = true
	}
	if len(seen) < 5 {
		t.Errorf("router names not distinctive: %v", names)
	}
	if PortMode(9).String() == "" {
		t.Error("unknown port mode empty")
	}
}

func TestLowerBoundSteps(t *testing.T) {
	g, err := topology.Ring(16)
	if err != nil {
		t.Fatal(err)
	}
	// Single packet at distance 8.
	p := &Problem{N: 16, Pairs: []Pair{{0, 8}}}
	lb, err := LowerBoundSteps(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if lb != 8 {
		t.Errorf("distance bound = %d, want 8", lb)
	}
	// All-to-antipode: work bound dominates: 16 packets × 8 hops / 32
	// directed edges = 4 < 8 → still 8.
	pairs := make([]Pair, 16)
	for i := range pairs {
		pairs[i] = Pair{Src: i, Dst: (i + 8) % 16}
	}
	p2 := &Problem{N: 16, Pairs: pairs}
	lb2, err := LowerBoundSteps(g, p2)
	if err != nil {
		t.Fatal(err)
	}
	if lb2 < 8 {
		t.Errorf("bound %d < 8", lb2)
	}
	// Heavy h–h load: work bound exceeds diameter.
	var heavy []Pair
	for rep := 0; rep < 8; rep++ {
		for i := range pairs {
			heavy = append(heavy, Pair{Src: i, Dst: (i + 8) % 16})
		}
	}
	p3 := &Problem{N: 16, Pairs: heavy}
	lb3, err := LowerBoundSteps(g, p3)
	if err != nil {
		t.Fatal(err)
	}
	if lb3 <= 8 {
		t.Errorf("work bound %d should exceed the distance bound", lb3)
	}
	// Measured steps respect the bound.
	res, err := (&GreedyRouter{Mode: MultiPort}).Route(g, p3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps < lb3 {
		t.Errorf("router finished in %d steps below the bound %d", res.Steps, lb3)
	}
}

func TestLowerBoundStepsErrors(t *testing.T) {
	g, err := topology.Ring(8)
	if err != nil {
		t.Fatal(err)
	}
	p := &Problem{N: 4}
	if _, err := LowerBoundSteps(g, p); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestAllRoutersRespectLowerBound(t *testing.T) {
	// Every router's step count must dominate the instance lower bound
	// max(distance, total-work/capacity) — the model-independent floor.
	g, err := topology.Torus(64)
	if err != nil {
		t.Fatal(err)
	}
	routers := []Router{
		&GreedyRouter{Mode: MultiPort},
		&GreedyRouter{Mode: SinglePort},
		&GreedyRouter{Mode: MultiPort, Policy: RandomNextHop, Seed: 5},
		&DimensionOrderRouter{N: 8, Wrap: true, Mode: MultiPort},
		&ValiantRouter{Mode: MultiPort, Seed: 5},
	}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 3; trial++ {
		p := RandomPermutation(rng, 64)
		lb, err := LowerBoundSteps(g, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range routers {
			res, err := r.Route(g, p)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, r.Name(), err)
			}
			if res.Steps < lb {
				t.Errorf("trial %d: %s finished in %d steps, below the bound %d",
					trial, r.Name(), res.Steps, lb)
			}
		}
	}
}

// TestScheduleCacheChargesKeys fills a small-budget schedule cache with
// distinct relations and checks that what it holds, each key's bytes
// counted with its Result, stays within the budget.
func TestScheduleCacheChargesKeys(t *testing.T) {
	g, err := topology.Torus(16)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 16 << 10
	c := NewScheduleCache(budget, obs.New())
	rng := rand.New(rand.NewSource(3))
	var keys []string
	for k := 0; k < 200; k++ {
		p := RandomHH(rng, 16, 4)
		key := ProblemKey(g, p)
		if _, err := c.GetOrCompute(key, func() (Result, error) { return (&GreedyRouter{}).Route(g, p) }); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
	}
	held, entries := 0, 0
	for _, key := range keys {
		if res, ok := c.Peek(key); ok {
			held += len(key) + 8*5 + 16 + 8*len(res.StepsPerPhase)
			entries++
		}
	}
	if held > budget {
		t.Errorf("%d entries hold %d bytes with their keys, budget %d", entries, held, budget)
	}
	if st := c.Stats(); st.Bytes > budget || st.Evictions == 0 {
		t.Errorf("charged %d bytes of budget %d with %d evictions, want at most the budget and some evictions", st.Bytes, budget, st.Evictions)
	}
}
