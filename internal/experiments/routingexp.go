package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"universalnet/internal/core"
	"universalnet/internal/expander"
	"universalnet/internal/obs"
	"universalnet/internal/pebble"
	"universalnet/internal/routing"
	"universalnet/internal/sim"
	"universalnet/internal/topology"
	"universalnet/internal/universal"
)

// ---------------------------------------------------------------------------
// E7 — the §1 upper trade-off s·log ℓ = O(log n): both endpoints realized.

// E7Row is one point on the size/slowdown trade-off curve. The two
// construction rows are measured; the analytic row is the [14] curve this
// paper quotes (no construction for intermediate ℓ appears in the paper).
type E7Row struct {
	Kind     string // "embedding (ℓ=1)", "tree-cache (ℓ=2^{O(t)})", "analytic"
	N        int
	Ell      float64 // host size factor ℓ = m/n
	Slowdown float64
	Product  float64 // s·log₂(1+ℓ) — the trade-off invariant, O(log n)
}

// E7Tradeoff measures the two constructive endpoints of the trade-off and
// tabulates the analytic curve between them.
func E7Tradeoff(ctx context.Context, n, c, depth, hostDim, T int, seed int64) ([]E7Row, error) {
	reg := obs.FromContext(ctx)
	rng := rand.New(rand.NewSource(seed))
	var rows []E7Row

	// Endpoint ℓ ≈ 1: static embedding on a butterfly of size ≈ n
	// (Theorem 2.1): s = Θ(log n).
	guest, err := topology.RandomGuest(rng, n, c)
	if err != nil {
		return nil, err
	}
	host, err := topology.WrappedButterfly(hostDim)
	if err != nil {
		return nil, err
	}
	pr, err := pebble.BuildEmbeddingProtocol(guest, host, nil, T)
	if err != nil {
		return nil, err
	}
	pr.Obs = reg
	if _, err := pr.Validate(); err != nil {
		return nil, err
	}
	ell := float64(host.N()) / float64(n)
	s := pr.Slowdown()
	rows = append(rows, E7Row{
		Kind: "embedding (ℓ≈1)", N: n, Ell: ell, Slowdown: s,
		Product: s * log2p1(ell),
	})

	// Endpoint ℓ = 2^{O(t)}: tree-cached host, s = c+2 = O(1).
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	th, err := buildTreeCacheFor(n, c, depth)
	if err != nil {
		return nil, err
	}
	tpr, err := th.SimulateProtocol(guest)
	if err != nil {
		return nil, err
	}
	tpr.Obs = reg
	if _, err := tpr.Validate(); err != nil {
		return nil, err
	}
	tell := float64(th.M()) / float64(n)
	ts := tpr.Slowdown()
	rows = append(rows, E7Row{
		Kind: "tree-cache (ℓ=2^{O(t)})", N: n, Ell: tell, Slowdown: ts,
		Product: ts * log2p1(tell),
	})

	// Intermediate candidates: the rounded tree-cache host (compute t₀
	// steps at slowdown c+2, refresh between rounds). The measurement is a
	// NEGATIVE result worth having: naive whole-ball refreshes cost
	// Θ((c+1)^{t₀}) routing per round, outpacing the 1/t₀ amortization — so
	// the slowdown RISES with t₀. This is precisely the obstruction [14]'s
	// dynamic pebble reuse overcomes; the middle of the trade-off needs it.
	// Use a larger power-of-two guest so the t₀-balls stay well below n
	// (saturated balls hide the amortization).
	if nPow2 := 64; true {
		roundGuest, err := topology.RandomGuest(rng, nPow2, c)
		if err != nil {
			return nil, err
		}
		roundComp := sim.MixMod(roundGuest, rng)
		for _, t0 := range []int{1, 2, 3} {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			rh, err := universal.BuildRoundedTreeHost(nPow2, c, t0)
			if err != nil {
				continue // size guard at large t₀
			}
			rep, err := rh.Run(roundComp, 3*t0*2)
			if err != nil {
				return nil, err
			}
			rell := float64(rh.M()) / float64(nPow2)
			rows = append(rows, E7Row{
				Kind: fmt.Sprintf("rounded tree-cache (t0=%d)", t0),
				N:    nPow2, Ell: rell, Slowdown: rep.Slowdown,
				Product: rep.Slowdown * log2p1(rell),
			})
		}
	}

	// Analytic curve s·log ℓ = log n (the [14] bound quoted in §1).
	for _, e := range []float64{2, 4, 16, 64, 256} {
		sa := log2f(n) / log2p1(e)
		rows = append(rows, E7Row{Kind: "analytic [14]", N: n, Ell: e, Slowdown: sa, Product: sa * log2p1(e)})
	}
	return rows, nil
}

// E7Table formats E7 rows.
func E7Table(rows []E7Row) *Table {
	t := &Table{
		Title:   "E7 (§1): size n·ℓ vs slowdown — trade-off s·log ℓ = O(log n)",
		Columns: []string{"construction", "n", "ℓ = m/n", "slowdown s", "s·log2(1+ℓ)"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Kind, fmt.Sprint(r.N), fmt.Sprintf("%.1f", r.Ell),
			fmt.Sprintf("%.1f", r.Slowdown), fmt.Sprintf("%.1f", r.Product),
		})
	}
	return t
}

// buildTreeCacheFor keeps the tree-cache host below the size guard by
// shrinking the depth if needed.
func buildTreeCacheFor(n, c, depth int) (*universal.TreeCachedHost, error) {
	for d := depth; d >= 1; d-- {
		h, err := universal.BuildTreeCachedHost(n, c, d)
		if err == nil {
			return h, nil
		}
	}
	return nil, fmt.Errorf("experiments: no feasible tree-cache depth for n=%d c=%d", n, c)
}

// log2f returns log₂ x for an int.
func log2f(x int) float64 { return math.Log2(float64(x)) }

// log2p1 returns log₂(1+x), keeping the trade-off product finite at ℓ ≈ 1.
func log2p1(x float64) float64 { return math.Log2(1 + x) }

// ---------------------------------------------------------------------------
// E8 — §2 routing substrate: offline Beneš vs online greedy.

// E8Row is one dimension point of the offline-routing experiment.
type E8Row struct {
	D            int
	NRows        int
	OfflineSteps int     // 2d−1, guaranteed
	OnlineSteps  int     // greedy on the same permutation (butterfly graph)
	HRounds      int     // rounds needed for a random h–h problem
	H            int     // the h
	HSteps       int     // rounds·(2d−1)
	PerLogM      float64 // OfflineSteps / log₂(m)
}

// E8OfflineRouting compares offline Beneš permutation routing with online
// greedy routing on the butterfly, and measures the h-relation decomposition
// of §2.
func E8OfflineRouting(ctx context.Context, dims []int, h int, seed int64) ([]E8Row, error) {
	reg := obs.FromContext(ctx)
	rng := rand.New(rand.NewSource(seed))
	var rows []E8Row
	for _, d := range dims {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		nrows := 1 << d
		perm := rng.Perm(nrows)
		off, err := routing.OfflinePermutationSteps(d, perm)
		if err != nil {
			return nil, err
		}
		// Online comparison: greedy on the Beneš graph, level-0 to last-level.
		bg, err := routing.BenesGraph(d)
		if err != nil {
			return nil, err
		}
		last := routing.BenesLevels(d) - 1
		pairs := make([]routing.Pair, nrows)
		for i, p := range perm {
			pairs[i] = routing.Pair{
				Src: routing.BenesNode(d, 0, i),
				Dst: routing.BenesNode(d, last, p),
			}
		}
		res, err := (&routing.GreedyRouter{Mode: routing.MultiPort, Obs: reg}).Route(bg, &routing.Problem{N: bg.N(), Pairs: pairs})
		if err != nil {
			return nil, err
		}
		hh := routing.RandomHH(rng, nrows, h)
		steps, rounds, err := routing.OfflineScheduleHH(d, hh)
		if err != nil {
			return nil, err
		}
		m := bg.N()
		rows = append(rows, E8Row{
			D: d, NRows: nrows, OfflineSteps: off, OnlineSteps: res.Steps,
			HRounds: rounds, H: h, HSteps: steps,
			PerLogM: float64(off) / log2f(m),
		})
	}
	return rows, nil
}

// E8Table formats E8 rows.
func E8Table(rows []E8Row) *Table {
	t := &Table{
		Title:   "E8 (§2): offline Beneš routing O(log m) vs online greedy; h–h → ≤h permutations",
		Columns: []string{"d", "rows", "offline steps", "online steps", "h", "rounds", "h–h steps", "offline/log2 m"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(r.D), fmt.Sprint(r.NRows), fmt.Sprint(r.OfflineSteps),
			fmt.Sprint(r.OnlineSteps), fmt.Sprint(r.H), fmt.Sprint(r.HRounds),
			fmt.Sprint(r.HSteps), fmt.Sprintf("%.2f", r.PerLogM),
		})
	}
	return t
}

// ---------------------------------------------------------------------------
// E9 — Lemma 3.3: fragments bound the residual edges.

// E9Result verifies the combinatorial core of Lemma 3.3 on real protocols.
type E9Result struct {
	N, M, C     int
	Guests      int     // guests sampled
	EdgeInclOK  bool    // every guest edge of P_i landed inside D_i
	MaxD        int     // largest |D_i| observed
	Log2XBound  float64 // Σ log₂ C(|D_i|, (c−12)/2) for the worst fragment
	Log2GuestLB float64 // per-guest count lower bound for comparison
}

// E9FragmentMultiplicity samples guests from 𝒰[G₀], extracts fragments from
// real protocols and verifies that the neighbors of every P_i lie inside
// D_i — the fact that drives the multiplicity bound X ≤ Π C(|D_i|, c/2).
func E9FragmentMultiplicity(ctx context.Context, n, blockSide, hostDim, c, T, guests int, seed int64) (*E9Result, error) {
	g0, err := topology.BuildG0WithBlockSide(n, blockSide, seed)
	if err != nil {
		return nil, err
	}
	host, err := topology.WrappedButterfly(hostDim)
	if err != nil {
		return nil, err
	}
	res := &E9Result{N: n, M: host.N(), C: c, EdgeInclOK: true}
	rng := rand.New(rand.NewSource(seed + 7))
	params := core.Params{C: c}.Defaults()
	for gi := 0; gi < guests; gi++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		guest, err := g0.SampleGuest(rng, c)
		if err != nil {
			return nil, err
		}
		pr, err := pebble.BuildEmbeddingProtocol(guest, host, nil, T)
		if err != nil {
			return nil, err
		}
		st, err := pr.Validate()
		if err != nil {
			return nil, err
		}
		t0 := T / 2
		frag, err := st.ExtractFragment(t0, st.PickLightest(t0))
		if err != nil {
			return nil, err
		}
		if err := frag.Validate(); err != nil {
			return nil, err
		}
		dSizes := make([]int, n)
		for i := 0; i < n; i++ {
			dSizes[i] = len(frag.D[i])
			if dSizes[i] > res.MaxD {
				res.MaxD = dSizes[i]
			}
			// Lemma 3.3's core: every neighbor of P_i must appear in D_i.
			dset := make(map[int]bool, dSizes[i])
			for _, x := range frag.D[i] {
				dset[x] = true
			}
			for _, j := range guest.Neighbors(i) {
				if !dset[j] {
					res.EdgeInclOK = false
				}
			}
		}
		if lb := core.Log2MultiplicityExact(dSizes, c-12); lb > res.Log2XBound {
			res.Log2XBound = lb
		}
		res.Guests++
	}
	res.Log2GuestLB = params.Log2Guests(n)
	return res, nil
}

// ---------------------------------------------------------------------------
// E10 — Definition 3.9: G₀'s structure and expansion.

// E10Row certifies one G₀ instance.
type E10Row struct {
	N          int
	BlockSide  int
	MaxDegree  int
	Lambda2    float64 // spectral λ₂ of the expander overlay
	BetaTanner float64 // certified vertex expansion at α
	BetaSample float64 // sampled upper bound
	Alpha      float64
}

// E10G0Expansion builds G₀ across sizes and certifies the expander overlay.
func E10G0Expansion(ctx context.Context, blockSides []int, alpha float64, seed int64) ([]E10Row, error) {
	var rows []E10Row
	for _, p := range blockSides {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		n := topology.NextValidG0Size(4*p*p, p)
		g0, err := topology.BuildG0WithBlockSide(n, p, seed)
		if err != nil {
			return nil, err
		}
		if err := g0.Validate(); err != nil {
			return nil, err
		}
		cert, err := expander.Certify(g0.Expander, alpha, 300, 400, seed)
		if err != nil {
			return nil, err
		}
		rows = append(rows, E10Row{
			N: n, BlockSide: p, MaxDegree: g0.Graph.MaxDegree(),
			Lambda2: cert.Lambda2, BetaTanner: cert.BetaTanner,
			BetaSample: cert.BetaSampled, Alpha: alpha,
		})
	}
	return rows, nil
}

// E10Table formats E10 rows.
func E10Table(rows []E10Row) *Table {
	t := &Table{
		Title:   "E10 (Def. 3.9): G₀ = multitorus ∪ 4-regular expander — degree ≤ 12, (α,β)-expansion",
		Columns: []string{"n", "p=2a", "maxdeg", "λ2", "β (Tanner)", "β (sampled)", "α"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(r.N), fmt.Sprint(r.BlockSide), fmt.Sprint(r.MaxDegree),
			fmt.Sprintf("%.3f", r.Lambda2), fmt.Sprintf("%.2f", r.BetaTanner),
			fmt.Sprintf("%.2f", r.BetaSample), fmt.Sprintf("%.2f", r.Alpha),
		})
	}
	return t
}
