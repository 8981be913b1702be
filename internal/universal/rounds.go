package universal

import (
	"fmt"

	"universalnet/internal/graph"
	"universalnet/internal/routing"
	"universalnet/internal/sim"
	"universalnet/internal/topology"
)

// Rounded tree-cache simulation — constructive intermediate points of the
// §1 trade-off s·log ℓ = O(log n). The tree-cached host computes t₀ guest
// steps at constant slowdown c+2 but then exhausts its cached inputs; to
// continue, each tree's leaves must be refreshed with the configurations of
// its t₀-ball at the new round boundary. We charge the refresh honestly:
//   - an inter-root routing phase (the ball demands form an h-relation on
//     the root interconnect, routed online and measured), and
//   - an intra-tree scatter (the root pipelines the ≤ ballMax fetched
//     configurations down to the leaves: ballMax + 2·t₀ steps).
// Larger t₀ buys more constant-slowdown steps per refresh but inflates the
// ball (and the host: m = n·(c+1)^{t₀}·…) — the size/slowdown knob of [14],
// here with measured, verified runs.

// RoundedTreeHost is the tree-cache host plus a de Bruijn interconnect over
// the tree roots (constant degree, log diameter) for the refresh phases.
type RoundedTreeHost struct {
	Tree      *TreeCachedHost
	RootNet   *graph.Graph // de Bruijn graph on the n roots (indices = tree)
	RootRoute routing.Router
	N, C, T0  int
}

// BuildRoundedTreeHost builds the host; n must be a power of two ≥ 4 for
// the de Bruijn interconnect.
func BuildRoundedTreeHost(n, c, t0 int) (*RoundedTreeHost, error) {
	if n < 4 || n&(n-1) != 0 {
		return nil, fmt.Errorf("universal: rounded tree host needs power-of-two n ≥ 4, got %d", n)
	}
	th, err := BuildTreeCachedHost(n, c, t0)
	if err != nil {
		return nil, err
	}
	d := 0
	for v := n; v > 1; v >>= 1 {
		d++
	}
	rootNet, err := buildDeBruijnN(d)
	if err != nil {
		return nil, err
	}
	return &RoundedTreeHost{
		Tree:      th,
		RootNet:   rootNet,
		RootRoute: &routing.GreedyRouter{Mode: routing.MultiPort},
		N:         n, C: c, T0: t0,
	}, nil
}

func buildDeBruijnN(d int) (*graph.Graph, error) {
	g, err := topology.DeBruijn(d)
	if err != nil {
		return nil, err
	}
	if !g.IsConnected() {
		return nil, fmt.Errorf("universal: de Bruijn interconnect disconnected")
	}
	return g, nil
}

// M returns the total host size: the trees plus nothing extra (the root
// interconnect reuses the root processors; its edges add no processors).
func (rh *RoundedTreeHost) M() int { return rh.Tree.M() }

// RoundedReport summarizes a rounded run.
type RoundedReport struct {
	GuestSteps   int
	Rounds       int
	ComputeSteps int // (c+2)·t₀ per round (the proven tree-cache pipeline)
	RouteSteps   int // measured inter-root routing
	ScatterSteps int // ballMax + 2·t₀ per refresh
	HostSteps    int
	Slowdown     float64
	BallMax      int
	Trace        *sim.Trace
}

// Run simulates T guest steps of c in rounds of t₀, refreshing between
// rounds, and verifies the trace against direct execution semantics: every
// tree computes its processor's states purely from its ball's round-start
// configurations.
func (rh *RoundedTreeHost) Run(comp *sim.Computation, T int) (*RoundedReport, error) {
	guest := comp.G
	n := guest.N()
	if n != rh.N {
		return nil, fmt.Errorf("universal: guest has %d processors, host built for %d", n, rh.N)
	}
	if guest.MaxDegree() > rh.C {
		return nil, fmt.Errorf("universal: guest degree %d exceeds c=%d", guest.MaxDegree(), rh.C)
	}
	if T < 0 {
		return nil, fmt.Errorf("universal: negative T")
	}
	// Ball membership for each tree (radius t₀).
	balls := make([][]int, n)
	ballMax := 0
	for i := 0; i < n; i++ {
		dist := guest.BFS(i)
		for v, dv := range dist {
			if dv >= 0 && dv <= rh.T0 {
				balls[i] = append(balls[i], v)
			}
		}
		if len(balls[i]) > ballMax {
			ballMax = len(balls[i])
		}
	}
	// Inter-root demands, fixed across rounds: root_j → root_i for each
	// j ∈ ball(i), j ≠ i. The relation is routed once, at the first
	// refresh, and its cost charged at every refresh.
	var pairs []routing.Pair
	for i := 0; i < n; i++ {
		for _, j := range balls[i] {
			if j != i {
				pairs = append(pairs, routing.Pair{Src: j, Dst: i})
			}
		}
	}
	problem := &routing.Problem{N: n, Pairs: pairs}

	rep := &RoundedReport{GuestSteps: T, BallMax: ballMax}
	trace := &sim.Trace{States: make([][]sim.State, T+1)}
	trace.States[0] = append([]sim.State(nil), comp.Init...)
	cur := append([]sim.State(nil), comp.Init...)

	nbuf := make([]sim.State, 0, guest.MaxDegree())
	refreshSteps := -1
	for done := 0; done < T; {
		span := rh.T0
		if done+span > T {
			span = T - done
		}
		rep.Rounds++
		// Refresh phase (needed before every round including the first for
		// t₀ > 0 — the initial pebbles are free in the pebble model, but we
		// charge refreshes uniformly and conservatively from round 2 on).
		if done > 0 {
			if refreshSteps < 0 {
				res, err := rh.RootRoute.Route(rh.RootNet, problem)
				if err != nil {
					return nil, fmt.Errorf("universal: refresh routing at step %d: %w", done, err)
				}
				refreshSteps = res.Steps
			}
			rep.RouteSteps += refreshSteps
			rep.ScatterSteps += ballMax + 2*rh.T0
		}
		// Compute phase: each tree evaluates its cone locally from the
		// ball's round-start states (distributed honesty: only ball states
		// are used). Cost: the proven (c+2)·span pipeline.
		next := make([]sim.State, n)
		for i := 0; i < n; i++ {
			// Local copy of the ball states.
			local := make(map[int]sim.State, len(balls[i]))
			for _, j := range balls[i] {
				local[j] = cur[j]
			}
			// Evaluate span steps on the shrinking cone around i.
			for τ := 1; τ <= span; τ++ {
				updated := make(map[int]sim.State, len(local))
				for j, s := range local {
					ok := true
					nbuf = nbuf[:0]
					for _, w := range guest.Neighbors(j) {
						sv, have := local[w]
						if !have {
							ok = false
							break
						}
						nbuf = append(nbuf, sv)
					}
					if ok {
						updated[j] = comp.Step(j, s, nbuf)
					}
				}
				local = updated
				if _, have := local[i]; !have {
					return nil, fmt.Errorf("universal: cone of %d collapsed before %d steps (ball too small)", i, span)
				}
			}
			next[i] = local[i]
		}
		// Record the intermediate trace rows by direct evaluation (the
		// distributed values are cross-checked at round boundaries below).
		for τ := 1; τ <= span; τ++ {
			row := make([]sim.State, n)
			prev := trace.States[done+τ-1]
			for j := 0; j < n; j++ {
				nbuf = nbuf[:0]
				for _, w := range guest.Neighbors(j) {
					nbuf = append(nbuf, prev[w])
				}
				row[j] = comp.Step(j, prev[j], nbuf)
			}
			trace.States[done+τ] = row
		}
		// Cross-check: cone-evaluated states equal the direct states.
		for i := 0; i < n; i++ {
			if next[i] != trace.States[done+span][i] {
				return nil, fmt.Errorf("universal: cone evaluation of %d diverged at step %d", i, done+span)
			}
		}
		cur = trace.States[done+span]
		rep.ComputeSteps += (rh.C + 2) * span
		done += span
	}
	rep.HostSteps = rep.ComputeSteps + rep.RouteSteps + rep.ScatterSteps
	if T > 0 {
		rep.Slowdown = float64(rep.HostSteps) / float64(T)
	}
	rep.Trace = trace
	return rep, nil
}
