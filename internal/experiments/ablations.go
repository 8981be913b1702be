package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"universalnet/internal/embedding"
	"universalnet/internal/graph"
	"universalnet/internal/pebble"
	"universalnet/internal/routing"
	"universalnet/internal/sim"
	"universalnet/internal/topology"
	"universalnet/internal/universal"
)

// ---------------------------------------------------------------------------
// E11 — static embeddings vs the paper's dynamic simulations (§1): the
// [4,3] contrast. A static embedding of a mesh into a butterfly suffers
// dilation Ω(log n); the dynamic (Theorem 2.1-style) simulation is bounded
// by (n/m)·log m regardless of the guest's shape.

// E11Row compares placement strategies for one (guest, host) pair.
type E11Row struct {
	Guest      string
	Host       string
	Strategy   string // random / greedy
	Load       int
	Dilation   int
	Congestion int
	StaticLB   int // max(load, dilation): a lower bound on embedding slowdown
}

// E11Embeddings measures load/dilation/congestion of static embeddings of a
// mesh and a random guest into a wrapped butterfly.
func E11Embeddings(ctx context.Context, meshN, hostDim int, seed int64) ([]E11Row, error) {
	host, err := topology.WrappedButterfly(hostDim)
	if err != nil {
		return nil, err
	}
	mesh, err := topology.Mesh(meshN)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	randGuest, err := topology.RandomGuest(rng, meshN, 4)
	if err != nil {
		return nil, err
	}
	hostName := fmt.Sprintf("butterfly(d=%d)", hostDim)
	var rows []E11Row
	for _, spec := range []struct {
		name string
		g    *graph.Graph
	}{{"mesh", mesh}, {"random-4-regular", randGuest}} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for _, strat := range []struct {
			name  string
			build func() (*embedding.Embedding, error)
		}{
			{"random", func() (*embedding.Embedding, error) { return embedding.Random(spec.g, host, rng) }},
			{"greedy", func() (*embedding.Embedding, error) { return embedding.Greedy(spec.g, host, rng) }},
		} {
			emb, err := strat.build()
			if err != nil {
				return nil, err
			}
			if err := emb.Validate(); err != nil {
				return nil, err
			}
			rows = append(rows, E11Row{
				Guest: spec.name, Host: hostName, Strategy: strat.name,
				Load: emb.Load(), Dilation: emb.Dilation(), Congestion: emb.Congestion(),
				StaticLB: emb.SlowdownLowerBound(),
			})
		}
	}
	return rows, nil
}

// E11Table formats E11 rows.
func E11Table(rows []E11Row) *Table {
	t := &Table{
		Title:   "E11 (§1 embeddings): static embedding quality into the butterfly — dilation is the bottleneck",
		Columns: []string{"guest", "host", "strategy", "load", "dilation", "congestion", "static s ≥"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Guest, r.Host, r.Strategy, fmt.Sprint(r.Load),
			fmt.Sprint(r.Dilation), fmt.Sprint(r.Congestion), fmt.Sprint(r.StaticLB),
		})
	}
	return t
}

// ---------------------------------------------------------------------------
// E12 — router ablation: the Theorem 2.1 slowdown through different routing
// substrates on the same host and guest.

// E12Row is one router's measurement.
type E12Row struct {
	Router    string
	HostSteps int
	Slowdown  float64
	Verified  bool
}

// E12RouterAblation runs the embedding simulation with each router on a
// torus host of size 64.
func E12RouterAblation(ctx context.Context, n, deg, T int, seed int64) ([]E12Row, error) {
	rng := rand.New(rand.NewSource(seed))
	guest, err := topology.RandomGuest(rng, n, deg)
	if err != nil {
		return nil, err
	}
	comp := sim.MixMod(guest, rng)
	direct, err := comp.Run(T)
	if err != nil {
		return nil, err
	}
	hostGraph, err := topology.Torus(64)
	if err != nil {
		return nil, err
	}
	routers := []struct {
		name string
		r    routing.Router
	}{
		{"greedy(min-index)", &routing.GreedyRouter{Mode: routing.MultiPort, Seed: seed}},
		{"greedy(random-hop)", &routing.GreedyRouter{Mode: routing.MultiPort, Policy: routing.RandomNextHop, Seed: seed}},
		{"greedy(single-port)", &routing.GreedyRouter{Mode: routing.SinglePort, Seed: seed}},
		{"dimension-order", &routing.DimensionOrderRouter{N: 8, Wrap: true, Mode: routing.MultiPort}},
		{"valiant", &routing.ValiantRouter{Mode: routing.MultiPort, Seed: seed}},
	}
	var rows []E12Row
	for _, spec := range routers {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		host := &universal.Host{Name: spec.name, Graph: hostGraph, Router: spec.r}
		rep, err := (&universal.EmbeddingSimulator{Host: host}).Run(comp, T)
		if err != nil {
			return nil, fmt.Errorf("experiments: router %s: %w", spec.name, err)
		}
		rows = append(rows, E12Row{
			Router:    spec.name,
			HostSteps: rep.HostSteps,
			Slowdown:  rep.Slowdown,
			Verified:  rep.Trace.Checksum() == direct.Checksum(),
		})
	}
	return rows, nil
}

// E12Table formats E12 rows.
func E12Table(rows []E12Row) *Table {
	t := &Table{
		Title:   "E12 (ablation): routing substrate under the Theorem 2.1 simulation (torus host, m=64)",
		Columns: []string{"router", "host steps", "slowdown", "verified"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Router, fmt.Sprint(r.HostSteps), fmt.Sprintf("%.1f", r.Slowdown), fmt.Sprint(r.Verified),
		})
	}
	return t
}

// ---------------------------------------------------------------------------
// E13 — assignment ablation: does the static placement matter? For a
// locality-friendly guest (torus on torus), a locality-aware placement cuts
// the routing work; for a random guest no placement helps — which is
// exactly why universal networks must route, not embed.

// E13Row is one (guest, assignment) measurement.
type E13Row struct {
	Guest      string
	Assignment string
	Slowdown   float64
	RouteSteps int
	Verified   bool
}

// E13AssignmentAblation compares balanced, shuffled, and locality (greedy
// embedding) placements on a torus host.
func E13AssignmentAblation(ctx context.Context, n, T int, seed int64) ([]E13Row, error) {
	host, err := universal.TorusHost(64)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	torusGuest, err := topology.Torus(n)
	if err != nil {
		return nil, err
	}
	randGuest, err := topology.RandomGuest(rng, n, 4)
	if err != nil {
		return nil, err
	}
	var rows []E13Row
	for _, gspec := range []struct {
		name string
		g    *graph.Graph
	}{{"torus", torusGuest}, {"random-4-regular", randGuest}} {
		comp := sim.MixMod(gspec.g, rng)
		direct, err := comp.Run(T)
		if err != nil {
			return nil, err
		}
		greedyEmb, err := embedding.Greedy(gspec.g, host.Graph, rng)
		if err != nil {
			return nil, err
		}
		for _, aspec := range []struct {
			name string
			f    []int
		}{
			{"balanced (i mod m)", pebble.BalancedAssignment(n, 64)},
			{"shuffled", pebble.RandomizedAssignment(n, 64, seed)},
			{"greedy-locality", greedyEmb.F},
		} {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			rep, err := (&universal.EmbeddingSimulator{Host: host, F: aspec.f}).Run(comp, T)
			if err != nil {
				return nil, fmt.Errorf("experiments: assignment %s: %w", aspec.name, err)
			}
			rows = append(rows, E13Row{
				Guest: gspec.name, Assignment: aspec.name,
				Slowdown: rep.Slowdown, RouteSteps: rep.RouteSteps,
				Verified: rep.Trace.Checksum() == direct.Checksum(),
			})
		}
	}
	return rows, nil
}

// E13Table formats E13 rows.
func E13Table(rows []E13Row) *Table {
	t := &Table{
		Title:   "E13 (ablation): static placement under the Theorem 2.1 simulation (torus host, m=64)",
		Columns: []string{"guest", "assignment", "slowdown", "route steps", "verified"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Guest, r.Assignment, fmt.Sprintf("%.1f", r.Slowdown),
			fmt.Sprint(r.RouteSteps), fmt.Sprint(r.Verified),
		})
	}
	return t
}

// ---------------------------------------------------------------------------
// E15 — protocol-builder ablation: phase-based vs pipelined vs multicast
// scheduling of the Theorem 2.1 protocol under the one-op-per-processor
// model.

// E15Row compares the three builders on one instance.
type E15Row struct {
	N, M, T    int
	PhasedK    float64
	PipelinedK float64
	MulticastK float64
	Ratio      float64 // pipelined / phased host steps
	MultiRatio float64 // multicast / phased host steps
}

// E15BuilderAblation runs the phase-based, pipelined and multicast
// builders across load regimes.
func E15BuilderAblation(ctx context.Context, seed int64) ([]E15Row, error) {
	rng := rand.New(rand.NewSource(seed))
	var rows []E15Row
	for _, tc := range []struct{ n, hostDim, T int }{
		{32, 3, 4}, {64, 3, 3}, {96, 3, 4}, {48, 4, 4}, {128, 4, 4},
	} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		guest, err := topology.RandomGuest(rng, tc.n, 4)
		if err != nil {
			return nil, err
		}
		host, err := topology.WrappedButterfly(tc.hostDim)
		if err != nil {
			return nil, err
		}
		phased, err := pebble.BuildEmbeddingProtocol(guest, host, nil, tc.T)
		if err != nil {
			return nil, err
		}
		if _, err := phased.Validate(); err != nil {
			return nil, err
		}
		piped, err := pebble.BuildPipelinedProtocol(guest, host, nil, tc.T)
		if err != nil {
			return nil, err
		}
		if _, err := piped.Validate(); err != nil {
			return nil, err
		}
		multi, err := pebble.BuildMulticastProtocol(guest, host, nil, tc.T)
		if err != nil {
			return nil, err
		}
		if _, err := multi.Validate(); err != nil {
			return nil, err
		}
		rows = append(rows, E15Row{
			N: tc.n, M: host.N(), T: tc.T,
			PhasedK:    phased.Inefficiency(),
			PipelinedK: piped.Inefficiency(),
			MulticastK: multi.Inefficiency(),
			Ratio:      float64(piped.HostSteps()) / float64(phased.HostSteps()),
			MultiRatio: float64(multi.HostSteps()) / float64(phased.HostSteps()),
		})
	}
	return rows, nil
}

// E15Table formats E15 rows.
func E15Table(rows []E15Row) *Table {
	t := &Table{
		Title:   "E15 (ablation): protocol builder — phase-based vs pipelined vs multicast",
		Columns: []string{"n", "m", "T", "k phased", "k pipelined", "k multicast", "piped/phase", "multi/phase"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(r.N), fmt.Sprint(r.M), fmt.Sprint(r.T),
			fmt.Sprintf("%.1f", r.PhasedK), fmt.Sprintf("%.1f", r.PipelinedK),
			fmt.Sprintf("%.1f", r.MulticastK),
			fmt.Sprintf("%.2f", r.Ratio), fmt.Sprintf("%.2f", r.MultiRatio),
		})
	}
	return t
}

// ---------------------------------------------------------------------------
// E21 — minimizer ablation: how much of a protocol's cost is removable
// no-op traffic? MinimizeProtocol drops copies the receiver already holds
// and compacts empty steps; the k reduction measures the builders'
// scheduling slack.

// E21Row compares a protocol before and after minimization.
type E21Row struct {
	Builder    string
	N, M, T    int
	KBefore    float64
	KAfter     float64
	OpsDropped int
}

// E21MinimizerAblation minimizes protocols from both builders.
func E21MinimizerAblation(ctx context.Context, seed int64) ([]E21Row, error) {
	rng := rand.New(rand.NewSource(seed))
	guest, err := topology.RandomGuest(rng, 48, 4)
	if err != nil {
		return nil, err
	}
	host, err := topology.WrappedButterfly(3)
	if err != nil {
		return nil, err
	}
	const T = 4
	builders := []struct {
		name  string
		build func() (*pebble.Protocol, error)
	}{
		{"phase-based", func() (*pebble.Protocol, error) { return pebble.BuildEmbeddingProtocol(guest, host, nil, T) }},
		{"pipelined", func() (*pebble.Protocol, error) { return pebble.BuildPipelinedProtocol(guest, host, nil, T) }},
	}
	var rows []E21Row
	for _, b := range builders {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pr, err := b.build()
		if err != nil {
			return nil, err
		}
		if _, err := pr.Validate(); err != nil {
			return nil, err
		}
		min, dropped, err := pebble.MinimizeProtocol(pr)
		if err != nil {
			return nil, err
		}
		if _, err := min.Validate(); err != nil {
			return nil, err
		}
		comp := sim.MixMod(guest, rng)
		if err := pebble.VerifyCarries(min, comp); err != nil {
			return nil, fmt.Errorf("experiments: E21 %s minimized protocol broken: %w", b.name, err)
		}
		rows = append(rows, E21Row{
			Builder: b.name, N: guest.N(), M: host.N(), T: T,
			KBefore: pr.Inefficiency(), KAfter: min.Inefficiency(),
			OpsDropped: dropped,
		})
	}
	return rows, nil
}

// E21Table formats E21 rows.
func E21Table(rows []E21Row) *Table {
	t := &Table{
		Title:   "E21 (ablation): protocol minimization — removable no-op traffic per builder",
		Columns: []string{"builder", "n", "m", "T", "k before", "k after", "ops dropped"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Builder, fmt.Sprint(r.N), fmt.Sprint(r.M), fmt.Sprint(r.T),
			fmt.Sprintf("%.1f", r.KBefore), fmt.Sprintf("%.1f", r.KAfter),
			fmt.Sprint(r.OpsDropped),
		})
	}
	return t
}
