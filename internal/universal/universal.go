// Package universal implements the simulations the paper's bounds are
// about. The centerpiece is the Theorem 2.1 simulator: a static embedding of
// an arbitrary guest network into a smaller host, simulating step by step —
// local computation sequentially per host processor, communication as an
// ⌈n/m⌉–⌈n/m⌉ routing problem on the host. The simulator maintains real
// per-host-processor memories, so a guest state is only used where a copy
// has actually arrived; the reconstructed guest trace is verified against
// direct execution.
//
// The package also provides the tree-cached host of the paper's
// introduction (n constant-degree trees of depth t simulate any length-t
// computation with constant slowdown) and host/router bundles for the
// experiments.
package universal

import (
	"fmt"

	"universalnet/internal/cache"
	"universalnet/internal/graph"
	"universalnet/internal/obs"
	"universalnet/internal/pebble"
	"universalnet/internal/routing"
	"universalnet/internal/sim"
)

// Host bundles a host graph with the router used for its message phases.
type Host struct {
	Name   string
	Graph  *graph.Graph
	Router routing.Router
}

// EmbeddingSimulator simulates guest computations on a host through a
// static assignment F (guest processor → host processor), as in the proof
// of Theorem 2.1.
type EmbeddingSimulator struct {
	Host *Host
	// F[i] is the host processor simulating guest processor i. Nil selects
	// the balanced assignment i mod m.
	F []int
	// Obs, when non-nil, receives simulation metrics — most importantly the
	// host-steps-per-guest-step histogram, the measured distribution behind
	// the Theorem 2.1 slowdown s = (host steps)/(guest steps). It is also
	// threaded into the routing substrate for per-phase congestion stats.
	Obs *obs.Registry
	// Schedules, when non-nil, is a shared routing-schedule cache the
	// simulator consults before recomputing the fixed ⌈n/m⌉–⌈n/m⌉ relation:
	// the schedule "depends on G only" (§2), so distinct runs — and distinct
	// service requests — over the same (host, relation) replay one schedule.
	// Nil keeps the previous behavior of a private per-run memo.
	Schedules *cache.Cache[string, routing.Result]
}

// hostStepBuckets bounds the host-steps-per-guest-step histogram: the
// Theorem 2.1 prediction is ⌈n/m⌉·O(log m), so powers of two up to 1024
// cover every experiment regime.
var hostStepBuckets = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// RunReport summarizes one simulated execution.
type RunReport struct {
	GuestSteps   int
	HostSteps    int     // total host steps charged
	ComputeSteps int     // host steps spent on sequential local computation
	RouteSteps   int     // host steps spent routing configurations
	Slowdown     float64 // HostSteps / GuestSteps
	Inefficiency float64 // Slowdown · m / n
	MaxLoad      int     // ⌈n/m⌉ for the balanced assignment
	Trace        *sim.Trace
}

// Run simulates T steps of the computation c on the host and returns the
// report, including the guest trace as reconstructed purely from host-local
// memories. An error is returned if a host processor ever needs a neighbor
// configuration that has not arrived — the simulation correctness invariant.
func (es *EmbeddingSimulator) Run(c *sim.Computation, T int) (*RunReport, error) {
	guest := c.G
	n, m := guest.N(), es.Host.Graph.N()
	if T < 0 {
		return nil, fmt.Errorf("universal: negative T")
	}
	f := es.F
	if f == nil {
		f = pebble.BalancedAssignment(n, m)
	}
	if len(f) != n {
		return nil, fmt.Errorf("universal: assignment length %d, want %d", len(f), n)
	}
	for i, q := range f {
		if q < 0 || q >= m {
			return nil, fmt.Errorf("universal: guest %d on invalid host %d", i, q)
		}
	}
	maxLoad := pebble.MaxLoad(f, m)

	// mem[q][i] is the newest configuration of guest i known at host q,
	// with memT[q][i] the guest time it belongs to (-1 = unknown).
	mem := make([][]sim.State, m)
	memT := make([][]int, m)
	for q := 0; q < m; q++ {
		mem[q] = make([]sim.State, n)
		memT[q] = make([]int, n)
		for i := range memT[q] {
			memT[q][i] = -1
		}
	}
	for i := 0; i < n; i++ {
		mem[f[i]][i] = c.Init[i]
		memT[f[i]][i] = 0
	}

	// The communication demands are fixed by the guest: guest i's new
	// configuration must reach the host of every guest neighbor. This is
	// the ⌈n/m⌉–⌈n/m⌉ problem of Theorem 2.1, identical every step.
	var pairs []routing.Pair
	type delivery struct{ i, dstHost int }
	var deliveries []delivery
	shipped := make([]int, m) // shipped[q] == i+1 once guest i's pair to host q exists
	for i := 0; i < n; i++ {
		shipped[f[i]] = i + 1
		for _, j := range guest.Neighbors(i) {
			if shipped[f[j]] != i+1 {
				shipped[f[j]] = i + 1
				pairs = append(pairs, routing.Pair{Src: f[i], Dst: f[j]})
				deliveries = append(deliveries, delivery{i: i, dstHost: f[j]})
			}
		}
	}
	problem := &routing.Problem{N: m, Pairs: pairs}
	// The relation is identical every guest step ("known in advance", §2):
	// key it once, route it once and replay the schedule's cost. Routers
	// here are deterministic for a fixed seed, so this changes wall-clock
	// only.
	key := routing.ProblemKey(es.Host.Graph, problem)
	router := &routing.CachedRouter{Inner: es.Host.Router, Cache: es.Schedules}
	if es.Obs != nil {
		routing.SetObs(router, es.Obs)
	}
	// Resolved once; nil when disabled, and Observe on nil is a no-op.
	hostStepHist := es.Obs.Histogram("universal.host_steps_per_guest_step", hostStepBuckets)
	sp := es.Obs.StartSpan("universal.run",
		obs.KV("guest", c.Name), obs.KV("n", n), obs.KV("m", m), obs.KV("steps", T))
	defer sp.End()

	rep := &RunReport{GuestSteps: T, MaxLoad: maxLoad}
	trace := &sim.Trace{States: make([][]sim.State, T+1)}
	trace.States[0] = append([]sim.State(nil), c.Init...)

	nbuf := make([]sim.State, 0, guest.MaxDegree())
	for t := 1; t <= T; t++ {
		// Distribution phase for configurations of time t−1 (the initial
		// configurations also need distributing, hence phase-before-compute).
		stepRoute := 0
		if len(pairs) > 0 {
			res, err := router.RouteKey(es.Host.Graph, problem, key)
			if err != nil {
				return nil, fmt.Errorf("universal: routing at guest step %d: %w", t, err)
			}
			rep.RouteSteps += res.Steps
			stepRoute = res.Steps
		}
		hostStepHist.Observe(int64(stepRoute + maxLoad))
		for _, d := range deliveries {
			src := f[d.i]
			if memT[src][d.i] != t-1 {
				return nil, fmt.Errorf("universal: host %d ships stale state of guest %d (have t=%d, want %d)",
					src, d.i, memT[src][d.i], t-1)
			}
			mem[d.dstHost][d.i] = mem[src][d.i]
			memT[d.dstHost][d.i] = t - 1
		}
		// Compute phase: each host processor updates its guests
		// sequentially; cost = maxLoad host steps.
		next := make([]sim.State, n)
		for i := 0; i < n; i++ {
			q := f[i]
			if memT[q][i] != t-1 {
				return nil, fmt.Errorf("universal: host %d missing own guest %d at t=%d", q, i, t-1)
			}
			nbuf = nbuf[:0]
			for _, j := range guest.Neighbors(i) {
				if memT[q][j] != t-1 {
					return nil, fmt.Errorf("universal: host %d computing guest %d lacks neighbor %d at t=%d",
						q, i, j, t-1)
				}
				nbuf = append(nbuf, mem[q][j])
			}
			next[i] = c.Step(i, mem[q][i], nbuf)
		}
		for i := 0; i < n; i++ {
			mem[f[i]][i] = next[i]
			memT[f[i]][i] = t
		}
		rep.ComputeSteps += maxLoad
		trace.States[t] = next
	}
	rep.HostSteps = rep.ComputeSteps + rep.RouteSteps
	if T > 0 {
		rep.Slowdown = float64(rep.HostSteps) / float64(T)
		rep.Inefficiency = rep.Slowdown * float64(m) / float64(n)
	}
	rep.Trace = trace
	if es.Obs != nil {
		es.Obs.Counter("universal.runs").Inc()
		es.Obs.Counter("universal.guest_steps").Add(int64(T))
		es.Obs.Counter("universal.route_steps").Add(int64(rep.RouteSteps))
		es.Obs.Counter("universal.compute_steps").Add(int64(rep.ComputeSteps))
		es.Obs.Gauge("universal.max_load").SetMax(int64(maxLoad))
	}
	return rep, nil
}
