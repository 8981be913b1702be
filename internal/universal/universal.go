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
	// simulator consults before routing the fixed ⌈n/m⌉–⌈n/m⌉ relation: the
	// schedule "depends on G only" (§2), so distinct runs — and distinct
	// service requests — over the same (host, relation) replay one schedule.
	// A run routes its relation once either way and replays its cost at
	// every guest step.
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
	n, m := c.G.N(), es.Host.Graph.N()
	f := es.F
	if f == nil {
		f = pebble.BalancedAssignment(n, m)
	}
	if err := checkAssignment(f, n, m); err != nil {
		return nil, err
	}
	rep, err := (&engine{host: es.Host, replicas: singleReplicas(f), obs: es.Obs, schedules: es.Schedules}).run(c, T)
	if err != nil {
		return nil, err
	}
	return &rep.RunReport, nil
}
