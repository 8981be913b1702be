package universal

import (
	"errors"
	"fmt"
	"math/rand"

	"universalnet/internal/faults"
	"universalnet/internal/obs"
	"universalnet/internal/pebble"
	"universalnet/internal/sim"
)

// ErrUnrecoverable is returned when a fault kills the last copy of some
// guest state (every replica of a guest crashed, survivors got partitioned
// away, or a routing phase lost packets beyond the retry budget). The
// simulator never fabricates a trace: either the reconstructed guest trace
// is byte-identical to direct execution, or the run ends with this error.
var ErrUnrecoverable = errors.New("universal: unrecoverable fault")

// FaultTolerantSimulator runs the Theorem 2.1 simulation with replicated
// guests and, optionally, under a fault plan.
//
// Redundancy is the §1 dynamic-embedding observation: dynamic embeddings
// (several representatives per guest processor) increase efficiency when
// m > n ([14]: an n^{1+ε}-size universal network with constant slowdown)
// but not when m ≤ n (this paper's tightness result). Each guest is
// simulated by one or more replicas on distinct hosts; every replica
// recomputes the guest step locally, and a host that holds a replica of a
// neighbour of guest i but none of i receives i's configuration once per
// step, from i's nearest replica. Replication multiplies compute work but
// shrinks routing distances — the trade the m > n regime exploits. With no
// plan this is E16's fault-free run.
//
// Under a plan the simulator is the dynamic probe of the paper's
// trade-off: a crash of k host processors forces the run from size m down
// to m−k, and the reported slowdown measures the move along the
// m·s = Ω(n·log m) curve. When a host crashes,
//
//   - guests whose primary replica died fail over to the surviving replica
//     nearest to the crash site;
//   - lost replicas are re-embedded onto the least-loaded surviving hosts
//     (balanced re-assignment), restoring the replication degree;
//   - a guest with no surviving replica is gone — the run returns
//     ErrUnrecoverable rather than a wrong trace.
//
// Message drops and corruptions force bounded retry rounds in each routing
// phase; permanent link failures degrade the host graph in place. All
// recovery decisions are deterministic (sorted iteration, lowest-id ties,
// hash-derived packet fates), so a plan plus a seed names one exact
// execution.
type FaultTolerantSimulator struct {
	Host *Host
	// Replicas[i] lists the host processors simulating guest i (non-empty,
	// distinct; PlaceReplicas draws a random balanced table), primary
	// first. Nil selects the balanced single assignment i mod m (no
	// redundancy: any crash of a populated host is fatal).
	Replicas [][]int
	// Plan is the fault schedule; nil means an ideal host.
	Plan *faults.Plan
	// Obs, when non-nil, receives the run's fault counters (failover and
	// re-embedding events included), host-step histogram, and a run span,
	// and is threaded into the host's router.
	Obs *obs.Registry
}

// FaultReport extends RunReport with fault accounting.
type FaultReport struct {
	RunReport
	Counters       faults.Counters
	InitialHosts   int // m before any fault
	SurvivingHosts int // m − crashes at the end of the run
	Replication    int // largest replica count of any guest at the start
	// AvgFetchDist is the mean host distance from a replica to the nearest
	// replica of each guest neighbor, under the placement in force at the
	// end of the run (local fetches count as distance 0).
	AvgFetchDist float64
}

// Run simulates T steps of c under the plan. On success the returned trace
// is verified reconstructible; on unrecoverable faults the error wraps
// ErrUnrecoverable and no trace is returned. MaxLoad is the largest
// per-step replica load of the steps run; a T = 0 run reports the initial
// placement's load.
func (ft *FaultTolerantSimulator) Run(c *sim.Computation, T int) (*FaultReport, error) {
	replicas := ft.Replicas
	if replicas == nil {
		replicas = singleReplicas(pebble.BalancedAssignment(c.G.N(), ft.Host.Graph.N()))
	}
	return (&engine{host: ft.Host, replicas: replicas, plan: ft.Plan, obs: ft.Obs, ft: true}).run(c, T)
}

// PlaceReplicas assigns r distinct random host processors to each of n
// guests, balancing load (total replica count r·n may exceed m; a host may
// hold replicas of several guests but at most one replica of each).
func PlaceReplicas(n, m, r int, rng *rand.Rand) ([][]int, error) {
	if r < 1 || r > m {
		return nil, fmt.Errorf("universal: replication factor %d outside [1,%d]", r, m)
	}
	replicas := make([][]int, n)
	for i := 0; i < n; i++ {
		perm := rng.Perm(m)
		replicas[i] = append([]int(nil), perm[:r]...)
	}
	return replicas, nil
}
