package universal

import (
	"fmt"
	"math/rand"

	"universalnet/internal/sim"
)

// Redundant simulation — the m ≥ n regime. The paper's §1 observes that
// dynamic embeddings (several representatives per guest processor) increase
// efficiency when m > n ([14]: an n^{1+ε}-size universal network with
// constant slowdown) but not when m ≤ n (this paper's tightness result).
// RedundantSimulator realizes the simplest dynamic scheme: every guest
// processor is simulated by r replicas placed on distinct host processors;
// each replica recomputes the guest step locally, and every replica fetches
// each neighbor configuration from the NEAREST replica of that neighbor.
// Replication multiplies compute work by r but shrinks the routing
// distances — the trade the m > n regime exploits.
type RedundantSimulator struct {
	Host *Host
	// Replicas[i] lists the host processors simulating guest i (non-empty,
	// distinct). Use PlaceReplicas for a random balanced placement.
	Replicas [][]int
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

// RedundantReport extends RunReport with replica statistics.
type RedundantReport struct {
	RunReport
	Replication  int     // largest replica count of any guest
	AvgFetchDist float64 // mean host distance of neighbor fetches per step
}

// Run simulates T steps of c with replication, verifying against direct
// execution via the returned trace (states are taken from replica 0 of each
// guest; all replicas are checked for agreement). It is the fault-free path
// of FaultTolerantSimulator, which also defines the nearest-replica fetches.
func (rs *RedundantSimulator) Run(c *sim.Computation, T int) (*RedundantReport, error) {
	// FaultTolerantSimulator reads a nil table as one replica per guest; a
	// redundant run needs the table.
	if n := c.G.N(); len(rs.Replicas) != n {
		return nil, fmt.Errorf("universal: replica table has %d rows for %d guests", len(rs.Replicas), n)
	}
	fr, err := (&FaultTolerantSimulator{Host: rs.Host, Replicas: rs.Replicas}).Run(c, T)
	if err != nil {
		return nil, err
	}
	return &RedundantReport{RunReport: fr.RunReport, Replication: fr.Replication, AvgFetchDist: fr.AvgFetchDist}, nil
}
