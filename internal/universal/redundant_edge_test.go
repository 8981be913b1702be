package universal

import "testing"

// TestRedundantStepRangeEdges pins the ends of the replica engine's step
// range: a T = 0 run reports the placement (load, replication and fetch
// distance) of a T = 1 run without charging a host step, and a negative T
// is an error rather than a panic.
func TestRedundantStepRangeEdges(t *testing.T) {
	comp, _, host, reps := ftFixture(t, 24, 2, 1, 3)
	rs := &FaultTolerantSimulator{Host: host, Replicas: reps}
	one, err := rs.Run(comp, 1)
	if err != nil {
		t.Fatal(err)
	}
	zero, err := rs.Run(comp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if zero.MaxLoad != one.MaxLoad || zero.Replication != one.Replication || zero.AvgFetchDist != one.AvgFetchDist {
		t.Errorf("T=0 placement (load %d, r %d, fetch %v) differs from T=1 (load %d, r %d, fetch %v)",
			zero.MaxLoad, zero.Replication, zero.AvgFetchDist, one.MaxLoad, one.Replication, one.AvgFetchDist)
	}
	if zero.MaxLoad == 0 || zero.AvgFetchDist == 0 {
		t.Errorf("T=0 run reports no placement: load %d, fetch %v", zero.MaxLoad, zero.AvgFetchDist)
	}
	if zero.HostSteps != 0 || len(zero.Trace.States) != 1 {
		t.Errorf("T=0 run charged %d host steps over %d trace rows", zero.HostSteps, len(zero.Trace.States))
	}
	if _, err := rs.Run(comp, -1); err == nil {
		t.Error("negative T accepted")
	}
}
