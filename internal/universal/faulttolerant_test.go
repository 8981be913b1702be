package universal

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"universalnet/internal/faults"
	"universalnet/internal/graph"
	"universalnet/internal/routing"
	"universalnet/internal/sim"
	"universalnet/internal/topology"
)

// ftFixture builds a random guest, its direct trace, and a butterfly host
// with replicated placement.
func ftFixture(t *testing.T, n, r, T int, seed int64) (*sim.Computation, *sim.Trace, *Host, [][]int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	guest, err := topology.RandomGuest(rng, n, 4)
	if err != nil {
		t.Fatal(err)
	}
	comp := sim.MixMod(guest, rng)
	direct, err := comp.Run(T)
	if err != nil {
		t.Fatal(err)
	}
	host, err := ButterflyHost(4) // m = 64
	if err != nil {
		t.Fatal(err)
	}
	reps, err := PlaceReplicas(n, host.Graph.N(), r, rng)
	if err != nil {
		t.Fatal(err)
	}
	return comp, direct, host, reps
}

func TestFaultTolerantNoFaultsMatchesDirect(t *testing.T) {
	comp, direct, host, reps := ftFixture(t, 24, 2, 4, 1)
	rep, err := (&FaultTolerantSimulator{Host: host, Replicas: reps}).Run(comp, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace.Checksum() != direct.Checksum() {
		t.Fatal("fault-free run diverged from direct execution")
	}
	if rep.Counters != (faults.Counters{}) {
		t.Errorf("fault-free run has nonzero counters: %v", rep.Counters)
	}
	if rep.SurvivingHosts != 64 || rep.InitialHosts != 64 {
		t.Errorf("hosts: %d/%d", rep.SurvivingHosts, rep.InitialHosts)
	}
}

func TestFaultTolerantCrashFailoverRecovers(t *testing.T) {
	comp, direct, host, reps := ftFixture(t, 24, 3, 5, 2)
	// Crash guest 0's primary and one other replica host: both recoverable.
	second := reps[1][0]
	if second == reps[0][0] {
		second = reps[1][1]
	}
	plan := &faults.Plan{
		Seed:    7,
		Crashes: []faults.Crash{{Host: reps[0][0], Step: 2}, {Host: second, Step: 3}},
	}
	rep, err := (&FaultTolerantSimulator{Host: host, Replicas: reps, Plan: plan}).Run(comp, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace.Checksum() != direct.Checksum() {
		t.Fatal("recovered trace differs from direct execution")
	}
	if rep.Counters.Crashed != 2 {
		t.Errorf("Crashed = %d, want 2", rep.Counters.Crashed)
	}
	if rep.Counters.FailedOver < 1 {
		t.Errorf("FailedOver = %d, want ≥ 1 (guest 0's primary crashed)", rep.Counters.FailedOver)
	}
	if rep.Counters.ReEmbedded < 1 {
		t.Errorf("ReEmbedded = %d, want ≥ 1 (replication degree restored)", rep.Counters.ReEmbedded)
	}
	if rep.SurvivingHosts != 62 {
		t.Errorf("SurvivingHosts = %d, want 62", rep.SurvivingHosts)
	}
}

func TestFaultTolerantUnrecoverableWithoutReplicas(t *testing.T) {
	comp, _, host, _ := ftFixture(t, 24, 1, 4, 3)
	// Nil Replicas ⇒ balanced single assignment; crashing host 0 kills the
	// only copy of guest 0.
	plan := &faults.Plan{Crashes: []faults.Crash{{Host: 0, Step: 2}}}
	_, err := (&FaultTolerantSimulator{Host: host, Plan: plan}).Run(comp, 4)
	if !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("err = %v, want ErrUnrecoverable", err)
	}
}

func TestFaultTolerantUnrecoverableAllReplicasCrash(t *testing.T) {
	comp, _, host, reps := ftFixture(t, 24, 2, 4, 4)
	plan := &faults.Plan{Crashes: []faults.Crash{
		{Host: reps[5][0], Step: 2},
		{Host: reps[5][1], Step: 2},
	}}
	_, err := (&FaultTolerantSimulator{Host: host, Replicas: reps, Plan: plan}).Run(comp, 4)
	if !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("err = %v, want ErrUnrecoverable", err)
	}
}

func TestFaultTolerantMessageFaultsRecovered(t *testing.T) {
	comp, direct, host, reps := ftFixture(t, 24, 2, 4, 5)
	plan := &faults.Plan{Seed: 11, DropRate: 0.1, DupRate: 0.05, CorruptRate: 0.05, Onset: 1}
	rep, err := (&FaultTolerantSimulator{Host: host, Replicas: reps, Plan: plan}).Run(comp, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace.Checksum() != direct.Checksum() {
		t.Fatal("lossy run diverged from direct execution")
	}
	if rep.Counters.Injected == 0 || rep.Counters.Retried == 0 {
		t.Errorf("expected injected+retried faults, got %v", rep.Counters)
	}
	// Retries cost route steps: the lossy run must be at least as slow as
	// the clean one.
	clean, err := (&FaultTolerantSimulator{Host: host, Replicas: reps}).Run(comp, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RouteSteps < clean.RouteSteps {
		t.Errorf("lossy route steps %d < clean %d", rep.RouteSteps, clean.RouteSteps)
	}
}

func TestFaultTolerantLinkFailure(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	guest, err := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 0}})
	if err != nil {
		t.Fatal(err)
	}
	comp := sim.MixMod(guest, rng)
	direct, err := comp.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	host, err := RingHost(8)
	if err != nil {
		t.Fatal(err)
	}
	reps := [][]int{{0}, {2}, {4}, {6}}
	plan := &faults.Plan{LinkFailures: []faults.LinkFailure{{U: 0, V: 1, Step: 2}}}
	rep, err := (&FaultTolerantSimulator{Host: host, Replicas: reps, Plan: plan}).Run(comp, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace.Checksum() != direct.Checksum() {
		t.Fatal("link-failure run diverged from direct execution")
	}
	if rep.Counters.LinksDown != 1 {
		t.Errorf("LinksDown = %d, want 1", rep.Counters.LinksDown)
	}
	// The ring minus one edge is a path: routing costs must not shrink.
	clean, err := (&FaultTolerantSimulator{Host: host, Replicas: reps}).Run(comp, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RouteSteps < clean.RouteSteps {
		t.Errorf("degraded route steps %d < clean %d", rep.RouteSteps, clean.RouteSteps)
	}
}

func TestFaultTolerantDeterministic(t *testing.T) {
	comp, _, host, reps := ftFixture(t, 24, 3, 5, 7)
	plan, err := faults.Scenario("chaos", 13, host.Graph.N(), 5)
	if err != nil {
		t.Fatal(err)
	}
	run := func() (*FaultReport, error) {
		return (&FaultTolerantSimulator{Host: host, Replicas: reps, Plan: plan}).Run(comp, 5)
	}
	a, errA := run()
	b, errB := run()
	if (errA == nil) != (errB == nil) {
		t.Fatalf("divergent outcomes: %v vs %v", errA, errB)
	}
	if errA != nil {
		if !errors.Is(errA, ErrUnrecoverable) {
			t.Fatalf("unexpected error class: %v", errA)
		}
		return // deterministic failure is acceptable for chaos
	}
	if a.Counters != b.Counters {
		t.Errorf("counters differ across identical runs: %v vs %v", a.Counters, b.Counters)
	}
	if a.Trace.Checksum() != b.Trace.Checksum() || a.RouteSteps != b.RouteSteps {
		t.Error("trace or cost differ across identical runs")
	}
}

// TestNearestReplicaFetchDistance pins the nearest-replica selection of
// a fault-free FaultTolerantSimulator run with a hand-computed instance:
// two adjacent guests on an 8-ring, replicas at hosts {0} and {3, 7}. The
// three fetches travel distances 1 (0←7), 3 (3←0) and 1 (7←0): average
// 5/3. The relation ships guest 0 to hosts 3 and 7, and guest 1 to host 0
// from its nearer replica, host 7.
func TestNearestReplicaFetchDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	guest, err := graph.FromEdges(2, []graph.Edge{{U: 0, V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	comp := sim.MixMod(guest, rng)
	direct, err := comp.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	host, err := RingHost(8)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingRouter{inner: host.Router}
	host.Router = rec
	rep, err := (&FaultTolerantSimulator{Host: host, Replicas: [][]int{{0}, {3, 7}}}).Run(comp, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []routing.Pair{{Src: 0, Dst: 3}, {Src: 0, Dst: 7}, {Src: 7, Dst: 0}}
	if len(rec.problems) != 1 || !slices.Equal(rec.problems[0], want) {
		t.Errorf("routed %v, want the relation %v once", rec.problems, want)
	}
	if want := 5.0 / 3.0; math.Abs(rep.AvgFetchDist-want) > 1e-9 {
		t.Errorf("AvgFetchDist = %v, want %v (nearest-replica selection broken)", rep.AvgFetchDist, want)
	}
	if rep.Trace.Checksum() != direct.Checksum() {
		t.Fatal("redundant trace diverged")
	}
}

// TestFailoverAfterReplicaHostRemoved covers the failover path end to end:
// the host holding a guest's primary replica is removed mid-run and the
// nearest surviving replica takes over without corrupting the trace.
func TestFailoverAfterReplicaHostRemoved(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	guest, err := graph.FromEdges(2, []graph.Edge{{U: 0, V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	comp := sim.MixMod(guest, rng)
	direct, err := comp.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	host, err := RingHost(8)
	if err != nil {
		t.Fatal(err)
	}
	// Guest 0 replicated at {0, 4}: removing host 0 must promote host 4.
	plan := &faults.Plan{Crashes: []faults.Crash{{Host: 0, Step: 3}}}
	ft := &FaultTolerantSimulator{Host: host, Replicas: [][]int{{0, 4}, {2, 6}}, Plan: plan}
	rep, err := ft.Run(comp, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace.Checksum() != direct.Checksum() {
		t.Fatal("failover trace diverged from direct execution")
	}
	if rep.Counters.FailedOver != 1 {
		t.Errorf("FailedOver = %d, want 1", rep.Counters.FailedOver)
	}
	if rep.Counters.ReEmbedded != 1 {
		t.Errorf("ReEmbedded = %d, want 1", rep.Counters.ReEmbedded)
	}
	if rep.SurvivingHosts != 7 {
		t.Errorf("SurvivingHosts = %d, want 7", rep.SurvivingHosts)
	}
}
