package universal

import (
	"math/rand"
	"testing"

	"universalnet/internal/graph"
	"universalnet/internal/obs"
	"universalnet/internal/pebble"
	"universalnet/internal/routing"
	"universalnet/internal/sim"
	"universalnet/internal/topology"
)

func mustHost(t *testing.T) func(h *Host, err error) *Host {
	return func(h *Host, err error) *Host {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
}

func TestHostConstructors(t *testing.T) {
	bf := mustHost(t)(ButterflyHost(3))
	if bf.Graph.N() != 24 || !bf.Graph.IsConnected() {
		t.Errorf("butterfly host wrong: %v", bf.Graph)
	}
	th := mustHost(t)(TorusHost(49))
	if th.Graph.N() != 49 {
		t.Errorf("torus host wrong: %v", th.Graph)
	}
	eh := mustHost(t)(ExpanderHost(40, 4, 1))
	if eh.Graph.N() != 40 || !eh.Graph.IsConnected() {
		t.Errorf("expander host wrong: %v", eh.Graph)
	}
	rh := mustHost(t)(RingHost(12))
	if rh.Graph.N() != 12 {
		t.Errorf("ring host wrong: %v", rh.Graph)
	}
	ch := mustHost(t)(CCCHost(3))
	if ch.Graph.N() != 24 || !ch.Graph.IsRegular(3) {
		t.Errorf("CCC host wrong: %v", ch.Graph)
	}
	if _, err := TorusHost(50); err == nil {
		t.Error("non-square torus host accepted")
	}
}

// runAndVerify simulates the computation on the host and cross-checks the
// reconstructed trace against direct execution.
func runAndVerify(t *testing.T, host *Host, c *sim.Computation, T int) *RunReport {
	t.Helper()
	es := &EmbeddingSimulator{Host: host}
	rep, err := es.Run(c, T)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := c.Run(T)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace.Checksum() != direct.Checksum() {
		t.Fatal("simulated trace differs from direct execution")
	}
	if err := c.VerifyTrace(rep.Trace); err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestEmbeddingSimulatorCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	guest, err := topology.RandomGuest(rng, 48, 4)
	if err != nil {
		t.Fatal(err)
	}
	c := sim.MixMod(guest, rng)
	host := mustHost(t)(ButterflyHost(3)) // m = 24 < n = 48
	rep := runAndVerify(t, host, c, 6)
	if rep.MaxLoad != 2 {
		t.Errorf("max load = %d, want 2", rep.MaxLoad)
	}
	if rep.Slowdown < 1 {
		t.Errorf("slowdown %f < 1", rep.Slowdown)
	}
	if rep.HostSteps != rep.ComputeSteps+rep.RouteSteps {
		t.Error("step accounting inconsistent")
	}
}

// TestEmbeddingSimulatorConsultsSchedulesOncePerRun: a run routes its
// fixed relation once, so a 5-step run consults the schedule cache once
// (a miss), and a second run of the same relation on the same host hits.
func TestEmbeddingSimulatorConsultsSchedulesOncePerRun(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	guest, err := topology.RandomGuest(rng, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	comp := sim.MixMod(guest, rng)
	schedules := routing.NewScheduleCache(1<<20, obs.New())
	es := &EmbeddingSimulator{Host: mustHost(t)(TorusHost(16)), Schedules: schedules}
	first, err := es.Run(comp, 5)
	if err != nil {
		t.Fatal(err)
	}
	if st := schedules.Stats(); st.Misses != 1 || st.Hits != 0 {
		t.Errorf("first run: %d misses, %d hits; want 1 and 0", st.Misses, st.Hits)
	}
	second, err := es.Run(comp, 5)
	if err != nil {
		t.Fatal(err)
	}
	if st := schedules.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Errorf("second run: %d misses, %d hits; want 1 and 1", st.Misses, st.Hits)
	}
	if first.RouteSteps != second.RouteSteps {
		t.Errorf("replayed schedule charged %d route steps, routed one %d", second.RouteSteps, first.RouteSteps)
	}
}

func TestEmbeddingSimulatorOnTorusHost(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	guest, err := topology.RandomGuest(rng, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	c := sim.MixMod(guest, rng)
	host := mustHost(t)(TorusHost(16))
	rep := runAndVerify(t, host, c, 5)
	if rep.MaxLoad != 2 {
		t.Errorf("max load = %d", rep.MaxLoad)
	}
}

func TestEmbeddingSimulatorEqualSize(t *testing.T) {
	// m = n: load 1.
	rng := rand.New(rand.NewSource(3))
	guest, err := topology.RandomGuest(rng, 24, 4)
	if err != nil {
		t.Fatal(err)
	}
	c := sim.MixMod(guest, rng)
	host := mustHost(t)(ButterflyHost(3))
	rep := runAndVerify(t, host, c, 4)
	if rep.MaxLoad != 1 {
		t.Errorf("max load = %d, want 1", rep.MaxLoad)
	}
}

func TestEmbeddingSimulatorCustomAssignment(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	guest, err := topology.RandomGuest(rng, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	c := sim.MixMod(guest, rng)
	host := mustHost(t)(RingHost(6))
	f := make([]int, 12)
	for i := range f {
		f[i] = (i / 2) % 6
	}
	es := &EmbeddingSimulator{Host: host, F: f}
	rep, err := es.Run(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	direct, _ := c.Run(3)
	if rep.Trace.Checksum() != direct.Checksum() {
		t.Error("custom assignment broke the simulation")
	}
}

func TestEmbeddingSimulatorGuards(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	guest, err := topology.RandomGuest(rng, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	c := sim.MixMod(guest, rng)
	host := mustHost(t)(RingHost(6))
	es := &EmbeddingSimulator{Host: host, F: []int{0}}
	if _, err := es.Run(c, 2); err == nil {
		t.Error("short assignment accepted")
	}
	es = &EmbeddingSimulator{Host: host, F: make([]int, 12)}
	es.F[3] = 99
	if _, err := es.Run(c, 2); err == nil {
		t.Error("invalid host index accepted")
	}
	es = &EmbeddingSimulator{Host: host}
	if _, err := es.Run(c, -1); err == nil {
		t.Error("negative T accepted")
	}
}

func TestEmbeddingSimulatorZeroSteps(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	guest, err := topology.RandomGuest(rng, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	c := sim.MixMod(guest, rng)
	host := mustHost(t)(RingHost(4))
	rep, err := (&EmbeddingSimulator{Host: host}).Run(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.HostSteps != 0 || rep.Trace.T() != 0 {
		t.Errorf("zero-step run: %+v", rep)
	}
}

func TestSlowdownGrowsWithLoad(t *testing.T) {
	// Same guest on hosts of shrinking size: slowdown must increase.
	rng := rand.New(rand.NewSource(7))
	guest, err := topology.RandomGuest(rng, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	c := sim.MixMod(guest, rng)
	sBig := runAndVerify(t, mustHost(t)(ButterflyHost(4)), c, 4).Slowdown   // m=64
	sSmall := runAndVerify(t, mustHost(t)(ButterflyHost(3)), c, 4).Slowdown // m=24
	if sSmall <= sBig {
		t.Errorf("smaller host not slower: m=24 s=%.2f vs m=64 s=%.2f", sSmall, sBig)
	}
}

func TestTreeNodeCount(t *testing.T) {
	if got := treeNodeCount(2, 2); got != 13 { // 1+3+9
		t.Errorf("treeNodeCount(2,2) = %d, want 13", got)
	}
	if got := treeNodeCount(1, 3); got != 15 { // 1+2+4+8
		t.Errorf("treeNodeCount(1,3) = %d, want 15", got)
	}
}

func TestTreeCachedHostStructure(t *testing.T) {
	h, err := BuildTreeCachedHost(6, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if h.M() != 6*treeNodeCount(2, 3) {
		t.Errorf("m = %d", h.M())
	}
	if err := h.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	if !h.Graph.IsConnected() {
		t.Error("tree-cached host disconnected")
	}
	// Constant degree: ≤ c+3 (c+1 children + parent + ring).
	if h.Graph.MaxDegree() > h.C+3 {
		t.Errorf("max degree %d > c+3", h.Graph.MaxDegree())
	}
	if _, err := BuildTreeCachedHost(2, 2, 3); err == nil {
		t.Error("n=2 accepted")
	}
	if _, err := BuildTreeCachedHost(8, 8, 12); err == nil {
		t.Error("oversized host accepted")
	}
}

func TestTreeCachedHostConstantSlowdown(t *testing.T) {
	// Ring guest (c=2), depth 4.
	n, c, depth := 8, 2, 4
	h, err := BuildTreeCachedHost(n, c, depth)
	if err != nil {
		t.Fatal(err)
	}
	guest, err := topology.Ring(n)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := h.SimulateProtocol(guest)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pr.Validate(); err != nil {
		t.Fatal(err)
	}
	if pr.HostSteps() != depth*(c+2) {
		t.Errorf("host steps %d, want %d", pr.HostSteps(), depth*(c+2))
	}
	if got := pr.Slowdown(); got != float64(c+2) {
		t.Errorf("slowdown %f, want %d", got, c+2)
	}
}

func TestTreeCachedHostRegularGuest(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n, c, depth := 10, 3, 3
	guest, err := topology.RandomGuest(rng, n, c)
	if err != nil {
		t.Fatal(err)
	}
	h, err := BuildTreeCachedHost(n, c, depth)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := h.SimulateProtocol(guest)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Slowdown independent of n: rerun with larger n.
	n2 := 20
	guest2, err := topology.RandomGuest(rng, n2, c)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := BuildTreeCachedHost(n2, c, depth)
	if err != nil {
		t.Fatal(err)
	}
	pr2, err := h2.SimulateProtocol(guest2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pr2.Validate(); err != nil {
		t.Fatal(err)
	}
	if pr.Slowdown() != pr2.Slowdown() {
		t.Errorf("slowdown depends on n: %f vs %f", pr.Slowdown(), pr2.Slowdown())
	}
}

func TestTreeCachedHostGuards(t *testing.T) {
	h, err := BuildTreeCachedHost(6, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	big, err := topology.Ring(7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.SimulateProtocol(big); err == nil {
		t.Error("wrong guest size accepted")
	}
	dense, err := topology.Complete(6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.SimulateProtocol(dense); err == nil {
		t.Error("guest degree above c accepted")
	}
}

func TestRouterlessHostFailsGracefully(t *testing.T) {
	// A host whose router always errors must surface the error.
	g, err := topology.Ring(6)
	if err != nil {
		t.Fatal(err)
	}
	host := &Host{Name: "broken", Graph: g, Router: &failingRouter{}}
	rng := rand.New(rand.NewSource(9))
	guest, err := topology.RandomGuest(rng, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	c := sim.MixMod(guest, rng)
	if _, err := (&EmbeddingSimulator{Host: host}).Run(c, 2); err == nil {
		t.Error("router failure not propagated")
	}
}

type failingRouter struct{}

func (f *failingRouter) Route(*graph.Graph, *routing.Problem) (routing.Result, error) {
	return routing.Result{}, errFail
}
func (f *failingRouter) Name() string { return "fail" }

var errFail = &routingError{}

type routingError struct{}

func (e *routingError) Error() string { return "injected routing failure" }

func TestTreeCachedHostCarriesComputation(t *testing.T) {
	// The pipelined tournament protocol must carry the actual guest
	// computation: stateful replay against direct execution.
	rng := rand.New(rand.NewSource(21))
	n, c, depth := 8, 2, 3
	guest, err := topology.RandomGuest(rng, n, c)
	if err != nil {
		t.Fatal(err)
	}
	h, err := BuildTreeCachedHost(n, c, depth)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := h.SimulateProtocol(guest)
	if err != nil {
		t.Fatal(err)
	}
	comp := sim.MixMod(guest, rng)
	if err := pebble.VerifyCarries(pr, comp); err != nil {
		t.Fatal(err)
	}
}
