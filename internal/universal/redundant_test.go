package universal

import (
	"math/rand"
	"testing"

	"universalnet/internal/sim"
	"universalnet/internal/topology"
)

func TestPlaceReplicas(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	reps, err := PlaceReplicas(10, 20, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 10 {
		t.Fatalf("rows = %d", len(reps))
	}
	for i, r := range reps {
		if len(r) != 3 {
			t.Errorf("guest %d has %d replicas", i, len(r))
		}
		seen := make(map[int]bool)
		for _, q := range r {
			if q < 0 || q >= 20 || seen[q] {
				t.Errorf("guest %d bad replica set %v", i, r)
			}
			seen[q] = true
		}
	}
	if _, err := PlaceReplicas(10, 20, 0, rng); err == nil {
		t.Error("r=0 accepted")
	}
	if _, err := PlaceReplicas(10, 20, 21, rng); err == nil {
		t.Error("r>m accepted")
	}
}

func TestRedundantSimulatorMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	guest, err := topology.RandomGuest(rng, 24, 4)
	if err != nil {
		t.Fatal(err)
	}
	comp := sim.MixMod(guest, rng)
	direct, err := comp.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	host, err := ButterflyHost(4) // m = 64 > n = 24
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{1, 2, 4} {
		reps, err := PlaceReplicas(24, 64, r, rng)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := (&FaultTolerantSimulator{Host: host, Replicas: reps}).Run(comp, 4)
		if err != nil {
			t.Fatalf("r=%d: %v", r, err)
		}
		if rep.Trace.Checksum() != direct.Checksum() {
			t.Fatalf("r=%d: redundant simulation diverged", r)
		}
		if rep.Replication != r {
			t.Errorf("replication reported %d, want %d", rep.Replication, r)
		}
	}
}

func TestRedundantReducesFetchDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	guest, err := topology.RandomGuest(rng, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	comp := sim.MixMod(guest, rng)
	host, err := ButterflyHost(5) // m = 160 ≫ n = 16
	if err != nil {
		t.Fatal(err)
	}
	var prev float64 = -1
	for _, r := range []int{1, 4, 16} {
		reps, err := PlaceReplicas(16, 160, r, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := (&FaultTolerantSimulator{Host: host, Replicas: reps}).Run(comp, 2)
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 && rep.AvgFetchDist > prev {
			t.Errorf("r=%d: fetch distance %f above previous %f", r, rep.AvgFetchDist, prev)
		}
		prev = rep.AvgFetchDist
	}
}

func TestRedundantSimulatorGuards(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	guest, err := topology.RandomGuest(rng, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	comp := sim.MixMod(guest, rng)
	host, err := RingHost(6)
	if err != nil {
		t.Fatal(err)
	}
	rs := &FaultTolerantSimulator{Host: host, Replicas: [][]int{{0}}}
	if _, err := rs.Run(comp, 2); err == nil {
		t.Error("wrong replica table size accepted")
	}
	bad := make([][]int, 8)
	for i := range bad {
		bad[i] = []int{0}
	}
	bad[3] = []int{}
	rs = &FaultTolerantSimulator{Host: host, Replicas: bad}
	if _, err := rs.Run(comp, 2); err == nil {
		t.Error("empty replica set accepted")
	}
	bad[3] = []int{0, 0}
	rs = &FaultTolerantSimulator{Host: host, Replicas: bad}
	if _, err := rs.Run(comp, 2); err == nil {
		t.Error("duplicate replica accepted")
	}
	bad[3] = []int{99}
	rs = &FaultTolerantSimulator{Host: host, Replicas: bad}
	if _, err := rs.Run(comp, 2); err == nil {
		t.Error("invalid replica host accepted")
	}
}

func TestRedundantDegenerateToEmbedding(t *testing.T) {
	// r = 1 with the balanced placement reproduces the embedding simulator
	// behaviour (same trace, similar step accounting shape).
	rng := rand.New(rand.NewSource(5))
	guest, err := topology.RandomGuest(rng, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	comp := sim.MixMod(guest, rng)
	host, err := TorusHost(16)
	if err != nil {
		t.Fatal(err)
	}
	reps := make([][]int, 32)
	for i := range reps {
		reps[i] = []int{i % 16}
	}
	rep, err := (&FaultTolerantSimulator{Host: host, Replicas: reps}).Run(comp, 3)
	if err != nil {
		t.Fatal(err)
	}
	es, err := (&EmbeddingSimulator{Host: host}).Run(comp, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace.Checksum() != es.Trace.Checksum() {
		t.Error("r=1 redundant trace differs from embedding trace")
	}
}
