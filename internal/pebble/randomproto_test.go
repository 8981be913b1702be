package pebble

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"universalnet/internal/topology"
)

func TestRandomProtocolIsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	guest, err := topology.RandomGuest(rng, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	host, err := topology.Ring(6)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := RandomProtocol(guest, host, 3, rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := pr.Validate()
	if err != nil {
		t.Fatalf("random protocol invalid: %v", err)
	}
	// All final pebbles generated.
	for i := 0; i < 12; i++ {
		if len(st.Generators(i, 2)) == 0 {
			t.Errorf("P%d has no generator for the final step", i)
		}
	}
	if pr.Inefficiency() <= 0 {
		t.Error("inefficiency not positive")
	}
}

func TestRandomProtocolFragmentsAnalyzable(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	guest, err := topology.RandomGuest(rng, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	host, err := topology.Torus(9)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := RandomProtocol(guest, host, 4, rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := pr.Validate()
	if err != nil {
		t.Fatal(err)
	}
	for t0 := 0; t0 < 4; t0++ {
		frag, err := st.ExtractFragment(t0, st.PickLightest(t0))
		if err != nil {
			t.Fatalf("t0=%d: %v", t0, err)
		}
		if err := frag.Validate(); err != nil {
			t.Fatalf("t0=%d: %v", t0, err)
		}
		// Lemma 3.3 edge inclusion on a random protocol.
		for i := 0; i < 10; i++ {
			dset := make(map[int]bool)
			for _, x := range frag.D[i] {
				dset[x] = true
			}
			for _, j := range guest.Neighbors(i) {
				if !dset[j] {
					t.Fatalf("t0=%d: neighbor %d of %d missing from D", t0, j, i)
				}
			}
		}
	}
}

func TestRandomProtocolPropertyFuzz(t *testing.T) {
	// Across seeds: random protocols always validate and respect the
	// op-count/pebble-count relation used by Lemma 3.12.
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		guest, err := topology.RandomGuest(r, 8, 4)
		if err != nil {
			return false
		}
		host, err := topology.Ring(4 + r.Intn(4))
		if err != nil {
			return false
		}
		pr, err := RandomProtocol(guest, host, 1+r.Intn(3), r, 0)
		if err != nil {
			return false
		}
		st, err := pr.Validate()
		if err != nil {
			return false
		}
		// Pebble placements ≤ ops + initial n·m.
		return st.PebbleCount() <= pr.OpCount()+guest.N()*host.N()
	}
	cfg := &quick.Config{MaxCount: 15, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestRandomProtocolGuards(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	guest, err := topology.RandomGuest(rng, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	host, err := topology.Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RandomProtocol(guest, host, 0, rng, 0); err == nil {
		t.Error("T=0 accepted")
	}
	// Tiny step budget must fail loudly.
	if _, err := RandomProtocol(guest, host, 3, rng, 2); err == nil {
		t.Error("impossible budget accepted")
	}
}

func TestPropertyRandomProtocolJSONRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		guest, err := topology.RandomGuest(rng, 8, 4)
		if err != nil {
			t.Fatal(err)
		}
		host, err := topology.Ring(4)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := RandomProtocol(guest, host, 2, rng, 0)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := pr.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadBinary(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := back.Validate(); err != nil {
			t.Fatalf("seed %d: round-tripped protocol invalid: %v", seed, err)
		}
		if back.OpCount() != pr.OpCount() || back.HostSteps() != pr.HostSteps() {
			t.Fatalf("seed %d: shape changed", seed)
		}
	}
}
