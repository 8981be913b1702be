package pebble

import (
	"math/rand"
	"testing"

	"universalnet/internal/sim"
	"universalnet/internal/topology"
)

// The stateful-replay tests close the loop between the pebble model and the
// computation engine: every protocol this package can produce must CARRY
// the actual computation, not just its dependency structure.

func TestEmbeddingProtocolCarriesComputation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	guest, err := topology.RandomGuest(rng, 24, 4)
	if err != nil {
		t.Fatal(err)
	}
	host, err := topology.WrappedButterfly(3)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := BuildEmbeddingProtocol(guest, host, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	comp := sim.MixMod(guest, rng)
	if err := VerifyCarries(pr, comp); err != nil {
		t.Fatal(err)
	}
}

func TestPipelinedProtocolCarriesComputation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	guest, err := topology.RandomGuest(rng, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	host, err := topology.Torus(16)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := BuildPipelinedProtocol(guest, host, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	comp := sim.MixMod(guest, rng)
	if err := VerifyCarries(pr, comp); err != nil {
		t.Fatal(err)
	}
}

func TestRandomProtocolCarriesComputation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	guest, err := topology.RandomGuest(rng, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	host, err := topology.Ring(5)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := RandomProtocol(guest, host, 3, rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	comp := sim.MixMod(guest, rng)
	if err := VerifyCarries(pr, comp); err != nil {
		t.Fatal(err)
	}
}

func TestReplayRejectsWrongGuest(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	guest, err := topology.RandomGuest(rng, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	other, err := topology.Ring(8)
	if err != nil {
		t.Fatal(err)
	}
	host, err := topology.Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := BuildEmbeddingProtocol(guest, host, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	comp := sim.MixMod(other, rng)
	if _, err := StatefulReplay(pr, comp); err == nil {
		t.Error("wrong-guest computation accepted")
	}
}

func TestReplayDetectsBrokenDataflow(t *testing.T) {
	// A structurally valid-looking protocol with a receive whose sender
	// never held the state: construct manually and check the replay errors.
	guest := tinyGuest(t)
	host := tinyHost(t, 3)
	pr, err := BuildEmbeddingProtocol(guest, host, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	comp := sim.MixMod(guest, rand.New(rand.NewSource(5)))
	// Remove every op from the first distribution step (breaks dataflow but
	// keeps per-step legality of the remaining ops until generation needs
	// the missing pebbles — the replay must fail one way or the other).
	c := clone(pr)
	for si := range c.Steps {
		hasSend := false
		for _, op := range c.Steps[si] {
			if op.Kind == Send {
				hasSend = true
			}
		}
		if hasSend {
			c.Steps[si] = nil
			break
		}
	}
	if err := VerifyCarries(c, comp); err == nil {
		t.Error("broken dataflow not detected")
	}
}

func TestTreeCacheProtocolCarriesComputation(t *testing.T) {
	// Cross-package in spirit: the tree-cached host's protocol is produced
	// in internal/universal, but its carrying property is checked here via
	// a protocol of the same shape (deep pipelined tournament) built through
	// the random builder on a tree-like host.
	rng := rand.New(rand.NewSource(6))
	guest, err := topology.Ring(8)
	if err != nil {
		t.Fatal(err)
	}
	host, err := topology.CompleteBinaryTree(3)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := RandomProtocol(guest, host, 2, rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	comp := sim.MixMod(guest, rng)
	if err := VerifyCarries(pr, comp); err != nil {
		t.Fatal(err)
	}
}
