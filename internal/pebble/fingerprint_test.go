package pebble

import (
	"fmt"
	"math/rand"
	"testing"

	"universalnet/internal/graph"
	"universalnet/internal/topology"
)

// builderPin is one builder's output on one instance: the ChunkedLog
// fingerprint of its step stream and its host-step count.
type builderPin struct {
	fp    uint64
	steps int
}

func (p builderPin) String() string { return fmt.Sprintf("{%#x, %d}", p.fp, p.steps) }

// pinProtocol fingerprints a materialized protocol's steps.
func pinProtocol(t *testing.T, pr *Protocol) builderPin {
	t.Helper()
	log := NewChunkedLog(ChunkedLogOptions{TargetChunkBytes: 4 << 10})
	defer log.Close()
	for _, ops := range pr.Steps {
		if err := log.AppendStep(ops); err != nil {
			t.Fatal(err)
		}
	}
	return builderPin{fp: log.Fingerprint(), steps: len(pr.Steps)}
}

// TestBuilderFingerprints pins the exact output of the four embedding
// builders — phase, pipelined, queued and multicast — on small instances
// that cover 2- and 4-regular guests, four host families, a shuffled
// assignment and a guest smaller than its host. Any change to a builder's
// schedule, however small, moves a fingerprint; a refactor must not.
func TestBuilderFingerprints(t *testing.T) {
	regular := func(seed int64, n, c int) func(t *testing.T) *graph.Graph {
		return func(t *testing.T) *graph.Graph {
			g, err := topology.RandomRegular(rand.New(rand.NewSource(seed)), n, c)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
	}
	butterfly := func(d int) func(t *testing.T) *graph.Graph {
		return func(t *testing.T) *graph.Graph {
			g, err := topology.WrappedButterfly(d)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
	}
	torus := func(t *testing.T) *graph.Graph {
		g, err := topology.Torus(16)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	ring := func(t *testing.T) *graph.Graph {
		g, err := topology.Ring(7)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	cases := []struct {
		name  string
		guest func(t *testing.T) *graph.Graph
		host  func(t *testing.T) *graph.Graph
		T     int
		// shuffle, when non-zero, seeds a RandomizedAssignment in place of
		// the balanced one.
		shuffle                     int64
		phase, piped, queued, multi builderPin
	}{
		{"n8-c2-bfly3-under", regular(1, 8, 2), butterfly(3), 3, 0,
			builderPin{0x4cd229d10df50f97, 17}, builderPin{0xd7d3ff2379f7af99, 16}, builderPin{0x743af1f7b22597, 15}, builderPin{0x87dfc66e6e9dc3d7, 17}},
		{"n32-c4-bfly3", regular(2, 32, 4), butterfly(3), 4, 0,
			builderPin{0xfd8efdeee1d2f77d, 134}, builderPin{0x4d51d386d1a5f955, 134}, builderPin{0xe84e8d9fba43c119, 158}, builderPin{0xda37671f8b806829, 116}},
		{"n61-c2-bfly3", regular(3, 61, 2), butterfly(3), 3, 0,
			builderPin{0x2a58be431ad5ea80, 89}, builderPin{0xe821b3a7647db2c6, 85}, builderPin{0x3246c7dd4ace89c8, 97}, builderPin{0x6edea2be5ea0a62a, 79}},
		{"n72-c4-bfly3-shuffled", regular(4, 72, 4), butterfly(3), 3, 5,
			builderPin{0xa7c1cacf8e742c1b, 161}, builderPin{0x6c1d9474c86f6121, 164}, builderPin{0x8af266b678087ebb, 227}, builderPin{0x4af5b61a7fdf3087, 123}},
		{"n40-c4-bfly4-under", regular(5, 40, 4), butterfly(4), 3, 0,
			builderPin{0x5abe7809dae47307, 71}, builderPin{0xff3421e0d1dd2497, 72}, builderPin{0x6041c8d9d6893e07, 79}, builderPin{0xef76cd68d5fa7587, 61}},
		{"n122-c4-bfly4", regular(6, 122, 4), butterfly(4), 2, 0,
			builderPin{0x908c3c69d16c033d, 96}, builderPin{0x8af94ee5e9d90a3b, 93}, builderPin{0x1008d44da8643235, 126}, builderPin{0x498461cbc4a5c99f, 83}},
		{"n96-c2-bfly4-shuffled", regular(7, 96, 2), butterfly(4), 3, 11,
			builderPin{0xbc1e92ce94e4511b, 84}, builderPin{0x26e32b47e27acc7b, 74}, builderPin{0x5b506528352537bf, 82}, builderPin{0x64f2f0e965795a63, 76}},
		{"n10-c4-torus16-under", regular(8, 10, 4), torus, 3, 0,
			builderPin{0x385f92da9f11b705, 63}, builderPin{0x21a3b90f7b69ea99, 60}, builderPin{0x632251e0c799a1fd, 73}, builderPin{0x6e34d389d83c5ccd, 41}},
		{"n50-c4-torus16", regular(9, 50, 4), torus, 3, 0,
			builderPin{0x5db60170f6e14d5f, 284}, builderPin{0x26d354139f6c6411, 286}, builderPin{0x7057916b211d3b17, 282}, builderPin{0x6ac1b2f6fe2756af, 196}},
		{"n96-c2-torus16", regular(10, 96, 2), torus, 2, 0,
			builderPin{0x150ef7341ffec033, 117}, builderPin{0xfab8d4182f2c88af, 118}, builderPin{0x77f6b8ba47892c77, 121}, builderPin{0xe728c1841824a929, 102}},
		{"n21-c2-ring7", regular(11, 21, 2), ring, 4, 0,
			builderPin{0x5e44c5b03728aca9, 102}, builderPin{0xe2b63167a0408011, 104}, builderPin{0xd2da486e4f93c831, 120}, builderPin{0x9bc638c7ac3f7fa5, 84}},
		{"n40-c4-ring7-shuffled", regular(12, 40, 4), ring, 3, 13,
			builderPin{0x9e7a4943dc7a5595, 196}, builderPin{0xb254c5bd1680ac73, 182}, builderPin{0xa95d07fda3b5db25, 228}, builderPin{0xdf61981f64189ec5, 152}},
	}
	builders := []struct {
		name  string
		build func(guest, host *graph.Graph, f []int, T int) (*Protocol, error)
	}{
		{"phase", BuildEmbeddingProtocol},
		{"pipelined", BuildPipelinedProtocol},
		{"queued", BuildQueuedEmbeddingProtocol},
		{"multicast", BuildMulticastProtocol},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			guest, host := tc.guest(t), tc.host(t)
			var f []int
			if tc.shuffle != 0 {
				f = RandomizedAssignment(guest.N(), host.N(), tc.shuffle)
			}
			want := []builderPin{tc.phase, tc.piped, tc.queued, tc.multi}
			got := make([]builderPin, len(builders))
			for k, b := range builders {
				pr, err := b.build(guest, host, f, tc.T)
				if err != nil {
					t.Fatalf("%s: %v", b.name, err)
				}
				if _, err := pr.Validate(); err != nil {
					t.Fatalf("%s: protocol invalid: %v", b.name, err)
				}
				got[k] = pinProtocol(t, pr)
			}
			for k, b := range builders {
				if got[k] != want[k] {
					t.Errorf("%s builder: got %v, want %v (all four: %v, %v, %v, %v)",
						b.name, got[k], want[k], got[0], got[1], got[2], got[3])
				}
			}
		})
	}
}
