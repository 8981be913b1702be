package redblue

import (
	"math/rand"
	"testing"

	"universalnet/internal/pebble"
	"universalnet/internal/topology"
)

// BenchmarkCostedReplay prices one full costed replay — stream validation
// plus red-blue accounting under LRU eviction — of an n=64 embedding
// protocol on a 16-processor torus. Covered by the bench-compare gate.
func BenchmarkCostedReplay(b *testing.B) {
	pr := fixture(b, 1, 64, 3, 16, 3)
	sp := pr.Spec()
	model := DefaultCostModel(MinRed(sp) + 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol := NewLRU()
		cv, err := NewCostedValidator(sp, model, pol, Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, ops := range pr.Steps {
			if err := cv.AppendStep(ops); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := cv.Finish(); err != nil {
			b.Fatal(err)
		}
	}
	var ops int64
	for _, s := range pr.Steps {
		ops += int64(len(s))
	}
	b.ReportMetric(float64(ops), "ops/replay")
}

var sinkCosts *Costs

// BenchmarkCostedReplayBelady isolates the offline-policy path: Belady
// pre-scan plus replay.
func BenchmarkCostedReplayBelady(b *testing.B) {
	pr := fixture(b, 1, 64, 3, 16, 3)
	sp := pr.Spec()
	model := DefaultCostModel(MinRed(sp) + 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol := NewBelady(sp, pr.Steps)
		costs, err := ReplayCosted(sp, pr.Source(), model, pol, Options{})
		if err != nil {
			b.Fatal(err)
		}
		sinkCosts = costs
	}
}

// BenchmarkReplayCosted times the path perfbench replay's red-blue pass
// runs: ReplayCosted under LRU at r = MinRed+2 over a ChunkedLog of
// pebble's BenchmarkValidateSharded protocol (a 3-regular guest of
// n = 2·10⁴ on the d = 7 wrapped butterfly, m = 896, T = 2), decode
// included, with the validator running ahead of the machine. Unlike
// BenchmarkCostedReplay's, its possession bitset does not fit in L1. Run
// it at -cpu 1 too, where the two sides share one P.
func BenchmarkReplayCosted(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	guest, err := topology.RandomGuest(rng, 20000, 3)
	if err != nil {
		b.Fatal(err)
	}
	host, err := topology.WrappedButterfly(7)
	if err != nil {
		b.Fatal(err)
	}
	sp := pebble.Spec{Guest: guest, Host: host, T: 2}
	chunks := pebble.NewChunkedLog(pebble.ChunkedLogOptions{})
	defer chunks.Close()
	if err := pebble.StreamQueuedEmbeddingProtocol(guest, host, nil, sp.T, chunks); err != nil {
		b.Fatal(err)
	}
	model := DefaultCostModel(MinRed(sp) + 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		costs, err := ReplayCosted(sp, chunks.Source(), model, NewLRU(), Options{})
		if err != nil {
			b.Fatal(err)
		}
		sinkCosts = costs
	}
}
