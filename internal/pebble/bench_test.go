package pebble

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	"universalnet/internal/topology"
)

// BenchmarkValidateSharded times the legality engine alone on wide host
// steps: the queued builder's schedule for a 3-regular guest of n = 2·10⁴
// on the d = 7 wrapped butterfly (m = 896, a few hundred ops per step),
// materialized before the timer starts, so neither building nor decoding
// is measured. shards=1 is the sequential core; shards=2 runs the windowed
// barrier, whose per-shard state must not share cache lines.
func BenchmarkValidateSharded(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	guest, err := topology.RandomGuest(rng, 20000, 3)
	if err != nil {
		b.Fatal(err)
	}
	host, err := topology.WrappedButterfly(7)
	if err != nil {
		b.Fatal(err)
	}
	pr, err := BuildQueuedEmbeddingProtocol(guest, host, nil, 2)
	if err != nil {
		b.Fatal(err)
	}
	sp := pr.Spec()
	for _, shards := range []int{1, 2} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				stats, err := ValidateSharded(sp, pr.Source(), ShardedOptions{Shards: shards})
				if err != nil {
					b.Fatal(err)
				}
				if stats.HostSteps != len(pr.Steps) {
					b.Fatalf("validated %d host steps, want %d", stats.HostSteps, len(pr.Steps))
				}
			}
		})
	}
}

// BenchmarkChunkDecode times the chunk decoder alone: one pass of a
// ChunkedLog source over BenchmarkStreamingPipeline's protocol (a 3-regular
// guest of n = 2048 on the d = 4 wrapped butterfly, T = 2, queued builder),
// archived in memory before the timer starts.
func BenchmarkChunkDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	guest, err := topology.RandomGuest(rng, 2048, 3)
	if err != nil {
		b.Fatal(err)
	}
	host, err := topology.WrappedButterfly(4)
	if err != nil {
		b.Fatal(err)
	}
	chunks := NewChunkedLog(ChunkedLogOptions{})
	defer chunks.Close()
	if err := StreamQueuedEmbeddingProtocol(guest, host, nil, 2, chunks); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := chunks.Source()
		steps := 0
		for {
			_, err := src.NextStep()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			steps++
		}
		if steps != chunks.Steps() {
			b.Fatalf("decoded %d steps, want %d", steps, chunks.Steps())
		}
	}
}
