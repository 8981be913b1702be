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
	sp := wideSpec(b)
	pr, err := BuildQueuedEmbeddingProtocol(sp.Guest, sp.Host, nil, sp.T)
	if err != nil {
		b.Fatal(err)
	}
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

// wideSpec is the wide-step instance of BenchmarkValidateSharded and
// BenchmarkValidateSource: a 3-regular guest of n = 2·10⁴ on the d = 7
// wrapped butterfly (m = 896), T = 2.
func wideSpec(b *testing.B) Spec {
	rng := rand.New(rand.NewSource(3))
	guest, err := topology.RandomGuest(rng, 20000, 3)
	if err != nil {
		b.Fatal(err)
	}
	host, err := topology.WrappedButterfly(7)
	if err != nil {
		b.Fatal(err)
	}
	return Spec{Guest: guest, Host: host, T: 2}
}

// BenchmarkValidateSource times the path perfbench replay's State pass
// runs: ValidateSource over a ChunkedLog of BenchmarkValidateSharded's
// protocol, decode included, with the core running ahead of State's
// bookkeeping. Run it at -cpu 1 too, where the two sides share one P.
func BenchmarkValidateSource(b *testing.B) {
	sp := wideSpec(b)
	chunks := NewChunkedLog(ChunkedLogOptions{})
	defer chunks.Close()
	if err := StreamQueuedEmbeddingProtocol(sp.Guest, sp.Host, nil, sp.T, chunks); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := ValidateSource(sp, chunks.Source())
		if err != nil {
			b.Fatal(err)
		}
		if st.HostStep() != chunks.Steps() {
			b.Fatalf("validated %d host steps, want %d", st.HostStep(), chunks.Steps())
		}
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
