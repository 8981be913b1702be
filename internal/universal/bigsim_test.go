package universal

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"universalnet/internal/pebble"
	"universalnet/internal/topology"
)

func bigsimFixture(t testing.TB, n int) (*Host, func() *pebble.ChunkedLog) {
	t.Helper()
	host, err := ButterflyHost(4)
	if err != nil {
		t.Fatal(err)
	}
	return host, func() *pebble.ChunkedLog {
		return pebble.NewChunkedLog(pebble.ChunkedLogOptions{
			TargetChunkBytes: 32 << 10,
			MemBudgetBytes:   64 << 10,
			SpillDir:         t.TempDir(),
		})
	}
}

// TestRunStreamingEmbeddingShardsDeterministic: at every validator shard
// count the pipeline streams exactly the serial queued builder's bytes —
// the archive it tees matches the fingerprint, step count and encoded size
// of StreamQueuedEmbeddingProtocol fed straight into a ChunkedLog, and the
// report's counts agree with it.
func TestRunStreamingEmbeddingShardsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	guest, err := topology.RandomGuest(rng, 2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	host, mkChunks := bigsimFixture(t, 2000)
	base := mkChunks()
	if err := pebble.StreamQueuedEmbeddingProtocol(guest, host.Graph, nil, 2, base); err != nil {
		t.Fatal(err)
	}
	if err := base.Close(); err != nil {
		t.Fatal(err)
	}
	if base.Fingerprint() == 0 || base.Steps() == 0 {
		t.Fatal("baseline archive empty")
	}
	for _, vs := range []int{1, 2, 3, 5} {
		chunks := mkChunks()
		rep, err := RunStreamingEmbedding(guest, host.Graph, nil, 2, StreamRunConfig{
			Shards: vs,
			Window: 4,
			Chunks: chunks,
		})
		if err != nil {
			t.Fatalf("shards=%d: %v", vs, err)
		}
		if err := chunks.Close(); err != nil {
			t.Fatal(err)
		}
		if rep.ValidateShards != vs {
			t.Fatalf("shards=%d: report says %d shards", vs, rep.ValidateShards)
		}
		if rep.Fingerprint != base.Fingerprint() ||
			rep.HostSteps != base.Steps() ||
			rep.EncodedBytes != base.TotalBytes() {
			t.Fatalf("shards=%d: fingerprint %016x steps %d bytes %d, serial builder gives %016x steps %d bytes %d",
				vs, rep.Fingerprint, rep.HostSteps, rep.EncodedBytes,
				base.Fingerprint(), base.Steps(), base.TotalBytes())
		}
	}
}

// TestRunStreamingEmbeddingCancel: a pre-cancelled context tears the whole
// pipeline down — builder, watcher, validator shards — with ctx.Err() as
// the verdict and no goroutine left behind.
func TestRunStreamingEmbeddingCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	guest, err := topology.RandomGuest(rng, 50000, 3)
	if err != nil {
		t.Fatal(err)
	}
	host, _ := bigsimFixture(t, 50000)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = RunStreamingEmbedding(guest, host.Graph, nil, 3, StreamRunConfig{
		Shards: 2,
		Window: 2,
		Ctx:    ctx,
	})
	if err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRunStreamingEmbeddingAutoSizing: zero config sizes the validator
// from GOMAXPROCS — the cores the builder leaves, clamped to m — and
// reports the resolved count.
func TestRunStreamingEmbeddingAutoSizing(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	guest, err := topology.RandomGuest(rng, 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	host, _ := bigsimFixture(t, 500)
	rep, err := RunStreamingEmbedding(guest, host.Graph, nil, 2, StreamRunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want := min(max(1, runtime.GOMAXPROCS(0)-1), host.Graph.N())
	if rep.ValidateShards != want {
		t.Fatalf("auto-sized to %d validator shards, want %d", rep.ValidateShards, want)
	}
}

// TestResolveShards pins StreamRunConfig's auto-sizing: the validator gets
// the cores the builder leaves, never fewer than one, clamped to m, and an
// explicit count keeps its meaning.
func TestResolveShards(t *testing.T) {
	cases := []struct {
		shards, procs, m, want int
	}{
		{0, 1, 1, 1},
		{0, 1, 160, 1},
		{0, 2, 1, 1},
		{0, 2, 160, 1},
		{0, 3, 160, 2},
		{0, 4, 3, 3},
		{0, 4, 160, 3},
		{0, 8, 3, 3},
		{0, 8, 160, 7},
		// Explicit validator shards are kept, clamped only to m.
		{4, 2, 160, 4},
		{4, 1, 3, 3},
		{1, 8, 160, 1},
	}
	for _, c := range cases {
		if got := resolveShards(c.shards, c.procs, c.m); got != c.want {
			t.Errorf("resolveShards(shards=%d, procs=%d, m=%d) = %d, want %d",
				c.shards, c.procs, c.m, got, c.want)
		}
	}
}
