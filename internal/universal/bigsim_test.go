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

// TestRunStreamingEmbeddingBuildShardsDeterministic: every build-shard ×
// validator-shard × barrier-window combination produces the same stream
// fingerprint and the same deterministic report fields — the byte-identity
// acceptance criterion, asserted end to end through the real pipeline.
func TestRunStreamingEmbeddingBuildShardsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	guest, err := topology.RandomGuest(rng, 2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	host, mkChunks := bigsimFixture(t, 2000)
	var base *StreamRunReport
	for _, bs := range []int{1, 2, 3, 5} {
		for _, vs := range []int{1, 3} {
			chunks := mkChunks()
			rep, err := RunStreamingEmbedding(guest, host.Graph, nil, 2, StreamRunConfig{
				Shards:        vs,
				BuildShards:   bs,
				Window:        4,
				BarrierWindow: 8,
				Chunks:        chunks,
			})
			if err != nil {
				t.Fatalf("build-shards=%d shards=%d: %v", bs, vs, err)
			}
			if err := chunks.Close(); err != nil {
				t.Fatal(err)
			}
			if base == nil {
				base = rep
				continue
			}
			if rep.Fingerprint != base.Fingerprint ||
				rep.HostSteps != base.HostSteps ||
				rep.Ops != base.Ops ||
				rep.EncodedBytes != base.EncodedBytes {
				t.Fatalf("build-shards=%d shards=%d: diverged from baseline: %+v vs %+v", bs, vs, rep, base)
			}
		}
	}
	if base.Fingerprint == 0 {
		t.Fatal("fingerprint not populated")
	}
}

// TestRunStreamingEmbeddingCancel: a pre-cancelled context tears the whole
// pipeline down — builder workers, merger, watcher, validator shards — with
// ctx.Err() as the verdict and no goroutine left behind.
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
		Shards:      2,
		BuildShards: 2,
		Window:      2,
		Ctx:         ctx,
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

// TestRunStreamingEmbeddingAutoSizing: zero config resolves both sides of
// the pipeline from GOMAXPROCS and reports the resolved values; the
// validator takes the cores the builder leaves.
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
	procs := runtime.GOMAXPROCS(0)
	wantBuild := procs / 2
	if wantBuild < 1 {
		wantBuild = 1
	}
	wantValidate := procs - wantBuild
	if wantValidate < 1 {
		wantValidate = 1
	}
	if m := host.Graph.N(); wantValidate > m {
		wantValidate = m
	}
	if rep.BuildShards != wantBuild || rep.ValidateShards != wantValidate {
		t.Fatalf("auto-sized to build=%d validate=%d, want build=%d validate=%d",
			rep.BuildShards, rep.ValidateShards, wantBuild, wantValidate)
	}
}

// TestResolveShards pins StreamRunConfig's auto-sizing: half the cores
// build, the validator gets what the builder leaves, both clamp to m, and
// an explicit count keeps its meaning.
func TestResolveShards(t *testing.T) {
	cases := []struct {
		shards, buildShards, procs, m int
		wantValidate, wantBuild       int
	}{
		{0, 0, 1, 1, 1, 1},
		{0, 0, 1, 3, 1, 1},
		{0, 0, 1, 160, 1, 1},
		{0, 0, 2, 1, 1, 1},
		{0, 0, 2, 3, 1, 1},
		{0, 0, 2, 160, 1, 1},
		{0, 0, 3, 1, 1, 1},
		{0, 0, 3, 3, 2, 1},
		{0, 0, 3, 160, 2, 1},
		{0, 0, 4, 1, 1, 1},
		{0, 0, 4, 3, 2, 2},
		{0, 0, 4, 160, 2, 2},
		{0, 0, 8, 1, 1, 1},
		{0, 0, 8, 3, 3, 3},
		{0, 0, 8, 160, 4, 4},
		// Explicit validator shards are kept, clamped only to m.
		{4, 0, 2, 160, 4, 1},
		{4, 0, 1, 3, 3, 1},
		{1, 0, 8, 160, 1, 4},
		// Explicit builder workers leave fewer cores, never fewer than one.
		{0, 1, 8, 160, 7, 1},
		{0, 2, 2, 160, 1, 2},
		{0, 6, 4, 160, 1, 6},
		{0, 5, 8, 3, 3, 3},
		// Both explicit.
		{3, 2, 2, 160, 3, 2},
	}
	for _, c := range cases {
		v, b := resolveShards(c.shards, c.buildShards, c.procs, c.m)
		if v != c.wantValidate || b != c.wantBuild {
			t.Errorf("resolveShards(shards=%d, build=%d, procs=%d, m=%d) = validate %d, build %d; want %d, %d",
				c.shards, c.buildShards, c.procs, c.m, v, b, c.wantValidate, c.wantBuild)
		}
	}
}
