package universal

import (
	"context"
	"runtime"

	"universalnet/internal/graph"
	"universalnet/internal/obs"
	"universalnet/internal/pebble"
)

// Big-n streaming simulation: builder and validator run as a two-stage
// pipeline connected by a bounded pebble.Pipe, so the protocol never exists
// as a whole — the working set is the pipe window plus the validator's
// possession bitsets (and, optionally, the chunked archive's resident
// window). The serial queued builder runs on one goroutine; validation
// shards across Shards possession shards under a windowed barrier. By
// default the validator gets the cores the builder leaves, so the two
// stages never oversubscribe the machine; on two cores that is one shard,
// the sequential core with no barrier. This is the path that takes
// E1-style validation to n = 10⁶ guest processors on laptop RAM.

// StreamRunConfig tunes the streaming pipeline.
type StreamRunConfig struct {
	// Shards is the validator parallelism (clamped to [1, m]); 0 means the
	// cores the builder leaves, max(1, GOMAXPROCS − 1), because a spinning
	// barrier shard that shares a core with the builder costs more than it
	// saves.
	Shards int
	// Window is the builder→validator pipe depth in steps; 0 means 4.
	Window int
	// Chunks, when non-nil, receives a tee of the step stream — the archive
	// that can later be written out with WriteBinary or re-validated.
	Chunks *pebble.ChunkedLog
	// Obs, when non-nil, receives the validator's deterministic counters and
	// the chunk storage gauges.
	Obs *obs.Registry
	// MeasureStalls turns on wall-clock pipe stall accounting into the
	// report. Stall times are scheduling-dependent, so experiments keep
	// this off; the CLI turns it on for humans watching a run.
	MeasureStalls bool
	// Ctx, when non-nil, cancels the whole pipeline: builder and validator
	// are torn down and ctx.Err() is returned.
	Ctx context.Context
}

// StreamRunReport summarizes one streaming build+validate run.
type StreamRunReport struct {
	N, M, T      int
	MaxLoad      int
	HostSteps    int
	Ops          int64
	Slowdown     float64
	Inefficiency float64
	// ValidateShards is the resolved validator parallelism.
	ValidateShards int
	// Pipe stalls (nonzero only with MeasureStalls): SendStallNs is the
	// builder blocked on a full pipe, RecvStallNs the validator waiting
	// for steps.
	SendStallNs, RecvStallNs int64
	// Chunk storage profile (nonzero only with a chunk tee).
	EncodedBytes, PeakChunkBytes, SpilledBytes int64
	// Fingerprint is the chunk archive's stream fingerprint (zero without a
	// chunk tee) — byte-identity across shard counts is asserted on it.
	Fingerprint uint64
}

// resolveShards applies StreamRunConfig's auto-sizing on procs cores for
// an m-processor host: an unset validator takes the cores the builder
// leaves, and the count is clamped to m.
func resolveShards(shards, procs, m int) int {
	if shards <= 0 {
		shards = max(1, procs-1)
	}
	return min(shards, m)
}

// RunStreamingEmbedding builds the queued embedding schedule for guest on
// host under assignment f (nil = balanced) and validates it concurrently
// through the sharded streaming validator. Unless cfg.Shards says
// otherwise, the validator takes the cores the builder leaves (see
// resolveShards). Validation failure abandons the pipe, which unblocks and
// stops the builder; cancelling cfg.Ctx tears both stages down — no
// goroutine outlives the call either way.
func RunStreamingEmbedding(guest, host *graph.Graph, f []int, T int, cfg StreamRunConfig) (*StreamRunReport, error) {
	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	n, m := guest.N(), host.N()
	if f == nil {
		f = pebble.BalancedAssignment(n, m)
	}
	window := cfg.Window
	if window <= 0 {
		window = 4
	}
	validateShards := resolveShards(cfg.Shards, runtime.GOMAXPROCS(0), m)

	pipe := pebble.NewPipe(window)
	pipe.MeasureStalls = cfg.MeasureStalls

	var sink pebble.StepSink = pipe
	if cfg.Chunks != nil {
		sink = pebble.TeeSink(cfg.Chunks, pipe)
	}
	builderDone := make(chan struct{})
	go func() {
		defer close(builderDone)
		pipe.CloseSend(pebble.StreamQueuedEmbeddingProtocol(guest, host, f, T, sink))
	}()
	// The builder can be parked in sink.AppendStep on a full pipe;
	// abandoning the pipe's read side on cancellation fails that call,
	// which ends the build.
	watchDone := make(chan struct{})
	defer close(watchDone)
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				pipe.CloseRecv()
			case <-watchDone:
			}
		}()
	}

	sp := pebble.Spec{Guest: guest, Host: host, T: T}
	stats, err := pebble.ValidateSharded(sp, pipe, pebble.ShardedOptions{
		Shards: validateShards,
		Obs:    cfg.Obs,
	})
	pipe.CloseRecv()
	<-builderDone
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, err
	}

	rep := &StreamRunReport{
		N: n, M: m, T: T,
		MaxLoad:        pebble.MaxLoad(f, m),
		HostSteps:      stats.HostSteps,
		Ops:            stats.Ops,
		Slowdown:       stats.Slowdown(T),
		Inefficiency:   stats.Slowdown(T) * float64(m) / float64(n),
		ValidateShards: validateShards,
	}
	rep.SendStallNs, rep.RecvStallNs = pipe.Stalls()
	if cfg.Chunks != nil {
		rep.EncodedBytes = cfg.Chunks.TotalBytes()
		rep.PeakChunkBytes = cfg.Chunks.PeakResidentBytes()
		rep.SpilledBytes = cfg.Chunks.SpilledBytes()
		rep.Fingerprint = cfg.Chunks.Fingerprint()
		if cfg.Obs != nil {
			cfg.Obs.Gauge("pebble.chunk.resident_peak_bytes").SetMax(rep.PeakChunkBytes)
		}
	}
	return rep, nil
}
