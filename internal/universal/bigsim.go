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
// window). Both stages can use several cores: construction shards across
// BuildShards worker goroutines (per-processor ranges merged back into the
// serial byte order), validation across Shards possession shards under a
// windowed barrier. By default the validator gets only the cores the
// builder leaves, so the two stages never oversubscribe the machine; on
// two cores that is one shard, the sequential core with no barrier. This
// is the path that takes E1-style validation to n = 10⁶ guest processors
// on laptop RAM.

// StreamRunConfig tunes the streaming pipeline.
type StreamRunConfig struct {
	// Shards is the validator parallelism (clamped to [1, m]); 0 means the
	// cores the builder leaves, max(1, GOMAXPROCS − BuildShards), because a
	// spinning barrier shard that shares a core with a builder worker
	// costs more than it saves.
	Shards int
	// BuildShards is the builder parallelism (clamped to [1, m]); 0 means
	// max(1, GOMAXPROCS/2) — half the cores build, since validation has to
	// keep up with the merged stream anyway. 1 builds serially.
	BuildShards int
	// Window is the builder→validator pipe depth in steps; 0 means 4.
	Window int
	// BarrierWindow is the validator's host steps per barrier round when
	// sharded; 0 means the pebble package default.
	BarrierWindow int
	// Chunks, when non-nil, receives a tee of the step stream — the archive
	// that can later be written out with WriteBinary or re-validated.
	Chunks *pebble.ChunkedLog
	// Obs, when non-nil, receives the validator's deterministic counters and
	// the chunk storage gauges.
	Obs *obs.Registry
	// MeasureStalls turns on wall-clock pipeline stall accounting. The stall
	// gauges are scheduling-dependent, so experiments keep this off; the CLI
	// turns it on for humans watching a run.
	MeasureStalls bool
	// Ctx, when non-nil, cancels the whole pipeline: builder workers,
	// merger, and validator are torn down and ctx.Err() is returned.
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
	// Resolved parallelism (after auto-sizing).
	BuildShards, ValidateShards int
	// Pipeline stalls (nonzero only with MeasureStalls). SendStallNs is the
	// build side blocked on the main pipe; RecvStallNs the validator
	// waiting for steps; Build* split the build side further into worker
	// build time, worker pipe stalls, and merger waiting.
	SendStallNs, RecvStallNs               int64
	BuildBusyNs, BuildStallNs, MergeWaitNs int64
	// Chunk storage profile (nonzero only with a chunk tee).
	EncodedBytes, PeakChunkBytes, SpilledBytes int64
	// Fingerprint is the chunk archive's stream fingerprint (zero without a
	// chunk tee) — byte-identity across shard counts is asserted on it.
	Fingerprint uint64
}

// resolveShards applies StreamRunConfig's auto-sizing on procs cores for
// an m-processor host: an unset builder takes half the cores, an unset
// validator the cores the builder leaves, and both are clamped to m.
func resolveShards(shards, buildShards, procs, m int) (validate, build int) {
	build = buildShards
	if build <= 0 {
		build = max(1, procs/2)
	}
	build = min(build, m)
	validate = shards
	if validate <= 0 {
		validate = max(1, procs-build)
	}
	return min(validate, m), build
}

// RunStreamingEmbedding builds the queued embedding schedule for guest on
// host under assignment f (nil = balanced) and validates it concurrently
// through the sharded streaming validator. The builder side fans out across
// cfg.BuildShards workers whose merged stream is byte-identical to the
// serial builder's; unless cfg.Shards says otherwise, the validator takes
// the remaining cores (see resolveShards). Validation failure abandons the
// pipe, which unblocks and stops the builder; cancelling cfg.Ctx tears both
// stages down — no goroutine outlives the call either way.
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
	validateShards, buildShards := resolveShards(cfg.Shards, cfg.BuildShards, runtime.GOMAXPROCS(0), m)

	pipe := pebble.NewPipe(window)
	pipe.MeasureStalls = cfg.MeasureStalls

	var sink pebble.StepSink = pipe
	if cfg.Chunks != nil {
		sink = pebble.TeeSink(cfg.Chunks, pipe)
	}
	var bstats pebble.BuildShardedStats
	builderDone := make(chan struct{})
	go func() {
		defer close(builderDone)
		pipe.CloseSend(pebble.StreamQueuedEmbeddingProtocolSharded(ctx, guest, host, f, T, pebble.BuildShardedOptions{
			Workers:       buildShards,
			MeasureStalls: cfg.MeasureStalls,
			Stats:         &bstats,
		}, sink))
	}()
	// The build harness tears its own workers down on cancellation, but the
	// merge (or a serial build) can be parked in sink.AppendStep on a full
	// main pipe; abandoning the pipe's read side unblocks it.
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
		Window: cfg.BarrierWindow,
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
		BuildShards:    buildShards,
		ValidateShards: validateShards,
	}
	rep.SendStallNs, rep.RecvStallNs = pipe.Stalls()
	rep.BuildBusyNs = bstats.BusyNs
	rep.BuildStallNs = bstats.StallNs
	rep.MergeWaitNs = bstats.MergeStallNs
	if bstats.Workers == 1 {
		// The serial core's only stall source is the main pipe, which the
		// harness cannot see; net it out of the wall time it reported.
		rep.BuildBusyNs -= rep.SendStallNs
		rep.BuildStallNs = rep.SendStallNs
	}
	if cfg.Obs != nil && cfg.MeasureStalls {
		cfg.Obs.Gauge("pebble.pipe.send_stall_ns").SetMax(rep.SendStallNs)
		cfg.Obs.Gauge("pebble.pipe.recv_stall_ns").SetMax(rep.RecvStallNs)
		cfg.Obs.Gauge("pebble.build.busy_ns").SetMax(rep.BuildBusyNs)
		cfg.Obs.Gauge("pebble.build.stall_ns").SetMax(rep.BuildStallNs)
		cfg.Obs.Gauge("pebble.build.merge_wait_ns").SetMax(rep.MergeWaitNs)
	}
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
