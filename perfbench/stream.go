package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"universalnet/internal/graph"
	"universalnet/internal/pebble"
	"universalnet/internal/universal"
)

// The stream workload is universal.RunStreamingEmbedding at the north-star
// scale with `uninet bigsim`'s defaults: builder, pipe, windowed validator
// and chunk encode/spill all run at once, on long narrow host steps
// (about 85 ops each).
const (
	streamN          = 1_000_000
	streamDeg        = 3
	streamHostDim    = 5 // wrapped butterfly, m = 160
	streamT          = 2
	streamWindow     = 8
	streamChunkBytes = 1 << 20
	streamBudget     = 8 << 20 // about 218 MB of the 226 MB archive spills
)

// streamOutcome is what both the plain and the traced run produce.
type streamOutcome struct {
	hostSteps   int
	ops         int64
	fingerprint uint64
}

func runStream(ctx context.Context, r *rep) error {
	guest, host, err := r.graphs(ctx, streamN, streamDeg, streamHostDim)
	if err != nil {
		return err
	}
	chunks := pebble.NewChunkedLog(pebble.ChunkedLogOptions{
		TargetChunkBytes: streamChunkBytes,
		MemBudgetBytes:   streamBudget,
		SpillDir:         r.dir,
	})
	defer chunks.Close()

	tctx, done := r.timed(ctx)
	var out streamOutcome
	if r.traced {
		out, err = streamTraced(tctx, r, guest, host, chunks)
	} else {
		var rep *universal.StreamRunReport
		rep, err = universal.RunStreamingEmbedding(guest, host, nil, streamT, universal.StreamRunConfig{
			Window: streamWindow,
			Chunks: chunks,
		})
		if err == nil {
			out = streamOutcome{hostSteps: rep.HostSteps, ops: rep.Ops, fingerprint: rep.Fingerprint}
		}
	}
	done()

	r.res.Attempted = 1
	if err != nil {
		r.res.Failed = 1
		r.fail("stream rejected: %v", err)
		return nil
	}
	n, m := guest.N(), host.N()
	slowdown := float64(out.hostSteps) / streamT
	r.res.Ops = out.ops
	r.repeat("fingerprint", "%016x", out.fingerprint)
	r.repeat("host_steps", "%d", out.hostSteps)
	r.repeat("ops", "%d", out.ops)
	r.repeat("slowdown", "%v", slowdown)

	r.layer("pebble.chunk.encoded_bytes", float64(chunks.TotalBytes()))
	r.layer("pebble.chunk.spilled_bytes", float64(chunks.SpilledBytes()))
	r.layer("pebble.chunk.peak_resident_bytes", float64(chunks.PeakResidentBytes()))
	r.layer("pebble.stream.host_steps", float64(out.hostSteps))
	r.layer("pebble.stream.ops", float64(out.ops))
	r.layer("pebble.stream.ops_per_step", float64(out.ops)/float64(out.hostSteps))
	// Theorem 2.1 bounds the slowdown by O((n/m)·log m).
	r.layer("paper.slowdown", slowdown)
	r.layer("paper.inefficiency_k", slowdown*float64(m)/float64(n))
	r.layer("paper.slowdown_per_bound", slowdown/(float64(n)/float64(m)*math.Log2(float64(m))))
	return nil
}

// streamTraced recomposes RunStreamingEmbedding from its public pieces —
// same auto-sizing, builder, pipe, chunk tee and validator — with a timer
// on every boundary. It must reproduce the plain run's fingerprint; the
// repeat check compares them.
func streamTraced(ctx context.Context, r *rep, guest, host *graph.Graph, chunks *pebble.ChunkedLog) (streamOutcome, error) {
	n, m := guest.N(), host.N()
	procs := runtime.GOMAXPROCS(0)
	validateShards := min(procs, m)
	buildShards := min(max(1, procs/2), m)

	pipe := pebble.NewPipe(streamWindow)
	pipe.MeasureStalls = true
	chunkSink := &timedSink{inner: chunks}
	pipeSink := &timedSink{inner: pipe}
	var buildS float64
	buildErr := make(chan error, 1)
	go func() {
		_, sp := r.span(ctx, "pebble.build")
		t0 := time.Now()
		err := pebble.StreamQueuedEmbeddingProtocolSharded(ctx, guest, host, pebble.BalancedAssignment(n, m), streamT,
			pebble.BuildShardedOptions{Workers: buildShards}, pebble.TeeSink(chunkSink, pipeSink))
		pipe.CloseSend(err)
		buildS = time.Since(t0).Seconds()
		sp.Annotate("workers", buildShards)
		sp.Annotate("steps", pipeSink.calls)
		sp.Annotate("chunk_append_us", chunkSink.dur.Microseconds())
		sp.Annotate("pipe_send_us", pipeSink.dur.Microseconds())
		sp.End()
		buildErr <- err
	}()

	_, sp := r.span(ctx, "pebble.validate")
	src := &timedSource{inner: pipe, clock: true}
	t0 := time.Now()
	stats, err := pebble.ValidateSharded(pebble.Spec{Guest: guest, Host: host, T: streamT}, src,
		pebble.ShardedOptions{Shards: validateShards})
	validateS := time.Since(t0).Seconds()
	pipe.CloseRecv()
	sp.Annotate("shards", validateShards)
	sp.Annotate("steps", src.steps)
	sp.Annotate("pipe_recv_us", src.dur.Microseconds())
	sp.End()
	if berr := <-buildErr; berr != nil && err == nil {
		err = fmt.Errorf("builder: %w", berr)
	}
	if err != nil {
		return streamOutcome{}, err
	}

	sendNs, recvNs := pipe.Stalls()
	r.layer("pebble.build.busy_s", buildS-chunkSink.dur.Seconds()-pipeSink.dur.Seconds())
	r.layer("pebble.chunk.append_s", chunkSink.dur.Seconds())
	r.layer("pebble.pipe.send_wait_s", float64(sendNs)/1e9)
	r.layer("pebble.pipe.recv_wait_s", float64(recvNs)/1e9)
	r.layer("pebble.validate.busy_s", validateS-src.dur.Seconds())
	return streamOutcome{hostSteps: stats.HostSteps, ops: stats.Ops, fingerprint: chunks.Fingerprint()}, nil
}

// timedSink times every step appended to its inner sink. It keeps the
// segment path, so the sharded builder's merge stays copy-free. One
// goroutine appends; read the totals after it has finished.
type timedSink struct {
	inner pebble.StepSegmentSink
	calls int64
	dur   time.Duration
}

func (s *timedSink) AppendStep(ops []pebble.Op) error {
	t0 := time.Now()
	err := s.inner.AppendStep(ops)
	s.dur += time.Since(t0)
	s.calls++
	return err
}

func (s *timedSink) AppendStepSegments(segs [][]pebble.Op) error {
	t0 := time.Now()
	err := s.inner.AppendStepSegments(segs)
	s.dur += time.Since(t0)
	s.calls++
	return err
}

// timedSource counts the steps, ops and Generate ops read from its inner
// source and, with clock set, times every NextStep.
type timedSource struct {
	inner     pebble.StepSource
	clock     bool
	steps     int64
	ops       int64
	generates int64
	dur       time.Duration
}

func (s *timedSource) NextStep() ([]pebble.Op, error) {
	var t0 time.Time
	if s.clock {
		t0 = time.Now()
	}
	ops, err := s.inner.NextStep()
	if s.clock {
		s.dur += time.Since(t0)
	}
	if err == nil {
		s.steps++
		s.ops += int64(len(ops))
		for _, op := range ops {
			if op.Kind == pebble.Generate {
				s.generates++
			}
		}
	}
	return ops, err
}
