package pebble

import (
	"context"
	"errors"
	"io"
	"sync"

	"universalnet/internal/graph"
)

// Sharded protocol construction. Within one host step, the ops emitted for
// different scanning processors are independent (the one-op-per-processor
// rule again, from the build side this time), so construction shards by
// processor range: W workers each replay the builder's full scheduling
// decisions — cheap integer work over state that is identical in every
// worker — but emit only the ops their contiguous range [lo, hi) is
// responsible for, one (possibly empty) sub-step per global host step.
// Concatenating the W per-worker sub-steps of each host step in range order
// then reproduces the serial builder's stream byte for byte; the
// equivalence suite pins this for every shard count. The expensive part of
// building — op assembly and the per-step sink hand-off — parallelizes;
// the replicated decision replay is the price of needing no cross-worker
// communication at all.

// streamRanged is a builder core usable under streamSharded: it emits, for
// every host step of its schedule, exactly one AppendStep carrying the ops
// whose acting processor lies in [emitLo, emitHi) — empty sub-steps
// included, so per-worker streams stay step-aligned for merging. Calls with
// disjoint ranges must be safe to run concurrently.
type streamRanged func(sink StepSink, emitLo, emitHi int) error

// BuildShardedOptions configures sharded streaming construction.
type BuildShardedOptions struct {
	// Workers is the number of builder goroutines; values < 2 (and values
	// above the processor count) run the serial core inline.
	Workers int
}

// workerWindow is each builder worker's pipe depth in sub-steps.
const workerWindow = 64

// StreamQueuedEmbeddingProtocolSharded builds the same step stream as
// StreamQueuedEmbeddingProtocol — byte-identical, pinned by the equivalence
// suite — with construction sharded across opts.Workers goroutines. Each
// worker streams its processor range through a bounded pipe; the calling
// goroutine merges the per-step sub-slices in range order into sink.
// Cancelling ctx tears the workers down and returns ctx.Err(); the caller
// remains responsible for unblocking sink if it can block indefinitely
// (for a Pipe, by abandoning its read side).
func StreamQueuedEmbeddingProtocolSharded(ctx context.Context, guest, host *graph.Graph, f []int, T int, opts BuildShardedOptions, sink StepSink) error {
	p, err := newEmbeddingPlan(guest, host, f, T)
	if err != nil {
		return err
	}
	return streamSharded(ctx, p.m, opts, p.streamQueued, sink)
}

// streamSharded fans a ranged builder core out over opts.Workers goroutines
// and merges their step-aligned streams into sink in range order.
func streamSharded(ctx context.Context, total int, opts BuildShardedOptions, core streamRanged, sink StepSink) error {
	if ctx == nil {
		ctx = context.Background()
	}
	workers := opts.Workers
	if workers > total {
		workers = total
	}
	if workers <= 1 {
		err := core(sink, 0, total)
		if err == nil && ctx.Err() != nil {
			return ctx.Err()
		}
		return err
	}

	pipes := make([]*Pipe, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		pipes[w] = NewPipe(workerWindow)
		lo, hi := w*total/workers, (w+1)*total/workers
		wg.Add(1)
		go func(p *Pipe, lo, hi int) {
			defer wg.Done()
			p.CloseSend(core(p, lo, hi))
		}(pipes[w], lo, hi)
	}

	// Cancellation: abandoning the worker pipes' read sides fails the
	// workers' next AppendStep with ErrPipeClosed, which ends their streams.
	watchDone := make(chan struct{})
	var watcher sync.WaitGroup
	if ctx.Done() != nil {
		watcher.Add(1)
		go func() {
			defer watcher.Done()
			select {
			case <-ctx.Done():
				for _, p := range pipes {
					p.CloseRecv()
				}
			case <-watchDone:
			}
		}()
	}

	err := mergeStreams(pipes, sink)

	// Teardown, error or not: abandon every pipe (unblocking any worker
	// still producing), then wait the workers out. No goroutine survives.
	for _, p := range pipes {
		p.CloseRecv()
	}
	wg.Wait()
	close(watchDone)
	watcher.Wait()
	if cerr := ctx.Err(); cerr != nil {
		// The pipe-closed error a cancelled worker reports is the
		// mechanism, not the cause.
		return cerr
	}
	return err
}

// mergeStreams interleaves step-aligned worker streams into sink: one
// sub-step from every pipe in range order per output step. Worker errors
// surface through pipe 0 first — the cores replicate their scheduling
// decisions, so all workers fail a failing schedule at the same step with
// the same error, and reporting pipe 0's keeps the verdict deterministic.
func mergeStreams(pipes []*Pipe, sink StepSink) error {
	segs := make([][]Op, len(pipes))
	segSink, segOK := sink.(StepSegmentSink)
	var flat []Op
	for {
		for i, p := range pipes {
			ops, err := p.NextStep()
			if err == io.EOF {
				if i != 0 {
					return errors.New("pebble: sharded build: worker streams misaligned")
				}
				for _, rest := range pipes[1:] {
					if _, e := rest.NextStep(); e != io.EOF {
						if e == nil {
							return errors.New("pebble: sharded build: worker streams misaligned")
						}
						return e
					}
				}
				return nil
			}
			if err != nil {
				return err
			}
			segs[i] = ops
		}
		if segOK {
			if err := segSink.AppendStepSegments(segs); err != nil {
				return err
			}
			continue
		}
		flat = flat[:0]
		for _, seg := range segs {
			flat = append(flat, seg...)
		}
		if err := sink.AppendStep(flat); err != nil {
			return err
		}
	}
}
