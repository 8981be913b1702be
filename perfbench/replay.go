package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"universalnet/internal/pebble"
	"universalnet/internal/redblue"
)

// The replay workload is validation alone, on wide host steps (about 460
// ops each): the archive is built in memory during set-up, and the timed
// phase re-validates it with each legality engine. It isolates decode,
// legality and red-blue accounting from the builder, on a step shape
// unlike stream's.
const (
	replayN       = 100_000
	replayDeg     = 3
	replayHostDim = 7 // wrapped butterfly, m = 896
	replayT       = 2
)

// pass is one engine's run over the archive.
type pass struct {
	name  string // span name; the layer metric is name + "_s"
	steps int    // host steps the engine reports
	src   *timedSource
	wallS float64
	err   error
}

func runReplay(ctx context.Context, r *rep) error {
	guest, host, err := r.graphs(ctx, replayN, replayDeg, replayHostDim)
	if err != nil {
		return err
	}
	sp := pebble.Spec{Guest: guest, Host: host, T: replayT}
	chunks := pebble.NewChunkedLog(pebble.ChunkedLogOptions{}) // 1 MiB chunks, all in memory
	defer chunks.Close()
	_, bsp := r.span(ctx, "pebble.build")
	t0 := time.Now()
	err = pebble.StreamQueuedEmbeddingProtocol(guest, host, nil, replayT, chunks)
	r.layer("pebble.build_s", time.Since(t0).Seconds())
	bsp.Annotate("steps", chunks.Steps())
	bsp.Annotate("encoded_bytes", chunks.TotalBytes())
	bsp.End()
	if err != nil {
		return fmt.Errorf("build archive: %w", err)
	}
	r.repeat("archive", "%016x steps=%d bytes=%d", chunks.Fingerprint(), chunks.Steps(), chunks.TotalBytes())

	model := redblue.DefaultCostModel(redblue.MinRed(sp) + 2)
	shards := runtime.GOMAXPROCS(0)
	var costs *redblue.Costs
	tctx, done := r.timed(ctx)
	passes := []*pass{
		r.replayPass(tctx, "pebble.state.validate", chunks, func(src pebble.StepSource) (int, error) {
			st, err := pebble.ValidateSource(sp, src)
			if err != nil {
				return 0, err
			}
			return st.HostStep(), nil
		}),
		r.replayPass(tctx, "pebble.sharded.validate", chunks, func(src pebble.StepSource) (int, error) {
			stats, err := pebble.ValidateSharded(sp, src, pebble.ShardedOptions{Shards: shards})
			if err != nil {
				return 0, err
			}
			return stats.HostSteps, nil
		}),
		r.replayPass(tctx, "redblue.replay", chunks, func(src pebble.StepSource) (int, error) {
			var err error
			costs, err = redblue.ReplayCosted(sp, src, model, redblue.NewLRU(), redblue.Options{})
			if err != nil {
				return 0, err
			}
			return costs.HostSteps, nil
		}),
	}
	done()

	if r.traced {
		// One extra plain StreamValidator pass, outside the timed phase: the
		// red-blue replay embeds this validator, so redblue.replay_s minus
		// this is the red-blue machine's own cost.
		p := r.replayPass(ctx, "pebble.stream_validator", chunks, func(src pebble.StepSource) (int, error) {
			sv, err := pebble.NewStreamValidator(sp)
			if err != nil {
				return 0, err
			}
			if err := drain(src, sv.AppendStep); err != nil {
				return 0, err
			}
			stats, err := sv.Finish()
			if err != nil {
				return 0, err
			}
			return stats.HostSteps, nil
		})
		if p.err != nil {
			r.fail("%s rejected: %v", p.name, p.err)
		}
		r.layer("pebble.stream_validator_s", p.wallS-p.src.dur.Seconds())
	}

	r.res.Attempted = int64(len(passes))
	want := passes[0].src
	var decodeS float64
	for _, p := range passes {
		decodeS += p.src.dur.Seconds()
		r.layer(p.name+"_s", p.wallS-p.src.dur.Seconds())
		switch {
		case p.err != nil:
			r.res.Failed++
			r.fail("%s rejected: %v", p.name, p.err)
		case p.steps != chunks.Steps() || p.src.steps != int64(chunks.Steps()) || p.src.ops != want.ops:
			r.res.Failed++
			r.fail("%s: %d steps (read %d) and %d ops; archive has %d steps, first pass read %d ops",
				p.name, p.steps, p.src.steps, p.src.ops, chunks.Steps(), want.ops)
		default:
			r.res.Ops += p.src.ops
		}
	}
	r.layer("pebble.chunk.decode_s", decodeS)
	if costs == nil {
		return nil
	}
	if costs.Stores != costs.Compute || costs.Stores != want.generates {
		r.res.Failed++
		r.fail("redblue: %d stores, %d compute charges, %d Generate ops; want all equal", costs.Stores, costs.Compute, want.generates)
	}
	if costs.Loads != costs.ColdLoads+costs.Reloads {
		r.res.Failed++
		r.fail("redblue: %d loads != %d cold + %d reloads", costs.Loads, costs.ColdLoads, costs.Reloads)
	}
	r.repeat("redblue", "r=%d loads=%d reloads=%d stores=%d", model.R, costs.Loads, costs.Reloads, costs.Stores)
	r.layer("redblue.loads", float64(costs.Loads))
	r.layer("redblue.reloads", float64(costs.Reloads))
	r.layer("redblue.stores", float64(costs.Stores))
	r.ratio("redblue.reload_ratio", costs.Reloads, costs.Loads, fmt.Sprintf("loads reload at r=%d", model.R))
	return nil
}

// replayPass runs one engine over a fresh source on the archive, in its
// own span. Traced, it times decode (the source's NextStep) apart from the
// engine, so the engine's time — every AppendStep and the final check — is
// the call's wall time minus decode.
func (r *rep) replayPass(ctx context.Context, name string, chunks *pebble.ChunkedLog, engine func(pebble.StepSource) (int, error)) *pass {
	_, sp := r.span(ctx, name)
	p := &pass{name: name, src: &timedSource{inner: chunks.Source(), clock: r.traced}}
	t0 := time.Now()
	p.steps, p.err = engine(p.src)
	p.wallS = time.Since(t0).Seconds()
	sp.Annotate("steps", p.src.steps)
	sp.Annotate("ops", p.src.ops)
	sp.Annotate("decode_us", p.src.dur.Microseconds())
	sp.End()
	return p
}

// drain feeds every step of src to appendStep.
func drain(src pebble.StepSource, appendStep func([]pebble.Op) error) error {
	for {
		ops, err := src.NextStep()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := appendStep(ops); err != nil {
			return err
		}
	}
}
