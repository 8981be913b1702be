package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime/metrics"
	"time"

	"universalnet/internal/graph"
	"universalnet/internal/obs"
	"universalnet/internal/topology"
)

// repResult is what one repetition process reports to its parent, as the
// last line of its standard output.
type repResult struct {
	SetupS    float64 `json:"setup_s"`
	TimedS    float64 `json:"timed_s"`
	Ops       int64   `json:"ops"` // operations completed in the timed phase
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	// Layers holds the per-layer metrics this repetition measured.
	Layers map[string]float64 `json:"layers,omitempty"`
	// Bases states the base of each ratio in Layers.
	Bases map[string]string `json:"bases,omitempty"`
	// Repeat holds outputs that every repetition of one seed must
	// reproduce exactly.
	Repeat map[string]string `json:"repeat,omitempty"`
	// Notes are failed output checks.
	Notes []string `json:"notes,omitempty"`
}

// rep is one repetition: a fresh process that sets a workload up, runs its
// timed phase once and reports.
type rep struct {
	seed    int64
	traced  bool
	dir     string    // private scratch directory (spill files)
	started time.Time // when the parent started this process
	node    string    // span "node" attribute: which process wrote the span
	idSeed  int64     // seeds reg's span IDs; differs between repetitions
	reg     *obs.Registry
	sink    *obs.TraceSink
	spans   bytes.Buffer

	res        repResult
	timedStart time.Time
}

// span opens a child span of ctx's span. With tracing off reg is nil, so
// this returns ctx and a nil span whose methods do nothing.
func (r *rep) span(ctx context.Context, name string) (context.Context, *obs.Span) {
	ctx, sp := r.reg.StartSpanCtx(ctx, name)
	sp.Annotate("node", r.node)
	return ctx, sp
}

// timed starts the timed phase: set-up ends here. The returned func ends it.
func (r *rep) timed(ctx context.Context) (context.Context, func()) {
	ctx, sp := r.span(ctx, "bench.timed")
	r.timedStart = time.Now()
	r.res.SetupS = r.timedStart.Sub(r.started).Seconds()
	return ctx, func() {
		r.res.TimedS = time.Since(r.timedStart).Seconds()
		sp.End()
	}
}

func (r *rep) layer(name string, v float64) {
	if r.res.Layers == nil {
		r.res.Layers = map[string]float64{}
	}
	r.res.Layers[name] = v
}

// ratio records num/den as a layer metric and states its base.
func (r *rep) ratio(name string, num, den int64, base string) {
	v := 0.0
	if den > 0 {
		v = float64(num) / float64(den)
	}
	r.layer(name, v)
	if r.res.Bases == nil {
		r.res.Bases = map[string]string{}
	}
	r.res.Bases[name] = fmt.Sprintf("%d of %d %s", num, den, base)
}

// pct records a percentile of samples, or fails the check when too few
// samples lie beyond it to report one.
func (r *rep) pct(name string, samples []float64, p int) {
	v, ok := percentile(samples, p)
	if !ok {
		r.fail("%s: %d samples leave fewer than %d beyond p%d", name, len(samples), minBeyond, p)
		return
	}
	r.layer(name, v)
}

func (r *rep) repeat(key string, format string, args ...any) {
	if r.res.Repeat == nil {
		r.res.Repeat = map[string]string{}
	}
	r.res.Repeat[key] = fmt.Sprintf(format, args...)
}

func (r *rep) fail(format string, args ...any) {
	r.res.Notes = append(r.res.Notes, fmt.Sprintf(format, args...))
}

// graphs builds the seeded guest and the wrapped-butterfly host, timing
// each as the topology layer.
func (r *rep) graphs(ctx context.Context, n, deg, hostDim int) (*graph.Graph, *graph.Graph, error) {
	_, sp := r.span(ctx, "topology.guest")
	t0 := time.Now()
	guest, err := topology.RandomGuest(rand.New(rand.NewSource(r.seed)), n, deg)
	r.layer("topology.guest_s", time.Since(t0).Seconds())
	sp.End()
	if err != nil {
		return nil, nil, fmt.Errorf("guest: %w", err)
	}
	_, sp = r.span(ctx, "topology.host")
	t0 = time.Now()
	host, err := topology.WrappedButterfly(hostDim)
	r.layer("topology.host_s", time.Since(t0).Seconds())
	sp.End()
	if err != nil {
		return nil, nil, fmt.Errorf("host: %w", err)
	}
	return guest, host, nil
}

// runtimeLayers records the Go runtime's allocation and GC totals.
func (r *rep) runtimeLayers() {
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(samples)
	value := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		case metrics.KindFloat64:
			return s.Value.Float64()
		}
		return 0
	}
	r.layer("runtime.alloc_bytes", value(samples[0]))
	r.layer("runtime.gc_cycles", value(samples[1]))
	r.layer("runtime.gc_cpu_s", value(samples[2]))
}

// childOptions is what the parent passes a repetition process.
type childOptions struct {
	workload string
	seed     int64
	traced   bool
	dir      string
	startNS  int64
	node     string
	spansOut string // traced: where to write this process's spans
	parent   string // traced: the run's span context, in X-Uninet-Trace form
}

// runChild runs one repetition and prints its result as one JSON line.
func runChild(o childOptions) error {
	w, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	r := &rep{seed: o.seed, traced: o.traced, dir: o.dir, started: time.Unix(0, o.startNS), node: o.node,
		idSeed: o.seed<<20 ^ o.startNS}
	ctx := context.Background()
	if o.traced {
		sc, ok := obs.ParseSpanContext(o.parent)
		if !ok {
			return fmt.Errorf("bad parent span context %q", o.parent)
		}
		ctx = obs.ContextWithSpan(ctx, sc)
		// Spans stay in memory until the repetition ends.
		r.sink = obs.NewTraceSink(&r.spans)
		r.reg = obs.New().SetTrace(r.sink).SetIDSeed(r.idSeed)
	}
	ctx, sp := r.span(ctx, "bench.rep")
	sp.Annotate("workload", o.workload)
	err := w(ctx, r)
	sp.End()
	if err != nil {
		return err
	}
	r.runtimeLayers()
	if o.traced {
		if err := r.sink.Flush(); err != nil {
			return err
		}
		if err := os.WriteFile(o.spansOut, r.spans.Bytes(), 0o644); err != nil {
			return err
		}
	}
	b, err := json.Marshal(r.res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", b)
	return nil
}

// workloads maps a workload name to its repetition body.
var workloads = map[string]func(context.Context, *rep) error{
	"stream": runStream,
	"replay": runReplay,
	"serve":  runServe,
}
