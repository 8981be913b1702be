package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"universalnet/internal/core"
	"universalnet/internal/depgraph"
	"universalnet/internal/expander"
	"universalnet/internal/experiments"
	"universalnet/internal/faults"
	"universalnet/internal/graph"
	"universalnet/internal/obs"
	"universalnet/internal/pebble"
	"universalnet/internal/routing"
	"universalnet/internal/sim"
	"universalnet/internal/topology"
	"universalnet/internal/universal"
)

// buildTopo constructs the named topology.
func buildTopo(kind string, n, d, a, deg int, seed int64) (*graph.Graph, error) {
	switch kind {
	case "mesh":
		return topology.Mesh(n)
	case "torus":
		return topology.Torus(n)
	case "multitorus":
		return topology.Multitorus(a, n)
	case "butterfly":
		return topology.Butterfly(d)
	case "wbutterfly":
		return topology.WrappedButterfly(d)
	case "ccc":
		return topology.CubeConnectedCycles(d)
	case "se":
		return topology.ShuffleExchange(d)
	case "debruijn":
		return topology.DeBruijn(d)
	case "hypercube":
		return topology.Hypercube(d)
	case "regular":
		return topology.RandomRegular(rand.New(rand.NewSource(seed)), n, deg)
	case "g0":
		g0, err := topology.BuildG0WithBlockSide(n, a, seed)
		if err != nil {
			return nil, err
		}
		return g0.Graph, nil
	case "ring":
		return topology.Ring(n)
	case "complete":
		return topology.Complete(n)
	}
	return nil, fmt.Errorf("unknown topology kind %q", kind)
}

func cmdTopo(args []string) error {
	fs := flag.NewFlagSet("topo", flag.ExitOnError)
	kind := fs.String("kind", "torus", "topology kind")
	n := fs.Int("n", 64, "number of vertices (where applicable)")
	d := fs.Int("d", 4, "dimension (butterfly/ccc/se/debruijn/hypercube)")
	a := fs.Int("a", 4, "block side (multitorus/g0)")
	deg := fs.Int("deg", 4, "degree (random regular)")
	seed := fs.Int64("seed", 1, "random seed")
	save := fs.String("save", "", "write the graph as JSON to this file")
	load := fs.String("load", "", "load a graph JSON instead of constructing one")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var (
		g   *graph.Graph
		err error
	)
	if *load != "" {
		f, ferr := os.Open(*load)
		if ferr != nil {
			return ferr
		}
		g, err = graph.ReadJSON(f)
		f.Close()
		*kind = *load
	} else {
		g, err = buildTopo(*kind, *n, *d, *a, *deg, *seed)
	}
	if err != nil {
		return err
	}
	if *save != "" {
		f, ferr := os.Create(*save)
		if ferr != nil {
			return ferr
		}
		if err := g.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("graph written to %s\n", *save)
	}
	fmt.Printf("topology %s: n=%d m=%d mindeg=%d maxdeg=%d connected=%v\n",
		*kind, g.N(), g.M(), g.MinDegree(), g.MaxDegree(), g.IsConnected())
	if g.N() <= 4096 {
		fmt.Printf("diameter=%d girth=%d\n", g.Diameter(), g.Girth())
	}
	if g.N() >= 4 && g.MinDegree() > 0 {
		lam, err := expander.SpectralGap(g, 300, *seed)
		if err == nil {
			fmt.Printf("lambda2=%.4f (normalized adjacency; gap=%.4f)\n", lam, 1-lam)
		}
	}
	return nil
}

func cmdRoute(args []string) error {
	fs := flag.NewFlagSet("route", flag.ExitOnError)
	kind := fs.String("kind", "torus", "topology kind")
	n := fs.Int("n", 64, "number of vertices")
	d := fs.Int("d", 4, "dimension")
	a := fs.Int("a", 4, "block side")
	deg := fs.Int("deg", 4, "degree")
	h := fs.Int("h", 2, "h of the h-h problem")
	trials := fs.Int("trials", 5, "random instances")
	seed := fs.Int64("seed", 1, "random seed")
	single := fs.Bool("singleport", false, "single-port node model")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := buildTopo(*kind, *n, *d, *a, *deg, *seed)
	if err != nil {
		return err
	}
	mode := routing.MultiPort
	if *single {
		mode = routing.SinglePort
	}
	r := &routing.GreedyRouter{Mode: mode, Seed: *seed}
	res, err := routing.MeasureRoute(g, r, *h, *trials, *seed)
	if err != nil {
		return err
	}
	fmt.Printf("route_%s(%d) over %d trials: %d steps (maxqueue=%d, hops=%d)\n",
		*kind, *h, *trials, res.Steps, res.MaxQueue, res.TotalHops)
	return nil
}

func cmdSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	hostKind := fs.String("host", "butterfly", "host kind: butterfly|torus|expander|ring")
	hostDim := fs.Int("hostdim", 4, "butterfly dimension")
	hostSize := fs.Int("hostsize", 64, "host size (torus/expander/ring)")
	n := fs.Int("n", 128, "guest size")
	deg := fs.Int("deg", 4, "guest degree")
	steps := fs.Int("steps", 5, "guest steps")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var (
		host *universal.Host
		err  error
	)
	switch *hostKind {
	case "butterfly":
		host, err = universal.ButterflyHost(*hostDim)
	case "torus":
		host, err = universal.TorusHost(*hostSize)
	case "expander":
		host, err = universal.ExpanderHost(*hostSize, 4, *seed)
	case "ring":
		host, err = universal.RingHost(*hostSize)
	default:
		return fmt.Errorf("unknown host kind %q", *hostKind)
	}
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(*seed))
	guest, err := topology.RandomGuest(rng, *n, *deg)
	if err != nil {
		return err
	}
	comp := sim.MixMod(guest, rng)
	rep, err := (&universal.EmbeddingSimulator{Host: host}).Run(comp, *steps)
	if err != nil {
		return err
	}
	direct, err := comp.Run(*steps)
	if err != nil {
		return err
	}
	ok := rep.Trace.Checksum() == direct.Checksum()
	m := host.Graph.N()
	fmt.Printf("host=%s guest: n=%d %d-regular, T=%d\n", host.Name, *n, *deg, *steps)
	fmt.Printf("host steps=%d (compute=%d route=%d) load=%d\n",
		rep.HostSteps, rep.ComputeSteps, rep.RouteSteps, rep.MaxLoad)
	fmt.Printf("slowdown s=%.2f  inefficiency k=s·m/n=%.2f  trace-verified=%v\n",
		rep.Slowdown, rep.Inefficiency, ok)
	fmt.Printf("Theorem 2.1 form (n/m)·log2 m = %.2f\n", core.UpperBoundSlowdown(*n, m, 1))
	return nil
}

func cmdBound(args []string) error {
	fs := flag.NewFlagSet("bound", flag.ExitOnError)
	log2m := fs.Float64("log2m", 0, "log2 of the host size (overrides -m)")
	n := fs.Int("n", 1<<16, "guest size")
	m := fs.Int("m", 1<<12, "host size")
	toy := fs.Bool("toy", false, "use unit-scale constants instead of the paper's")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p := core.Params{}.Defaults()
	label := "paper"
	if *toy {
		p = core.ToyParams()
		label = "toy"
	}
	if *log2m > 0 {
		k, err := p.KLowerBound(*log2m)
		if err != nil {
			return err
		}
		fmt.Printf("Theorem 3.1 (%s constants): log2 m = %.0f → k ≥ %.3f\n", label, *log2m, k)
		return nil
	}
	k, err := p.MinInefficiency(*n, *m)
	if err != nil {
		return err
	}
	s := k * float64(*n) / float64(*m)
	if s < 1 {
		s = 1
	}
	fmt.Printf("Theorem 3.1 (%s constants): n=%d m=%d → k ≥ %.3f, s ≥ %.3f, m·s ≥ %.0f (n·log2 m = %.0f)\n",
		label, *n, *m, k, s, float64(*m)*s, float64(*n)*log2(*m))
	return nil
}

func log2(x int) float64 {
	l := 0.0
	for v := x; v > 1; v >>= 1 {
		l++
	}
	return l
}

func cmdTradeoff(args []string) error {
	fs := flag.NewFlagSet("tradeoff", flag.ExitOnError)
	n := fs.Int("n", 1<<16, "guest size")
	msList := fs.String("ms", "256,1024,4096,16384,65536", "comma-separated host sizes")
	toy := fs.Bool("toy", false, "use unit-scale constants")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var ms []int
	for _, part := range strings.Split(*msList, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return fmt.Errorf("bad host size %q: %w", part, err)
		}
		ms = append(ms, v)
	}
	p := core.Params{}.Defaults()
	if *toy {
		p = core.ToyParams()
	}
	tab, err := experiments.TradeoffTable(p, *n, ms)
	if err != nil {
		return err
	}
	fmt.Print(tab)
	return nil
}

func cmdPebble(args []string) error {
	fs := flag.NewFlagSet("pebble", flag.ExitOnError)
	n := fs.Int("n", 32, "guest size")
	deg := fs.Int("deg", 4, "guest degree")
	hostDim := fs.Int("hostdim", 3, "wrapped-butterfly host dimension")
	steps := fs.Int("steps", 4, "guest steps")
	seed := fs.Int64("seed", 1, "random seed")
	save := fs.String("save", "", "write the protocol as JSON to this file")
	load := fs.String("load", "", "load a protocol JSON instead of building one")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var pr *pebble.Protocol
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			return err
		}
		defer f.Close()
		pr, err = pebble.ReadJSON(f)
		if err != nil {
			return err
		}
		*n = pr.Guest.N()
		*steps = pr.T
	} else {
		rng := rand.New(rand.NewSource(*seed))
		guest, err := topology.RandomGuest(rng, *n, *deg)
		if err != nil {
			return err
		}
		host, err := topology.WrappedButterfly(*hostDim)
		if err != nil {
			return err
		}
		pr, err = pebble.BuildEmbeddingProtocol(guest, host, nil, *steps)
		if err != nil {
			return err
		}
	}
	st, err := pr.Validate()
	if err != nil {
		return err
	}
	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			return err
		}
		if err := pr.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("protocol written to %s\n", *save)
	}
	host := pr.Host
	fmt.Printf("protocol: guest n=%d (%d-regular), host m=%d, T=%d\n", *n, *deg, host.N(), *steps)
	fmt.Printf("host steps T'=%d ops=%d slowdown=%.2f inefficiency k=%.2f\n",
		pr.HostSteps(), pr.OpCount(), pr.Slowdown(), pr.Inefficiency())
	for t := 0; t <= *steps; t++ {
		fmt.Printf("t=%d: Σ_i q_{i,t} = %d\n", t, st.TotalWeight(t))
	}
	t0 := *steps / 2
	frag, err := st.ExtractFragment(t0, st.PickLightest(t0))
	if err != nil {
		return err
	}
	maxD := 0
	for _, d := range frag.D {
		if len(d) > maxD {
			maxD = len(d)
		}
	}
	fmt.Printf("fragment at t0=%d: Σ|B_i|=%d max|D_i|=%d (valid=%v)\n",
		t0, frag.SumB(), maxD, frag.Validate() == nil)
	return nil
}

// cmdBigsim drives the streaming pipeline at sizes where materializing the
// protocol is off the table: builder, chunked archive, and sharded validator
// run concurrently, and the peak resident chunk bytes are reported (and
// optionally asserted — the bigsim-smoke CI gate uses that to pin the memory
// bound).
func cmdBigsim(args []string) error {
	fs := flag.NewFlagSet("bigsim", flag.ExitOnError)
	n := fs.Int("n", 100000, "guest size")
	deg := fs.Int("deg", 3, "guest degree")
	hostDim := fs.Int("hostdim", 5, "wrapped-butterfly host dimension")
	steps := fs.Int("steps", 2, "guest steps")
	shards := fs.Int("shards", 0, "validator shards (0 = GOMAXPROCS minus the builder workers, at least 1)")
	buildShards := fs.Int("build-shards", 0, "builder workers (0 = GOMAXPROCS/2, 1 = serial build)")
	window := fs.Int("window", 8, "pipe window in host steps")
	barrierWindow := fs.Int("barrier-window", 0, "validator host steps per barrier round (0 = default)")
	chunkKB := fs.Int("chunk-kb", 1024, "target chunk size in KiB")
	budgetKB := fs.Int("budget-kb", 8192, "resident chunk budget in KiB (0 = never spill)")
	seed := fs.Int64("seed", 1, "random seed")
	save := fs.String("save", "", "write the streamed protocol in binary form to this file")
	maxPeak := fs.Int64("assert-peak-bytes", 0, "fail if peak resident chunk bytes exceed this (0 = off)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile after the run to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	rng := rand.New(rand.NewSource(*seed))
	guest, err := topology.RandomGuest(rng, *n, *deg)
	if err != nil {
		return err
	}
	host, err := topology.WrappedButterfly(*hostDim)
	if err != nil {
		return err
	}
	chunks := pebble.NewChunkedLog(pebble.ChunkedLogOptions{
		TargetChunkBytes: *chunkKB << 10,
		MemBudgetBytes:   int64(*budgetKB) << 10,
	})
	defer chunks.Close()
	start := time.Now()
	rep, err := universal.RunStreamingEmbedding(guest, host, nil, *steps, universal.StreamRunConfig{
		Shards:        *shards,
		BuildShards:   *buildShards,
		Window:        *window,
		BarrierWindow: *barrierWindow,
		Chunks:        chunks,
		MeasureStalls: true,
	})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Printf("streaming run: guest n=%d (%d-regular), host m=%d, T=%d, build-shards=%d, shards=%d, window=%d\n",
		rep.N, *deg, rep.M, rep.T, rep.BuildShards, rep.ValidateShards, *window)
	fmt.Printf("host steps T'=%d ops=%d slowdown=%.2f inefficiency k=%.2f maxload=%d (%.1fs)\n",
		rep.HostSteps, rep.Ops, rep.Slowdown, rep.Inefficiency, rep.MaxLoad, elapsed.Seconds())
	fmt.Printf("protocol bytes: encoded=%d peak-resident=%d spilled=%d\n",
		rep.EncodedBytes, rep.PeakChunkBytes, rep.SpilledBytes)
	fmt.Printf("pipeline stalls: builder=%dms validator=%dms\n",
		rep.SendStallNs/1e6, rep.RecvStallNs/1e6)
	fmt.Printf("build split: busy=%dms pipe-stall=%dms merge-wait=%dms (workers=%d)\n",
		rep.BuildBusyNs/1e6, rep.BuildStallNs/1e6, rep.MergeWaitNs/1e6, rep.BuildShards)
	fmt.Printf("stream fingerprint: %016x steps=%d\n", rep.Fingerprint, rep.HostSteps)
	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			return err
		}
		sp := pebble.Spec{Guest: guest, Host: host, T: *steps}
		if err := pebble.WriteBinary(f, sp, chunks.Source()); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("protocol written to %s\n", *save)
	}
	if *maxPeak > 0 && rep.PeakChunkBytes > *maxPeak {
		return fmt.Errorf("peak resident chunk bytes %d exceed budget %d", rep.PeakChunkBytes, *maxPeak)
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("heap profile written to %s\n", *memProfile)
	}
	return nil
}

func cmdFigure1(args []string) error {
	fs := flag.NewFlagSet("figure1", flag.ExitOnError)
	blockSide := fs.Int("blockside", 4, "block side p = 2a")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	n := topology.NextValidG0Size(4*(*blockSide)*(*blockSide), *blockSide)
	g0, err := topology.BuildG0WithBlockSide(n, *blockSide, *seed)
	if err != nil {
		return err
	}
	depth := depgraph.TreeDepth(*blockSide)
	tree, err := depgraph.BuildDependencyTree(g0, g0.Blocks[0].Vertices[0], depth)
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderDependencyTree(g0, tree))
	fmt.Printf("size=%d (≤ %d·a² with a=%d), depth=%d, binary=yes, leaves cover the %d-node torus\n",
		tree.Size(), (tree.Size()+g0.A*g0.A-1)/(g0.A*g0.A), g0.A, tree.Depth(), *blockSide**blockSide)
	return nil
}

// cmdExperiment runs a subset of the registered experiment suite through
// the parallel runner. IDs come from -only; empty selects every registered
// experiment. With -json, one JSON object per experiment (id, derived seed,
// duration, structured payload, error) is emitted — the table text goes to
// stdout otherwise.
func cmdExperiment(args []string) error {
	fs := flag.NewFlagSet("experiment", flag.ExitOnError)
	only := fs.String("only", "", "comma-separated experiment ids, e.g. E1,E4,E12 (default: all)")
	parallel := fs.Int("parallel", 1, "worker count; 0 = GOMAXPROCS")
	timeout := fs.Duration("timeout", 0, "overall deadline, e.g. 90s (0 = none)")
	jsonOut := fs.Bool("json", false, "emit one JSON object per experiment instead of tables")
	failFast := fs.Bool("failfast", false, "cancel remaining experiments on the first failure")
	list := fs.Bool("list", false, "list the registered experiments and exit")
	seed := fs.Int64("seed", 1, "root random seed (per-experiment seeds are derived from it)")
	faultScenario := fs.String("faults", "", "named fault scenario for fault-aware experiments: "+strings.Join(faults.ScenarioNames(), "|"))
	faultSeed := fs.Int64("fault-seed", 1, "seed of the fault scenario's deterministic schedule")
	tracePath := fs.String("trace", "", "write per-span JSONL tracing to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		fmt.Print(listExperiments())
		return nil
	}
	var ids []string
	if *only != "" {
		ids = strings.Split(*only, ",")
	}
	exps, err := experiments.Select(ids)
	if err != nil {
		return err
	}
	cfg, err := experimentConfig(*seed, *faultScenario, *faultSeed)
	if err != nil {
		return err
	}
	return runExperiments(exps, cfg, runOpts{
		parallel: *parallel, timeout: *timeout, failFast: *failFast,
		jsonOut: *jsonOut, tracePath: *tracePath,
	})
}

// experimentConfig assembles the suite Config, validating a named fault
// scenario early so a typo fails before any experiment runs.
func experimentConfig(seed int64, faultScenario string, faultSeed int64) (experiments.Config, error) {
	cfg := experiments.Config{Seed: seed, FaultScenario: faultScenario, FaultSeed: faultSeed}
	if faultScenario != "" {
		// Resolve against a token host to validate the name only; the
		// experiment resolves it against its real m and T.
		if _, err := faults.Scenario(faultScenario, faultSeed, 2, 1); err != nil {
			return experiments.Config{}, err
		}
	}
	return cfg, nil
}

// listExperiments renders the registry as an id → claim → modules table.
func listExperiments() string {
	reg := experiments.Registry()
	tab := &experiments.Table{
		Title:   fmt.Sprintf("Registered experiments (%d: E1..E24, E26)", len(reg)),
		Columns: []string{"id", "claim", "modules"},
	}
	for _, e := range reg {
		tab.Rows = append(tab.Rows, []string{e.ID, e.Claim, e.Modules})
	}
	return tab.String()
}

// runOpts bundles the execution knobs shared by `experiment`, `report` and
// `serve`.
type runOpts struct {
	parallel  int
	timeout   time.Duration
	failFast  bool
	jsonOut   bool
	tracePath string // "" = tracing off
}

// openTrace opens the JSONL span sink named by tracePath ("" → nil sink,
// tracing disabled).
func openTrace(path string) (*obs.TraceSink, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("trace output: %w", err)
	}
	return obs.NewTraceSink(f), nil
}

// runExperiments executes exps on the runner and writes tables (or JSON
// lines) to stdout. The returned error aggregates every failed experiment.
// Table output carries no timings, and the per-experiment metrics snapshot
// in JSON output excludes wall-clock by construction, so both are
// byte-identical across worker counts; timing lives in duration_ms and the
// optional -trace JSONL.
func runExperiments(exps []experiments.Experiment, cfg experiments.Config, opt runOpts) error {
	sink, err := openTrace(opt.tracePath)
	if err != nil {
		return err
	}
	r := &experiments.Runner{Workers: opt.parallel, Timeout: opt.timeout, FailFast: opt.failFast, Trace: sink}
	results, runErr := r.Run(context.Background(), exps, cfg)
	if err := sink.Close(); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	if opt.jsonOut {
		enc := json.NewEncoder(os.Stdout)
		for _, res := range results {
			obj := map[string]any{
				"id":          res.ID,
				"seed":        res.Seed,
				"duration_ms": float64(res.Duration) / float64(time.Millisecond),
			}
			if res.Payload != nil {
				obj["payload"] = res.Payload
			}
			if !res.Metrics.Empty() {
				obj["metrics"] = res.Metrics
			}
			if res.Err != nil {
				obj["error"] = res.Err.Error()
			}
			if err := enc.Encode(obj); err != nil {
				return err
			}
		}
		return runErr
	}
	for _, res := range results {
		if res.Err != nil {
			fmt.Fprintf(os.Stderr, "uninet: %s failed: %v\n", res.ID, res.Err)
			continue
		}
		fmt.Printf("\n%s\n", res.Text)
	}
	return runErr
}

func cmdCount(args []string) error {
	fs := flag.NewFlagSet("count", flag.ExitOnError)
	n := fs.Int("n", 8, "number of vertices (≤ 16)")
	c := fs.Int("c", 3, "degree")
	if err := fs.Parse(args); err != nil {
		return err
	}
	exact, err := core.CountRegularGraphsExact(*n, *c)
	if err != nil {
		return err
	}
	fmt.Printf("labeled %d-regular graphs on %d vertices: %v\n", *c, *n, exact)
	fmt.Printf("configuration-model estimate: 2^%.2f\n", core.Log2RegularGraphCount(*n, *c))
	return nil
}

// cmdAnalyze runs the full §3 lower-bound pipeline on a live protocol:
// G₀, a guest from 𝒰[G₀], a validated protocol, stateful replay, Lemma 3.12
// weights and critical times, a fragment and its multiplicity bound.
func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	blockSide := fs.Int("blockside", 4, "G0 block side p = 2a")
	hostDim := fs.Int("hostdim", 3, "wrapped-butterfly host dimension")
	c := fs.Int("c", 16, "guest degree (the paper's c)")
	extra := fs.Int("extra", 8, "guest steps beyond the tree depth")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	n := topology.NextValidG0Size(4*(*blockSide)*(*blockSide), *blockSide)
	g0, err := topology.BuildG0WithBlockSide(n, *blockSide, *seed)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(*seed + 1))
	guest, err := g0.SampleGuest(rng, *c)
	if err != nil {
		return err
	}
	host, err := topology.WrappedButterfly(*hostDim)
	if err != nil {
		return err
	}
	T := depgraph.TreeDepth(*blockSide) + *extra
	pr, err := pebble.BuildEmbeddingProtocol(guest, host, nil, T)
	if err != nil {
		return err
	}
	st, err := pr.Validate()
	if err != nil {
		return err
	}
	fmt.Printf("guest G ∈ U[G0]: n=%d %d-regular; host m=%d; T=%d\n", n, *c, host.N(), T)
	fmt.Printf("protocol: T'=%d slowdown=%.1f k=%.1f  [%v]\n",
		pr.HostSteps(), pr.Slowdown(), pr.Inefficiency(), pr.Stats())

	comp := sim.MixMod(guest, rng)
	if err := pebble.VerifyCarries(pr, comp); err != nil {
		return fmt.Errorf("stateful replay failed: %w", err)
	}
	fmt.Println("stateful replay matches direct execution ✓")

	lw, err := st.ComputeLemmaWeights(g0)
	if err != nil {
		return err
	}
	z := lw.CriticalTimes(T)
	fmt.Printf("Lemma 3.12: D=%d, max tree size=%d (48a²=%d); |Z_S|=%d ≥ %d\n",
		lw.D, lw.TreeSize, 48*g0.A*g0.A, len(z), (T-lw.D)/2)
	if len(z) == 0 {
		return fmt.Errorf("no critical times")
	}
	t0 := z[len(z)/2]
	roots, err := st.ChooseRoots(g0, lw, t0)
	if err != nil {
		return err
	}
	fmt.Printf("roots at t0=%d: %v\n", t0, roots)
	frag, err := st.ExtractFragment(t0, st.PickLightest(t0))
	if err != nil {
		return err
	}
	if err := frag.Validate(); err != nil {
		return err
	}
	dSizes := make([]int, n)
	for i := range frag.D {
		dSizes[i] = len(frag.D[i])
	}
	fmt.Printf("fragment: Σ|B_i|=%d; Lemma 3.3: log2 X ≤ %.1f vs log2 |U[G0]| ≥ %.1f\n",
		frag.SumB(), core.Log2MultiplicityExact(dSizes, *c-12),
		core.Params{C: *c}.Defaults().Log2Guests(n))
	return nil
}

// cmdReport runs the evaluation suite (every registered experiment by
// default) and prints every table. It shares the registry/runner engine with
// cmdExperiment: -parallel fans out over a worker pool without changing a
// byte of the output, -only restricts to a subset, -timeout bounds the run.
func cmdReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "root random seed (per-experiment seeds are derived from it)")
	only := fs.String("only", "", "comma-separated experiment ids (default: all)")
	parallel := fs.Int("parallel", 1, "worker count; 0 = GOMAXPROCS")
	timeout := fs.Duration("timeout", 0, "overall deadline, e.g. 90s (0 = none)")
	jsonOut := fs.Bool("json", false, "emit one JSON object per experiment instead of tables")
	faultScenario := fs.String("faults", "", "named fault scenario for fault-aware experiments: "+strings.Join(faults.ScenarioNames(), "|"))
	faultSeed := fs.Int64("fault-seed", 1, "seed of the fault scenario's deterministic schedule")
	tracePath := fs.String("trace", "", "write per-span JSONL tracing to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var ids []string
	if *only != "" {
		ids = strings.Split(*only, ",")
	}
	exps, err := experiments.Select(ids)
	if err != nil {
		return err
	}
	cfg, err := experimentConfig(*seed, *faultScenario, *faultSeed)
	if err != nil {
		return err
	}
	return runExperiments(exps, cfg, runOpts{
		parallel: *parallel, timeout: *timeout, failFast: true,
		jsonOut: *jsonOut, tracePath: *tracePath,
	})
}

// cmdGap prints the conclusion's open-problem table: the host size needed
// for constant slowdown, between Theorem 3.1's Ω(n·log n)-style lower bound
// and [14]'s O(n^{1+ε}) upper bound.
func cmdGap(args []string) error {
	fs := flag.NewFlagSet("gap", flag.ExitOnError)
	s0 := fs.Float64("s0", 2, "slowdown cap (constant)")
	eps := fs.Float64("eps", 0.5, "the [14] upper-bound exponent ε")
	toy := fs.Bool("toy", true, "use unit-scale constants (default; paper constants are vacuous here)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p := core.ToyParams()
	label := "toy"
	if !*toy {
		p = core.Params{}.Defaults()
		label = "paper"
	}
	ns := []int{1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20}
	rows, err := p.OpenProblemGap(ns, *s0, *eps)
	if err != nil {
		return err
	}
	fmt.Printf("Conclusion (open problem), %s constants: host size for slowdown ≤ %.0f\n", label, *s0)
	fmt.Printf("%-10s  %-16s  %-16s  %-10s\n", "n", "m lower (Thm3.1)", "m upper n^(1+ε)", "m_low/n")
	for _, r := range rows {
		fmt.Printf("%-10d  %-16.0f  %-16.0f  %-10.2f\n", r.N, r.MLower, r.MUpper, r.MLower/float64(r.N))
	}
	return nil
}
