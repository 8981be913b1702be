package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"time"

	"universalnet/internal/cluster"
	"universalnet/internal/experiments"
	"universalnet/internal/faults"
	"universalnet/internal/obs"
	"universalnet/internal/service"
)

// cmdServe runs the experiment suite with a live run-level metrics registry
// and serves it over HTTP: Prometheus text at /metrics, the JSON snapshot at
// /metrics.json, pprof under /debug/pprof/, and the simulation service
// under /v1/ (POST simulate|route|embed, GET status).
// After the suite completes the server keeps running — now primarily as a
// request-serving node — until interrupted (or, with -once, exits
// immediately).
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8214", "listen address")
	sf := addSuiteFlags(fs)
	once := fs.Bool("once", false, "exit when the suite completes instead of serving until interrupted")
	queue := fs.Int("queue", 0, "service admission-queue depth; 0 = 4×workers")
	serviceWorkers := fs.Int("service-workers", 0, "service worker-pool size; 0 = GOMAXPROCS")
	peers := fs.String("peers", "", "comma-separated peer addresses (host:port); enables cluster mode")
	advertise := fs.String("advertise", "", "address peers know this node by (default: the listen address)")
	heartbeat := fs.Duration("heartbeat", 0, "cluster heartbeat interval (0 = 500ms)")
	noFallback := fs.Bool("no-local-fallback", false, "surface forwarding failures as 502 instead of serving locally")
	warmPush := fs.Int("warm-push", 64, "queue depth for background owner cache-warming after local fallbacks (0 = off; cluster mode only)")
	clusterFaults := fs.String("cluster-faults", "", "named forward-fault scenario: "+strings.Join(faults.ClusterScenarioNames(), "|")+" (drop/delay rates apply to this node's forwards)")
	slowMS := fs.Int("slow-ms", 0, "slow-request watchdog threshold in ms (0 = off); slow requests log a span breakdown and may auto-capture a CPU profile")
	slowProfileDir := fs.String("slow-profile-dir", "", "directory for automatic CPU profiles of slow requests (requires -slow-ms)")
	runtimeSample := fs.Duration("runtime-sample", 5*time.Second, "Go runtime health sampling interval (0 = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	exps, cfg, err := sf.suite()
	if err != nil {
		return err
	}
	var peerList []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, p)
		}
	}
	var plan *faults.ClusterPlan
	if *clusterFaults != "" {
		// Only the drop/delay rates matter in-process; node kill events are
		// the chaos driver's job (uninetload -chaos). Nominal horizon.
		plan, err = faults.ClusterScenario(*clusterFaults, sf.faultSeed, len(peerList)+1, 60_000)
		if err != nil {
			return err
		}
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	return runServe(ctx, ln, exps, cfg, serveOpts{
		parallel:        sf.parallel,
		timeout:         sf.timeout,
		tracePath:       sf.trace,
		once:            *once,
		queue:           *queue,
		serviceWorkers:  *serviceWorkers,
		peers:           peerList,
		advertise:       *advertise,
		heartbeat:       *heartbeat,
		noLocalFallback: *noFallback,
		warmPushQueue:   *warmPush,
		clusterPlan:     plan,
		clusterSeed:     sf.faultSeed,
		slowThreshold:   time.Duration(*slowMS) * time.Millisecond,
		slowProfileDir:  *slowProfileDir,
		runtimeSample:   *runtimeSample,
	}, os.Stdout)
}

// serveOpts bundles runServe's knobs.
type serveOpts struct {
	parallel  int
	timeout   time.Duration
	tracePath string
	once      bool
	// queue and serviceWorkers size the /v1 service (0 = defaults).
	queue          int
	serviceWorkers int
	// drainGrace holds the server in a 503-answering drain window before
	// the listener is torn down, so in-flight keep-alive connections see an
	// explicit rejection instead of racing shutdown. 0 = a short default.
	drainGrace time.Duration
	// peers enables cluster mode: the /v1 service routes by consistent-hash
	// ownership over advertise ∪ peers, forwarding non-owned keys.
	peers []string
	// advertise is the name peers know this node by ("" = listener address).
	advertise string
	// heartbeat is the peer-probe interval (0 = cluster default).
	heartbeat time.Duration
	// noLocalFallback surfaces forwarding failures as 502 instead of local
	// compute.
	noLocalFallback bool
	// warmPushQueue sizes the background owner cache-warming queue after
	// local fallbacks (0 = off).
	warmPushQueue int
	// clusterPlan optionally injects deterministic forward faults.
	clusterPlan *faults.ClusterPlan
	// clusterSeed drives the forward backoff jitter.
	clusterSeed int64
	// slowThreshold arms the slow-request watchdog (0 = off).
	slowThreshold time.Duration
	// slowProfileDir receives automatic CPU captures of slow requests.
	slowProfileDir string
	// runtimeSample is the Go runtime health sampling interval (0 = off).
	runtimeSample time.Duration
}

// runServe is the listener-injectable core of cmdServe: it serves metrics
// and the /v1 simulation service on ln, runs the suite against a live
// run-level registry, and shuts the server down cleanly when ctx is
// canceled (or right after the suite with opts.once). Shutdown is a
// two-phase graceful drain: first every new HTTP request is answered 503
// for a short grace window (so keep-alive clients observe the drain instead
// of racing the listener teardown) and the service queue drains, then the
// server itself shuts down. Split from cmdServe so tests can inject a
// 127.0.0.1:0 listener and a cancellable context, then assert no goroutines
// leak across the whole drain window.
func runServe(ctx context.Context, ln net.Listener, exps []experiments.Experiment, cfg experiments.Config, opts serveOpts, out io.Writer) error {
	reg := obs.New()

	sink, err := openTrace(opts.tracePath)
	if err != nil {
		ln.Close()
		return err
	}
	// The run-level registry shares the JSONL sink, so the telemetry layer's
	// per-request span trees land in the same file as the suite's profiling
	// spans (the trace tool separates them by presence of trace IDs).
	if sink != nil {
		reg.SetTrace(sink)
	}

	svc := service.New(service.Config{
		Workers:    opts.serviceWorkers,
		QueueDepth: opts.queue,
		Obs:        reg,
	})

	// Cluster mode: /v1 requests route by consistent-hash ownership across
	// self ∪ peers; non-owned keys are forwarded with retries and a per-peer
	// circuit breaker, degrading to local compute when the owner is gone.
	v1 := http.Handler(service.Handler(svc))
	var node *cluster.Node
	var warmPusher *service.WarmPusher
	if len(opts.peers) > 0 {
		self := opts.advertise
		if self == "" {
			self = ln.Addr().String()
		}
		ccfg := cluster.Config{
			Self:           self,
			Peers:          opts.peers,
			HeartbeatEvery: opts.heartbeat,
			Seed:           opts.clusterSeed,
			Obs:            reg,
		}
		if opts.clusterPlan.Active() {
			ccfg.Faults = opts.clusterPlan
		}
		node, err = cluster.NewNode(ccfg)
		if err != nil {
			ln.Close()
			sink.Close()
			return err
		}
		copts := service.ClusterOptions{NoLocalFallback: opts.noLocalFallback}
		if opts.warmPushQueue > 0 {
			warmPusher = service.NewWarmPusher(node, service.WarmPushOptions{
				QueueDepth: opts.warmPushQueue,
				Obs:        reg,
			})
			copts.WarmPusher = warmPusher
		}
		v1 = service.ClusterHandler(svc, node, copts)
		node.Start()
	}

	// Telemetry wraps outermost so the per-stage timings context reaches the
	// cluster router and the service spine, and forwarded requests join one
	// distributed trace.
	nodeName := ln.Addr().String()
	if node != nil {
		nodeName = node.Self()
	}
	v1 = service.Telemetry(svc, service.TelemetryOptions{
		Node:          nodeName,
		SlowThreshold: opts.slowThreshold,
		SlowLog:       out,
		ProfileDir:    opts.slowProfileDir,
	}, v1)

	// Runtime health sampling: goroutines, heap, GC pauses, on a ticker.
	samplerStop := make(chan struct{})
	samplerDone := make(chan struct{})
	if opts.runtimeSample > 0 {
		sampler := obs.NewRuntimeSampler(reg)
		go func() {
			defer close(samplerDone)
			sampler.Run(opts.runtimeSample, samplerStop)
		}()
	} else {
		close(samplerDone)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.Snapshot().WriteProm(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(reg.Snapshot())
	})
	mux.Handle("/v1/", v1)

	// draining gates every endpoint (not just /v1): once shutdown begins,
	// new requests on existing connections get an explicit 503.
	var draining atomic.Bool
	srv := &http.Server{Handler: service.Drain(draining.Load, mux)}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Fprintf(out, "uninet serve: service on http://%s/v1/ (metrics /metrics, pprof /debug/pprof/)\n", ln.Addr())
	if node != nil {
		fmt.Fprintf(out, "uninet serve: cluster node %s, peers %s\n", node.Self(), strings.Join(opts.peers, ","))
	}

	r := &experiments.Runner{Workers: opts.parallel, Timeout: opts.timeout, Obs: reg, Trace: sink}
	results, runErr := r.Run(ctx, exps, cfg)
	failed := 0
	for _, res := range results {
		if res.Err != nil {
			failed++
		}
	}
	fmt.Fprintf(out, "uninet serve: suite done — %d experiments, %d failed\n", len(results), failed)

	if !opts.once {
		<-ctx.Done()
	}

	// Phase 1 of the drain: answer 503 everywhere, let the grace window
	// elapse so clients mid-keep-alive see the rejection, and drain the
	// service's queued work. A fresh context: the trigger ctx is typically
	// already canceled, and in-flight requests deserve a grace period.
	// Heartbeats stop first; in-flight forwards are unaffected and finish
	// under the server's own Shutdown wait.
	warmPusher.Close()
	if node != nil {
		node.Close()
	}
	close(samplerStop)
	<-samplerDone
	draining.Store(true)
	grace := opts.drainGrace
	if grace == 0 {
		grace = 100 * time.Millisecond
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	drainDone := make(chan error, 1)
	go func() { drainDone <- svc.Close(shutCtx) }()
	time.Sleep(grace)
	drainErr := <-drainDone

	// Phase 2: tear the server down; Shutdown waits for in-flight handlers.
	shutErr := srv.Shutdown(shutCtx)
	<-serveErr // Serve has returned; no goroutine left behind.
	if err := sink.Close(); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	if runErr != nil && !opts.once && ctx.Err() != nil {
		// Interrupted runs report the suite error only under -once semantics;
		// a deliberate Ctrl-C mid-suite is not a failure of the tool.
		runErr = nil
	}
	if shutErr != nil {
		return shutErr
	}
	if drainErr != nil {
		return drainErr
	}
	return runErr
}
