// Command uninet is the command-line front end of the universal-network
// laboratory. Subcommands:
//
//	topo       — describe a topology (size, degree, diameter, expansion)
//	route      — route random h–h problems on a topology and report steps
//	simulate   — simulate a random guest on a host and report the slowdown
//	bound      — evaluate the Theorem 3.1 lower bound k(m)
//	tradeoff   — print the m·s vs n·log m trade-off table
//	pebble     — build and validate a pebble-game protocol; print statistics
//	bigsim     — streaming build+validate at big n (chunked storage, shards)
//	redblue    — price a protocol under the red-blue cost model (r-sweep, policies)
//	figure1    — render the Figure 1 dependency tree
//	experiment — run a subset of the E1..E24 suite (parallel runner, JSON)
//	report     — run the full suite and print every table
//	serve      — run the suite with live metrics over HTTP (expvar, pprof)
//	trace      — join per-node JSONL traces; waterfalls, attribution, percentiles
//
// Every subcommand takes -seed for reproducibility and prints plain tables.
// `experiment`, `report` and `serve` accept -trace FILE for per-span JSONL
// profiling output.
package main

import (
	"fmt"
	"os"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "topo":
		err = cmdTopo(args)
	case "route":
		err = cmdRoute(args)
	case "simulate":
		err = cmdSimulate(args)
	case "bound":
		err = cmdBound(args)
	case "tradeoff":
		err = cmdTradeoff(args)
	case "pebble":
		err = cmdPebble(args)
	case "bigsim":
		err = cmdBigsim(args)
	case "redblue":
		err = cmdRedblue(args)
	case "figure1":
		err = cmdFigure1(args)
	case "experiment":
		err = cmdExperiment(args)
	case "count":
		err = cmdCount(args)
	case "analyze":
		err = cmdAnalyze(args)
	case "report":
		err = cmdReport(args)
	case "serve":
		err = cmdServe(args)
	case "trace":
		err = cmdTrace(args)
	case "gap":
		err = cmdGap(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "uninet: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "uninet %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: uninet <command> [flags]

commands:
  topo       -kind mesh|torus|multitorus|butterfly|wbutterfly|ccc|se|debruijn|hypercube|regular|g0|ring|complete -n N [-d D] [-a A] [-deg DEG] [-seed S] [-save F | -load F]
  route      -kind ... -n N -h H -trials K [-seed S]
  simulate   -host butterfly|torus|expander|ring -hostsize M|-hostdim D -n N -deg C -steps T [-seed S]
  bound      -log2m X [-toy]  or  -n N -m M [-toy]
  tradeoff   -n N -ms 256,1024,4096 [-toy]
  pebble     -n N -deg C -hostdim D -steps T [-seed S] [-save F | -load F]
  bigsim     -n N -deg C -hostdim D -steps T [-build-shards W] [-shards W] [-window K] [-barrier-window K] [-chunk-kb KB] [-budget-kb KB] [-save F] [-assert-peak-bytes B] [-cpuprofile F] [-memprofile F] [-seed S]
  redblue    -n N -deg C -hostdim D -steps T [-r R1,R2,...] [-policy lru|random|belady|all] [-iocost G] [-computecost C] [-json] [-assert-monotone-io] [-seed S]
  figure1    [-blockside P] [-seed S]
  experiment [-only E1,E4,E12] [-parallel N] [-timeout D] [-json] [-failfast] [-list] [-seed S] [-faults NAME] [-fault-seed S] [-trace F]
  count      -n N -c C   (exact number of labeled c-regular graphs)
  analyze    [-blockside P] [-hostdim D] [-c C] [-seed S]   (the §3 pipeline, live)
  report     [-only IDs] [-parallel N] [-timeout D] [-json] [-seed S] [-faults NAME] [-fault-seed S] [-trace F]   (full E1..E24 suite)
  serve      [-addr A] [-only IDs] [-parallel N] [-once] [-queue Q] [-service-workers W] [-seed S] [-trace F]
             [-peers A1,A2] [-advertise A] [-heartbeat D] [-no-local-fallback] [-warm-push N] [-cluster-faults NAME]
             [-slow-ms MS] [-slow-profile-dir DIR] [-runtime-sample D]   (suite + live metrics + /v1 service; -peers = sharded cluster node)
  trace      [-top N] [-id TRACE] [-min-ms MS] [-json] [-assert-joined N] [-check-metrics URL] node1.jsonl [node2.jsonl ...]   (join multi-node traces, waterfalls + attribution)
  gap        [-s0 S] [-eps E]   (the conclusion's open-problem table)
`)
}
