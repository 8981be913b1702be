// Command perfbench is the repository's benchmark. It runs one workload
// (stream, replay or serve; see README.md) for a number of seconds, one
// repetition per fresh process, checks every output, and prints each
// metric's median, quartiles and sample count, then a one-line JSON result.
//
// perfbench/run.py builds it and passes its flags through:
//
//	python3 perfbench/run.py --workload stream --seed 1 --seconds 36 --trace 0
//	python3 perfbench/run.py --report out/*.txt
//
// -trace 1 runs the traced variant instead: it reports the per-layer
// metrics and writes the run's spans for `uninet trace`.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	workload := flag.String("workload", "", "workload: stream, replay or serve")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 36, "measure for this many seconds")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	out := flag.String("out", ".bench_build", "directory for traces and scratch files")
	uninet := flag.String("uninet", "", "uninet binary that joins the traced run's spans")
	report := flag.Bool("report", false, "summarize the saved outputs of runs named as arguments")

	child := flag.Bool("child", false, "run one repetition (internal)")
	traced := flag.Bool("traced", false, "trace this repetition (internal)")
	dir := flag.String("dir", "", "repetition scratch directory (internal)")
	startNS := flag.Int64("start-ns", 0, "when the parent started this process (internal)")
	node := flag.String("node", "", "span node name (internal)")
	spans := flag.String("spans", "", "where this repetition writes its spans (internal)")
	parent := flag.String("parent", "", "parent span context (internal)")
	flag.Parse()

	switch {
	case *child:
		err := runChild(childOptions{
			workload: *workload, seed: *seed, traced: *traced, dir: *dir,
			startNS: *startNS, node: *node, spansOut: *spans, parent: *parent,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", *workload, *seed, err)
			os.Exit(1)
		}
	case *report:
		if err := runReport(flag.Args(), os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: report: %v\n", err)
			os.Exit(1)
		}
	default:
		if *trace != 0 && *uninet == "" {
			fmt.Fprintln(os.Stderr, "perfbench: -trace 1 needs -uninet")
			os.Exit(2)
		}
		ok, err := runBench(runOptions{
			workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0,
			out: *out, uninet: *uninet,
		}, os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		if !ok {
			os.Exit(1)
		}
	}
}
