// Command uninet is the command-line front end of the universal-network
// laboratory. `uninet help` lists the subcommands, and
// `uninet <command> -h` lists a subcommand's flags.
//
// The subcommands that draw random instances take -seed for
// reproducibility, and all print plain tables. `experiment`, `report` and
// `serve` accept -trace FILE for per-span JSONL profiling output.
package main

import (
	"fmt"
	"io"
	"os"
)

// command is one uninet subcommand: its name, the one-line summary
// `uninet help` prints, and the function that parses its flags and runs it.
type command struct {
	name, summary string
	run           func(args []string) error
}

// commands lists every subcommand in the order `uninet help` prints them.
var commands = []command{
	{"topo", "describe a topology (size, degree, diameter, expansion)", cmdTopo},
	{"route", "route random h–h problems on a topology and report steps", cmdRoute},
	{"simulate", "simulate a random guest on a host and report the slowdown", cmdSimulate},
	{"bound", "evaluate the Theorem 3.1 lower bound k(m)", cmdBound},
	{"tradeoff", "print the m·s vs n·log m trade-off table", cmdTradeoff},
	{"gap", "print the conclusion's open-problem table", cmdGap},
	{"count", "count the labeled c-regular graphs on n vertices exactly", cmdCount},
	{"pebble", "build and validate a pebble-game protocol; print statistics", cmdPebble},
	{"analyze", "run the §3 lower-bound pipeline on a live protocol", cmdAnalyze},
	{"bigsim", "streaming build+validate at big n (chunked storage, sharded validator)", cmdBigsim},
	{"redblue", "price a protocol under the red-blue cost model (r-sweep, policies)", cmdRedblue},
	{"figure1", "render the Figure 1 dependency tree", cmdFigure1},
	{"experiment", "run a subset of the experiment suite (parallel runner, JSON)", cmdExperiment},
	{"report", "run the full experiment suite and print every table", cmdReport},
	{"serve", "run the suite with live metrics and the /v1 service over HTTP", cmdServe},
	{"trace", "join per-node JSONL traces; waterfalls, attribution, percentiles", cmdTrace},
}

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	name, args := os.Args[1], os.Args[2:]
	if name == "help" || name == "-h" || name == "--help" {
		usage(os.Stderr)
		return
	}
	for _, c := range commands {
		if c.name != name {
			continue
		}
		if err := c.run(args); err != nil {
			fmt.Fprintf(os.Stderr, "uninet %s: %v\n", name, err)
			os.Exit(1)
		}
		return
	}
	fmt.Fprintf(os.Stderr, "uninet: unknown command %q\n", name)
	usage(os.Stderr)
	os.Exit(2)
}

// usage prints the command table. The flags are left to each command's
// FlagSet, which prints them for `uninet <command> -h`.
func usage(w io.Writer) {
	fmt.Fprint(w, "usage: uninet <command> [flags]\n\ncommands:\n")
	for _, c := range commands {
		fmt.Fprintf(w, "  %-10s  %s\n", c.name, c.summary)
	}
	fmt.Fprint(w, "\nRun 'uninet <command> -h' for a command's flags.\n")
}
