// Command benchjson converts `go test -bench -benchmem` text output (read
// from stdin) into a JSON object mapping benchmark name to its measurements,
// for machine-readable performance baselines (`make bench-json`).
//
// Input lines it understands look like
//
//	BenchmarkE1Suite-8   	      12	  95310417 ns/op	 4240168 B/op	   31456 allocs/op
//	BenchmarkCostedReplay-2  20  259651 ns/op  1648 ops/replay  8832 B/op  84 allocs/op
//
// Columns after the iteration count are value/unit pairs, read by unit:
// b.ReportMetric columns sit between ns/op and the -benchmem columns and are
// kept under "metrics", unit → value. They carry the paper's quantities
// (slowdown, inefficiency k, s/((n/m)logm), …), which are deterministic.
// Everything else (pass/fail markers, package headers, goos/goarch
// banners) is ignored. The trailing -N GOMAXPROCS suffix is stripped so
// baselines compare across machines. Output is a single indented JSON object sorted by
// benchmark name, with the machine and build it was measured on under the
// reserved key "stamp":
//
//	{
//	  "BenchmarkE1Suite": {"ns_per_op": 95310417, "bytes_per_op": 4240168, "allocs_per_op": 31456, "iterations": 12},
//	  "BenchmarkCostedReplay": {"ns_per_op": 259651, …, "metrics": {"ops/replay": 1648}},
//	  "stamp": {"nproc": 2, "gomaxprocs": 2, "cpu_model": "…", "go_version": "go1.24.0", "git_commit": "…"}
//	}
//
// Compare mode checks a new baseline against an old one
// (`make bench-compare`):
//
//	benchjson -compare OLD.json NEW.json -tol-ns 25 -tol-allocs 10
//
// prints a per-benchmark delta table and exits non-zero when any shared
// benchmark regresses beyond the percentage tolerances (-tol-ns, -tol-bytes,
// -tol-allocs). It then lists the metrics, and exits non-zero when any
// metric that both files record for a benchmark differs at all: a moved
// paper number is a change of behaviour, not timing noise. Benchmarks and
// metrics present in only one file are reported but never fail the
// comparison, so baselines can gain and lose them freely. When both files
// carry a stamp and their machine fields (all but the commit) differ, it
// warns first; the verdict does not change, and files without a stamp are
// read as before.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Measurement is one benchmark's parsed result line.
type Measurement struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Iterations  int64   `json:"iterations"`
	// Metrics maps each b.ReportMetric unit to its value.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// gomaxprocsSuffix is the trailing -N the testing package appends to the
// benchmark name when GOMAXPROCS > 1.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// parse reads benchmark text from r and returns name → measurement. A name
// appearing twice (e.g. -count > 1) keeps the last occurrence.
func parse(r io.Reader) (map[string]Measurement, error) {
	out := make(map[string]Measurement)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		name, meas, ok, err := parseLine(sc.Text())
		if err != nil {
			return nil, err
		}
		if ok {
			out[name] = meas
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// parseLine reads one `testing.B` result row: the name, the iteration count,
// then value/unit pairs. ns/op is mandatory; the -benchmem columns are
// optional so plain `-bench` output still parses, and every other unit is a
// b.ReportMetric column. ok is false for lines that are not result rows.
func parseLine(line string) (name string, meas Measurement, ok bool, err error) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return "", Measurement{}, false, nil
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return "", Measurement{}, false, nil
	}
	meas.Iterations = iters
	for k := 2; k+1 < len(f); k += 2 {
		value, unit := f[k], f[k+1]
		switch unit {
		case "ns/op":
			meas.NsPerOp, err = strconv.ParseFloat(value, 64)
			ok = err == nil
		case "B/op":
			meas.BytesPerOp, err = strconv.ParseInt(value, 10, 64)
		case "allocs/op":
			meas.AllocsPerOp, err = strconv.ParseInt(value, 10, 64)
		default:
			var v float64
			if v, err = strconv.ParseFloat(value, 64); err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
				err = errors.New("not a finite number")
			}
			if err == nil {
				if meas.Metrics == nil {
					meas.Metrics = make(map[string]float64)
				}
				meas.Metrics[unit] = v
			}
		}
		if err != nil {
			return "", Measurement{}, false, fmt.Errorf("bad %s in %q: %w", unit, line, err)
		}
	}
	return gomaxprocsSuffix.ReplaceAllString(f[0], ""), meas, ok, nil
}

func run(in io.Reader, out io.Writer) error {
	results, err := parse(in)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("no benchmark result lines found on stdin")
	}
	doc := make(map[string]any, len(results)+1)
	for name, m := range results {
		doc[name] = m
	}
	doc[stampKey] = currentStamp()
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(doc) // map keys marshal sorted
}

// decodeBaseline splits a benchjson-format JSON baseline into its
// measurements and its stamp, which is nil in a file written before
// baselines were stamped.
func decodeBaseline(data []byte) (map[string]Measurement, *stamp, error) {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, nil, err
	}
	var st *stamp
	if s, ok := raw[stampKey]; ok {
		st = new(stamp)
		if err := json.Unmarshal(s, st); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", stampKey, err)
		}
		delete(raw, stampKey)
	}
	out := make(map[string]Measurement, len(raw))
	for name, m := range raw {
		var meas Measurement
		if err := json.Unmarshal(m, &meas); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", name, err)
		}
		out[name] = meas
	}
	return out, st, nil
}

// loadBaseline reads a benchjson-format JSON baseline file.
func loadBaseline(path string) (map[string]Measurement, *stamp, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	m, st, err := decodeBaseline(data)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, st, nil
}

// compareStamps warns when the two baselines were measured on different
// machines, and notes a baseline without a stamp. It never fails the
// comparison: the timing tolerances stay the gate.
func compareStamps(oldSt, newSt *stamp, w io.Writer) {
	switch {
	case oldSt == nil || newSt == nil:
		fmt.Fprintln(w, "note: a baseline has no machine stamp; machines not compared")
	case oldSt.machine() != newSt.machine():
		fmt.Fprintf(w, "warning: baselines measured on different machines; ns/op deltas include the machine\n  old: %d cpu, GOMAXPROCS %d, %s, %s\n  new: %d cpu, GOMAXPROCS %d, %s, %s\n",
			oldSt.NumCPU, oldSt.GOMAXPROCS, oldSt.CPU, oldSt.Go,
			newSt.NumCPU, newSt.GOMAXPROCS, newSt.CPU, newSt.Go)
	}
}

// deltaPct returns the percentage change from old to new. A zero old value
// yields 0 when new is also zero and +100 per unit otherwise, so a metric
// appearing from nothing is visible without dividing by zero.
func deltaPct(old, new float64) float64 {
	if old == 0 {
		if new == 0 {
			return 0
		}
		return 100 * new
	}
	return 100 * (new - old) / old
}

// tolerances holds the allowed percentage growth per metric before a
// benchmark counts as regressed.
type tolerances struct {
	ns, bytes, allocs float64
}

// compare renders the delta table of new versus old and returns the number
// of shared benchmarks regressing beyond tolerance in any metric.
func compare(oldM, newM map[string]Measurement, tol tolerances, w io.Writer) int {
	names := make([]string, 0, len(oldM))
	for name := range oldM {
		if _, ok := newM[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	regressed := 0
	fmt.Fprintf(w, "%-40s %12s %12s %12s\n", "benchmark", "ns/op Δ", "B/op Δ", "allocs Δ")
	for _, name := range names {
		o, n := oldM[name], newM[name]
		dNs := deltaPct(o.NsPerOp, n.NsPerOp)
		dBytes := deltaPct(float64(o.BytesPerOp), float64(n.BytesPerOp))
		dAllocs := deltaPct(float64(o.AllocsPerOp), float64(n.AllocsPerOp))
		bad := dNs > tol.ns || dBytes > tol.bytes || dAllocs > tol.allocs
		mark := ""
		if bad {
			mark = "  REGRESSED"
			regressed++
		}
		fmt.Fprintf(w, "%-40s %+11.1f%% %+11.1f%% %+11.1f%%%s\n", name, dNs, dBytes, dAllocs, mark)
	}
	for name := range oldM {
		if _, ok := newM[name]; !ok {
			fmt.Fprintf(w, "%-40s only in old baseline\n", name)
		}
	}
	for name := range newM {
		if _, ok := oldM[name]; !ok {
			fmt.Fprintf(w, "%-40s only in new baseline\n", name)
		}
	}
	if regressed > 0 {
		fmt.Fprintf(w, "%d benchmark(s) regressed beyond tolerance (ns>%g%%, bytes>%g%%, allocs>%g%%)\n",
			regressed, tol.ns, tol.bytes, tol.allocs)
	} else {
		fmt.Fprintf(w, "no regressions beyond tolerance (ns>%g%%, bytes>%g%%, allocs>%g%%) across %d shared benchmark(s)\n",
			tol.ns, tol.bytes, tol.allocs, len(names))
	}
	return regressed
}

// compareMetrics lists, for every benchmark in both files, each metric
// whose value differs and each metric only one file records, and returns
// the number of shared metric values that differ. Metrics are compared
// exactly: no tolerance applies.
func compareMetrics(oldM, newM map[string]Measurement, w io.Writer) int {
	names := make([]string, 0, len(oldM))
	for name := range oldM {
		if _, ok := newM[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	changed, shared := 0, 0
	for _, name := range names {
		o, n := oldM[name].Metrics, newM[name].Metrics
		units := make([]string, 0, len(o)+len(n))
		for u := range o {
			units = append(units, u)
		}
		for u := range n {
			if _, ok := o[u]; !ok {
				units = append(units, u)
			}
		}
		sort.Strings(units)
		for _, u := range units {
			ov, inOld := o[u]
			nv, inNew := n[u]
			switch {
			case !inNew:
				fmt.Fprintf(w, "%-40s %-24s only in old baseline (%g)\n", name, u, ov)
			case !inOld:
				fmt.Fprintf(w, "%-40s %-24s only in new baseline (%g)\n", name, u, nv)
			default:
				shared++
				if ov != nv {
					changed++
					fmt.Fprintf(w, "%-40s %-24s %g -> %g  CHANGED\n", name, u, ov, nv)
				}
			}
		}
	}
	switch {
	case changed > 0:
		fmt.Fprintf(w, "%d of %d shared metric value(s) changed\n", changed, shared)
	case shared == 0:
		fmt.Fprintln(w, "no metric recorded in both files")
	default:
		fmt.Fprintf(w, "all %d shared metric value(s) unchanged\n", shared)
	}
	return changed
}

// runCompare loads the two baselines and writes the delta table, then the
// metric check; the error carries both verdicts for main's exit code.
func runCompare(oldPath, newPath string, tol tolerances, w io.Writer) error {
	oldM, oldSt, err := loadBaseline(oldPath)
	if err != nil {
		return err
	}
	newM, newSt, err := loadBaseline(newPath)
	if err != nil {
		return err
	}
	compareStamps(oldSt, newSt, w)
	regressed := compare(oldM, newM, tol, w)
	fmt.Fprintln(w)
	changed := compareMetrics(oldM, newM, w)
	if regressed > 0 || changed > 0 {
		return fmt.Errorf("%d benchmark(s) regressed, %d metric value(s) changed", regressed, changed)
	}
	return nil
}

func main() {
	comparePath := flag.String("compare", "", "old baseline JSON; with a new baseline as the positional argument, print deltas and fail on regression")
	tolNs := flag.Float64("tol-ns", 25, "allowed ns/op growth in percent before a regression is flagged")
	tolBytes := flag.Float64("tol-bytes", 10, "allowed B/op growth in percent before a regression is flagged")
	tolAllocs := flag.Float64("tol-allocs", 10, "allowed allocs/op growth in percent before a regression is flagged")
	// Parse in a loop so flags may follow positionals, as in
	// `benchjson -compare OLD.json NEW.json -tol-ns 25 -tol-allocs 10`.
	args := os.Args[1:]
	var positionals []string
	for {
		flag.CommandLine.Parse(args) // ExitOnError: exits on bad flags
		rest := flag.CommandLine.Args()
		if len(rest) == 0 {
			break
		}
		positionals = append(positionals, rest[0])
		args = rest[1:]
	}

	if *comparePath != "" {
		if len(positionals) != 1 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare OLD.json needs exactly one NEW.json argument")
			os.Exit(2)
		}
		tol := tolerances{ns: *tolNs, bytes: *tolBytes, allocs: *tolAllocs}
		if err := runCompare(*comparePath, positionals[0], tol, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}
