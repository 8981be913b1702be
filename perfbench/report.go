package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// runReport summarizes the saved standard output of benchmark runs: per
// workload, tracing mode and commit, each metric's median, quartiles,
// sample count and quartile spread as a share of the median. It warns when
// the runs were measured on different machines.
func runReport(files []string, w io.Writer) error {
	if len(files) == 0 {
		return fmt.Errorf("no result files")
	}
	type group struct {
		values map[string][]float64
		units  map[string]string
		runs   int
		failed int
	}
	groups := map[string]*group{}
	machines := map[stamp][]string{}
	for _, path := range files {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var header string
		var st stamp
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		for _, l := range lines {
			if h, ok := strings.CutPrefix(l, "perfbench: "); ok {
				header = h
			} else if s, ok := strings.CutPrefix(l, "stamp: "); ok {
				if err := json.Unmarshal([]byte(s), &st); err != nil {
					return fmt.Errorf("%s: bad stamp: %w", path, err)
				}
			}
		}
		var res struct {
			Correct bool `json:"correct"`
			Metrics map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		if header == "" || json.Unmarshal([]byte(lines[len(lines)-1]), &res) != nil {
			return fmt.Errorf("%s: not the output of a benchmark run", path)
		}
		machines[st.machine()] = append(machines[st.machine()], path)
		// The seed varies within a group; workload, mode and commit do not.
		var key []string
		for _, f := range strings.Fields(header) {
			if !strings.HasPrefix(f, "seed=") {
				key = append(key, f)
			}
		}
		k := strings.Join(append(key, "commit="+st.Commit), " ")
		g := groups[k]
		if g == nil {
			g = &group{values: map[string][]float64{}, units: map[string]string{}}
			groups[k] = g
		}
		g.runs++
		if !res.Correct {
			g.failed++
		}
		for name, m := range res.Metrics {
			g.values[name] = append(g.values[name], m.Value)
			g.units[name] = m.Unit
		}
	}
	if len(machines) > 1 {
		fmt.Fprintf(w, "WARNING: these results were measured on %d different machines; do not compare them:\n", len(machines))
		for m, paths := range machines {
			b, _ := json.Marshal(m)
			fmt.Fprintf(w, "  %s: %s\n", b, strings.Join(paths, " "))
		}
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		g := groups[k]
		fmt.Fprintf(w, "\n%s: %d runs, %d failed their checks\n", k, g.runs, g.failed)
		fmt.Fprintf(w, "  %-36s %14s %14s %14s %3s %8s  %s\n", "metric", "median", "q1", "q3", "n", "spread", "unit")
		names := make([]string, 0, len(g.values))
		for n := range g.values {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			vs := g.values[n]
			q1, med, q3 := quartiles(vs)
			spread := "-"
			if med != 0 {
				spread = fmt.Sprintf("%7.2f%%", 100*(q3-q1)/med)
			}
			fmt.Fprintf(w, "  %-36s %14.6g %14.6g %14.6g %3d %8s  %s\n", n, med, q1, q3, len(vs), spread, g.units[n])
		}
	}
	return nil
}
