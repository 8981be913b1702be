package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"universalnet/internal/obs"
)

// runOptions configures one benchmark run: repetitions of one workload and
// seed until the run's seconds are spent.
type runOptions struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string // output directory: traces and scratch files
	uninet   string // uninet binary, for joining the traced run's spans
}

// sample is one finished repetition as the run saw it.
type sample struct {
	traced bool
	wallS  float64
	rssB   float64
	cpuS   float64
	res    repResult
}

// minReps is the fewest repetitions a run makes, however long they take:
// the repeat checks need two, and a traced run needs one traced and one
// untraced repetition for trace.overhead.
const minReps = 2

// runBench runs the repetitions, checks their outputs, and prints every
// metric and then the one-line JSON result. It returns false when an
// output check failed.
func runBench(o runOptions, stdout io.Writer) (bool, error) {
	if _, ok := workloads[o.workload]; !ok {
		return false, fmt.Errorf("unknown workload %q (have stream, replay, serve)", o.workload)
	}
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	scratch, err := os.MkdirTemp(o.out, "run-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(scratch)

	st, err := json.Marshal(currentStamp())
	if err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d seconds=%d trace=%d\n", o.workload, o.seed, o.seconds, b2i(o.trace))
	fmt.Fprintf(stdout, "stamp: %s\n", st)

	ids := obs.NewIDSource(o.seed)
	run := obs.SpanContext{Trace: ids.TraceID(), Span: ids.SpanID()}
	runStart := time.Now()
	deadline := runStart.Add(time.Duration(o.seconds) * time.Second)
	var samples []sample
	var longest time.Duration
	for i := 0; i < minReps || time.Now().Add(longest).Before(deadline); i++ {
		traced := o.trace && i%2 == 1
		s, err := spawn(exe, o, scratch, i, traced, run)
		if err != nil {
			return false, fmt.Errorf("repetition %d: %w", i, err)
		}
		samples = append(samples, s)
		longest = max(longest, time.Duration(s.wallS*float64(time.Second)))
	}

	var notes []string
	var attempted, failed int64
	for i, s := range samples {
		fmt.Fprintf(stdout, "repetition %d traced=%d: wall %.2f s, setup %.3f s, timed %.3f s, %.4g ops/s, rss %.0f B, cpu %.2f s\n",
			i, b2i(s.traced), s.wallS, s.res.SetupS, s.res.TimedS, float64(s.res.Ops)/s.res.TimedS, s.rssB, s.cpuS)
		attempted += s.res.Attempted
		failed += s.res.Failed
		for _, n := range s.res.Notes {
			notes = append(notes, fmt.Sprintf("repetition %d: %s", i, n))
		}
		if d := diffRepeat(samples[0].res.Repeat, s.res.Repeat); d != "" {
			notes = append(notes, fmt.Sprintf("repetition %d does not repeat repetition 0: %s", i, d))
		}
	}

	var metrics []metric
	values := map[string][]float64{}
	bases := map[string]string{}
	var tracedS, plainS []float64 // timed-phase wall times
	for _, s := range samples {
		if s.traced {
			tracedS = append(tracedS, s.res.TimedS)
		} else {
			plainS = append(plainS, s.res.TimedS)
		}
	}
	if !o.trace {
		metrics = endToEnd
		for _, s := range samples {
			values["setup_s"] = append(values["setup_s"], s.res.SetupS)
			values["ops_per_s"] = append(values["ops_per_s"], float64(s.res.Ops)/s.res.TimedS)
			values["peak_rss_bytes"] = append(values["peak_rss_bytes"], s.rssB)
		}
	} else {
		metrics = perLayer
		for _, s := range samples {
			layers := map[string]float64{"process.cpu_s": s.cpuS}
			for k, v := range s.res.Layers {
				layers[k] = v
			}
			if s.traced {
				layers["trace.overhead"] = s.res.TimedS / median(plainS)
			}
			// A metric comes from the traced repetitions, or from the
			// untraced ones when tracing would inflate it.
			for k, v := range layers {
				if untracedLayers[k] != s.traced {
					values[k] = append(values[k], v)
				}
			}
			for k, v := range s.res.Bases {
				if untracedLayers[k] != s.traced {
					bases[k] = v
				}
			}
		}
		for _, m := range perLayer {
			from, kind := len(tracedS), "traced"
			if untracedLayers[m.name] {
				from, kind = len(plainS), "untraced"
			}
			if !m.measuredBy(o.workload) {
				values[m.name] = []float64{0}
			} else if len(values[m.name]) != from {
				notes = append(notes, fmt.Sprintf("%s: measured by %d of %d %s repetitions", m.name, len(values[m.name]), from, kind))
			}
		}
		if err := joinTrace(stdout, o, scratch, run, runStart); err != nil {
			notes = append(notes, err.Error())
		}
	}

	fmt.Fprintf(stdout, "%d repetitions (%d traced), %.1f s\n", len(samples), len(tracedS), time.Since(runStart).Seconds())
	fmt.Fprintf(stdout, "%-36s %14s %14s %14s %3s  %s\n", "metric", "median", "q1", "q3", "n", "unit")
	result := map[string]any{}
	for _, m := range metrics {
		vs := values[m.name]
		q1, med, q3 := quartiles(vs)
		if math.IsNaN(med) || math.IsInf(med, 0) {
			notes = append(notes, fmt.Sprintf("%s: no value", m.name))
			continue
		}
		line := fmt.Sprintf("%-36s %14.6g %14.6g %14.6g %3d  %s", m.name, med, q1, q3, len(vs), m.unit)
		if b := bases[m.name]; b != "" {
			line += "  (" + b + ")"
		}
		fmt.Fprintln(stdout, line)
		result[m.name] = map[string]any{"value": med, "unit": m.unit}
	}
	correct := len(notes) == 0 && failed == 0
	for _, n := range notes {
		fmt.Fprintf(stdout, "check failed: %s\n", n)
	}
	if len(notes) > 0 {
		failed = attempted // every output of the run is suspect
	}
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   result,
	})
	if err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return correct, nil
}

// spawn runs repetition i in a fresh process and collects its result and
// resource usage.
func spawn(exe string, o runOptions, scratch string, i int, traced bool, run obs.SpanContext) (sample, error) {
	dir := filepath.Join(scratch, fmt.Sprintf("rep-%d", i))
	if err := os.Mkdir(dir, 0o755); err != nil {
		return sample{}, err
	}
	defer os.RemoveAll(dir)
	start := time.Now()
	args := []string{"-child",
		"-workload", o.workload,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-dir", dir,
		"-start-ns", strconv.FormatInt(start.UnixNano(), 10),
		"-node", fmt.Sprintf("rep-%d", i),
	}
	if traced {
		args = append(args, "-traced", "-spans", spanPart(scratch, i), "-parent", run.HeaderValue())
	}
	var out bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return sample{}, err
	}
	s := sample{traced: traced, wallS: time.Since(start).Seconds()}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		s.rssB = float64(ru.Maxrss) * 1024 // Linux reports KiB
		s.cpuS = tv(ru.Utime) + tv(ru.Stime)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s.res); err != nil {
		return sample{}, fmt.Errorf("bad result line: %w", err)
	}
	if s.res.TimedS <= 0 || s.res.Attempted < 1 {
		return sample{}, fmt.Errorf("result without a timed phase: %s", lines[len(lines)-1])
	}
	return s, nil
}

func spanPart(scratch string, i int) string {
	return filepath.Join(scratch, fmt.Sprintf("spans-%d.jsonl", i))
}

// joinTrace writes the run's trace file — the bench.run root span and
// every traced repetition's spans — prints self time per span name, and
// checks that `uninet trace` joins it.
func joinTrace(stdout io.Writer, o runOptions, scratch string, run obs.SpanContext, runStart time.Time) error {
	dir := filepath.Join(o.out, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	var buf bytes.Buffer
	sink := obs.NewTraceSink(&buf)
	sink.Emit(obs.SpanEvent{
		Span:    "bench.run",
		Trace:   run.Trace.String(),
		SpanID:  run.Span.String(),
		StartUS: runStart.UnixMicro(),
		DurUS:   time.Since(runStart).Microseconds(),
		Attrs:   map[string]any{"node": "perfbench", "workload": o.workload, "seed": o.seed},
	})
	if err := sink.Flush(); err != nil {
		return err
	}
	parts, err := filepath.Glob(filepath.Join(scratch, "spans-*.jsonl"))
	if err != nil {
		return err
	}
	for _, p := range parts {
		if err := appendFile(&buf, p); err != nil {
			return err
		}
	}
	spans, err := readSpans(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return err
	}
	if err := uniqueSpanIDs(spans); err != nil {
		return err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	self := selfByName(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(stdout, "trace %s: %d spans in %s; self time by span:\n", run.Trace, len(spans), path)
	for _, n := range names {
		fmt.Fprintf(stdout, "  %-32s %10.3f s\n", n, float64(self[n])/1e6)
	}
	return checkJoin(o.uninet, path)
}

// diffRepeat describes the first key on which b fails to repeat a.
func diffRepeat(a, b map[string]string) string {
	keys := map[string]bool{}
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		if a[k] != b[k] {
			return fmt.Sprintf("%s %q != %q", k, b[k], a[k])
		}
	}
	return ""
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
