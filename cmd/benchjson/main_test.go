package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: universalnet
cpu: Some CPU @ 2.00GHz
BenchmarkE1Suite-8   	      12	  95310417 ns/op	 4240168 B/op	   31456 allocs/op
BenchmarkRouteTorus 	    4096	    292041 ns/op
BenchmarkPebbleValidate-16	     100	  10500000.5 ns/op	       0 B/op	       0 allocs/op
--- BENCH: BenchmarkSomething-8
    bench_test.go:42: note line, not a result
PASS
ok  	universalnet	12.345s
`

func TestParse(t *testing.T) {
	got, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %v", len(got), got)
	}
	e1, ok := got["BenchmarkE1Suite"]
	if !ok {
		t.Fatalf("GOMAXPROCS suffix not stripped: keys %v", got)
	}
	if e1.NsPerOp != 95310417 || e1.BytesPerOp != 4240168 || e1.AllocsPerOp != 31456 || e1.Iterations != 12 {
		t.Errorf("E1Suite = %+v", e1)
	}
	rt := got["BenchmarkRouteTorus"]
	if rt.NsPerOp != 292041 || rt.BytesPerOp != 0 || rt.AllocsPerOp != 0 {
		t.Errorf("RouteTorus (no -benchmem columns) = %+v", rt)
	}
	if pv := got["BenchmarkPebbleValidate"]; pv.NsPerOp != 10500000.5 {
		t.Errorf("fractional ns/op = %+v", pv)
	}
}

// Go prints b.ReportMetric columns between ns/op and the -benchmem columns;
// the memory columns must still be read, by unit rather than by position,
// and the metric kept under its unit.
func TestParseCustomMetricColumns(t *testing.T) {
	const line = "BenchmarkCostedReplay-2  20  259651 ns/op  1648 ops/replay  8832 B/op  84 allocs/op\n"
	got, err := parse(strings.NewReader(line))
	if err != nil {
		t.Fatal(err)
	}
	want := Measurement{NsPerOp: 259651, BytesPerOp: 8832, AllocsPerOp: 84, Iterations: 20,
		Metrics: map[string]float64{"ops/replay": 1648}}
	if cr := got["BenchmarkCostedReplay"]; !reflect.DeepEqual(cr, want) {
		t.Errorf("CostedReplay = %+v, want %+v", cr, want)
	}
}

// Several metrics on one row, fractional and with units that hold
// punctuation, without -benchmem columns; a row with none keeps a nil map,
// which the JSON omits.
func TestParseKeepsMetrics(t *testing.T) {
	const rows = "BenchmarkStreamingPipeline/build-shards=1-2  1  15924395 ns/op  131428 peak-chunk-bytes  645.0 slowdown  3.571 s/((n/m)logm)\n" +
		"BenchmarkPlain-2  5  100 ns/op  0 B/op  0 allocs/op\n"
	got, err := parse(strings.NewReader(rows))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"peak-chunk-bytes": 131428, "slowdown": 645, "s/((n/m)logm)": 3.571}
	if m := got["BenchmarkStreamingPipeline/build-shards=1"].Metrics; !reflect.DeepEqual(m, want) {
		t.Errorf("metrics = %v, want %v", m, want)
	}
	if m := got["BenchmarkPlain"].Metrics; m != nil {
		t.Errorf("row without metrics parsed %v", m)
	}
	var out bytes.Buffer
	if err := run(strings.NewReader(rows), &out); err != nil {
		t.Fatal(err)
	}
	back, _, err := decodeBaseline(out.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, got) {
		t.Errorf("JSON round trip changed the measurements:\n%s", out.String())
	}
	if strings.Count(out.String(), `"metrics"`) != 1 {
		t.Errorf("want one metrics object:\n%s", out.String())
	}
}

func TestParseRejectsBadValue(t *testing.T) {
	for _, line := range []string{
		"BenchmarkX-2  10  12 ns/op  x1 B/op\n",
		"BenchmarkX-2  10  12 ns/op  1.5x slowdown\n",
		"BenchmarkX-2  10  12 ns/op  NaN slowdown\n", // JSON has no NaN
	} {
		if _, err := parse(strings.NewReader(line)); err == nil {
			t.Errorf("accepted %q", line)
		}
	}
}

func TestRunEmitsSortedJSON(t *testing.T) {
	var out bytes.Buffer
	if err := run(strings.NewReader(sample), &out); err != nil {
		t.Fatal(err)
	}
	decoded, st, err := decodeBaseline(out.Bytes())
	if err != nil {
		t.Fatalf("output is not a valid baseline: %v\n%s", err, out.String())
	}
	if len(decoded) != 3 {
		t.Fatalf("decoded %d entries, want 3", len(decoded))
	}
	if st == nil || *st != currentStamp() {
		t.Fatalf("stamp = %+v, want %+v\n%s", st, currentStamp(), out.String())
	}
	// Go marshals map keys sorted, so the baseline file is diff-stable.
	i1 := bytes.Index(out.Bytes(), []byte("BenchmarkE1Suite"))
	i2 := bytes.Index(out.Bytes(), []byte("BenchmarkPebbleValidate"))
	i3 := bytes.Index(out.Bytes(), []byte("BenchmarkRouteTorus"))
	if !(i1 < i2 && i2 < i3) {
		t.Errorf("keys not sorted: positions %d %d %d\n%s", i1, i2, i3, out.String())
	}
}

func TestRunRejectsEmptyInput(t *testing.T) {
	var out bytes.Buffer
	if err := run(strings.NewReader("PASS\nok\n"), &out); err == nil {
		t.Error("no-benchmark input accepted")
	}
}

func TestDeltaPct(t *testing.T) {
	cases := []struct{ old, new, want float64 }{
		{100, 125, 25},
		{100, 75, -25},
		{100, 100, 0},
		{0, 0, 0},
		{0, 3, 300}, // appears from nothing: visible, no division by zero
	}
	for _, c := range cases {
		if got := deltaPct(c.old, c.new); got != c.want {
			t.Errorf("deltaPct(%g, %g) = %g, want %g", c.old, c.new, got, c.want)
		}
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	oldM := map[string]Measurement{
		"BenchmarkFast":    {NsPerOp: 1000, BytesPerOp: 1000, AllocsPerOp: 100},
		"BenchmarkSlower":  {NsPerOp: 1000, BytesPerOp: 1000, AllocsPerOp: 100},
		"BenchmarkAllocs":  {NsPerOp: 1000, BytesPerOp: 1000, AllocsPerOp: 100},
		"BenchmarkRemoved": {NsPerOp: 5},
	}
	newM := map[string]Measurement{
		"BenchmarkFast":   {NsPerOp: 500, BytesPerOp: 900, AllocsPerOp: 90},   // improved
		"BenchmarkSlower": {NsPerOp: 1300, BytesPerOp: 1000, AllocsPerOp: 99}, // +30% ns
		"BenchmarkAllocs": {NsPerOp: 1000, BytesPerOp: 1000, AllocsPerOp: 120},
		"BenchmarkAdded":  {NsPerOp: 7},
	}
	tol := tolerances{ns: 25, bytes: 10, allocs: 10}

	var out bytes.Buffer
	if got := compare(oldM, newM, tol, &out); got != 2 {
		t.Errorf("compare counted %d regressions, want 2 (Slower ns, Allocs allocs)\n%s", got, out.String())
	}
	text := out.String()
	for _, want := range []string{
		"BenchmarkSlower", "REGRESSED",
		"BenchmarkRemoved", "only in old baseline",
		"BenchmarkAdded", "only in new baseline",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("table missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "BenchmarkFast                            REGRESSED") {
		t.Errorf("improvement flagged as regression:\n%s", text)
	}
}

func TestCompareWithinToleranceIsClean(t *testing.T) {
	oldM := map[string]Measurement{"BenchmarkX": {NsPerOp: 1000, BytesPerOp: 1000, AllocsPerOp: 100}}
	newM := map[string]Measurement{"BenchmarkX": {NsPerOp: 1200, BytesPerOp: 1050, AllocsPerOp: 105}}
	var out bytes.Buffer
	if got := compare(oldM, newM, tolerances{ns: 25, bytes: 10, allocs: 10}, &out); got != 0 {
		t.Errorf("within-tolerance drift flagged: %d regressions\n%s", got, out.String())
	}
	if !strings.Contains(out.String(), "no regressions beyond tolerance") {
		t.Errorf("missing clean verdict:\n%s", out.String())
	}
}

// Metrics must match exactly, whatever the timing tolerances; a metric or
// benchmark on one side only is reported but passes.
func TestCompareMetrics(t *testing.T) {
	oldM := map[string]Measurement{
		"BenchmarkSame":    {Metrics: map[string]float64{"slowdown": 645, "lambda2": 0.25}},
		"BenchmarkMoved":   {Metrics: map[string]float64{"inefficiency_k": 26.16, "slowdown": 7}},
		"BenchmarkOneSide": {Metrics: map[string]float64{"old_only": 1}},
		"BenchmarkGone":    {Metrics: map[string]float64{"x": 1}},
	}
	newM := map[string]Measurement{
		"BenchmarkSame":    {NsPerOp: 1e9, Metrics: map[string]float64{"slowdown": 645, "lambda2": 0.25}},
		"BenchmarkMoved":   {Metrics: map[string]float64{"inefficiency_k": 26.17, "slowdown": 7}},
		"BenchmarkOneSide": {Metrics: map[string]float64{"new_only": 2}},
	}
	var out bytes.Buffer
	if got := compareMetrics(oldM, newM, &out); got != 1 {
		t.Errorf("compareMetrics counted %d changes, want 1\n%s", got, out.String())
	}
	text := out.String()
	for _, want := range []string{
		"BenchmarkMoved", "inefficiency_k", "26.16 -> 26.17  CHANGED",
		"old_only", "only in old baseline (1)",
		"new_only", "only in new baseline (2)",
		"1 of 4 shared metric value(s) changed",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "BenchmarkSame") || strings.Contains(text, "BenchmarkGone") {
		t.Errorf("report lists benchmarks whose metrics did not change:\n%s", text)
	}

	out.Reset()
	if got := compareMetrics(oldM, oldM, &out); got != 0 || !strings.Contains(out.String(), "all 6 shared metric value(s) unchanged") {
		t.Errorf("identical files: %d changes\n%s", got, out.String())
	}

	// A baseline written before metrics were kept shares none.
	out.Reset()
	bare := map[string]Measurement{"BenchmarkSame": {NsPerOp: 1}}
	if got := compareMetrics(bare, newM, &out); got != 0 || !strings.Contains(out.String(), "no metric recorded in both files") {
		t.Errorf("metric-less old baseline: %d changes\n%s", got, out.String())
	}
}

func TestRunCompareEndToEnd(t *testing.T) {
	dir := t.TempDir()
	oldPath := dir + "/old.json"
	newPath := dir + "/new.json"
	writeBaseline := func(path string, m map[string]Measurement) {
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeBaseline(oldPath, map[string]Measurement{"BenchmarkX": {NsPerOp: 1000}})

	writeBaseline(newPath, map[string]Measurement{"BenchmarkX": {NsPerOp: 1000}})
	var out bytes.Buffer
	if err := runCompare(oldPath, newPath, tolerances{ns: 25, bytes: 10, allocs: 10}, &out); err != nil {
		t.Errorf("identical baselines: %v", err)
	}

	writeBaseline(newPath, map[string]Measurement{"BenchmarkX": {NsPerOp: 2000}})
	out.Reset()
	if err := runCompare(oldPath, newPath, tolerances{ns: 25, bytes: 10, allocs: 10}, &out); err == nil {
		t.Error("2x ns/op regression not reported as error")
	}

	// Identical timings, one paper number moved: the metric check fails it.
	writeBaseline(oldPath, map[string]Measurement{"BenchmarkX": {NsPerOp: 1000, Metrics: map[string]float64{"slowdown": 3.57}}})
	writeBaseline(newPath, map[string]Measurement{"BenchmarkX": {NsPerOp: 1000, Metrics: map[string]float64{"slowdown": 3.58}}})
	out.Reset()
	if err := runCompare(oldPath, newPath, tolerances{ns: 25, bytes: 10, allocs: 10}, &out); err == nil || !strings.Contains(err.Error(), "1 metric value(s) changed") {
		t.Errorf("changed metric: err = %v\n%s", err, out.String())
	}

	if err := runCompare(dir+"/missing.json", newPath, tolerances{}, &out); err == nil {
		t.Error("missing old baseline accepted")
	}
}

// -compare warns, and still passes, when the stamps name different
// machines; a different commit on the same machine is not a warning, and
// a stamp-less baseline such as BENCH_2026-10-17.json is still read.
func TestCompareStamps(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, st *stamp) string {
		doc := map[string]any{"BenchmarkX": Measurement{NsPerOp: 1000}}
		if st != nil {
			doc[stampKey] = st
		}
		data, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		path := dir + "/" + name
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	here := stamp{NumCPU: 2, GOMAXPROCS: 2, CPU: "Intel(R) Xeon(R) Processor", Go: "go1.24.0", Commit: "aaa"}
	later := here
	later.Commit = "bbb"
	wider := here
	wider.NumCPU, wider.GOMAXPROCS = 8, 8

	for _, c := range []struct {
		name     string
		old, new *stamp
		want     string
	}{
		{"same machine, new commit", &here, &later, ""},
		{"different machine", &here, &wider, "warning: baselines measured on different machines"},
		{"stamp-less old baseline", nil, &here, "note: a baseline has no machine stamp"},
	} {
		var out bytes.Buffer
		err := runCompare(write("old.json", c.old), write("new.json", c.new), tolerances{ns: 25, bytes: 10, allocs: 10}, &out)
		if err != nil {
			t.Errorf("%s: the stamps failed the comparison: %v", c.name, err)
		}
		got := out.String()
		if c.want == "" && (strings.Contains(got, "warning") || strings.Contains(got, "note")) || !strings.Contains(got, c.want) {
			t.Errorf("%s: want %q in\n%s", c.name, c.want, got)
		}
	}

	m, st, err := loadBaseline("../../BENCH_2026-10-17.json")
	if err != nil || st != nil || len(m) == 0 {
		t.Fatalf("stamp-less committed baseline: %d entries, stamp %+v, err %v", len(m), st, err)
	}
}
