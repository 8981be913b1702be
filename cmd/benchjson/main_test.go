package main

import (
	"bytes"
	"encoding/json"
	"os"
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
// the memory columns must still be read, by unit rather than by position.
func TestParseCustomMetricColumns(t *testing.T) {
	const line = "BenchmarkCostedReplay-2  20  259651 ns/op  1648 ops/replay  8832 B/op  84 allocs/op\n"
	got, err := parse(strings.NewReader(line))
	if err != nil {
		t.Fatal(err)
	}
	want := Measurement{NsPerOp: 259651, BytesPerOp: 8832, AllocsPerOp: 84, Iterations: 20}
	if cr := got["BenchmarkCostedReplay"]; cr != want {
		t.Errorf("CostedReplay = %+v, want %+v", cr, want)
	}
}

func TestParseRejectsBadValue(t *testing.T) {
	if _, err := parse(strings.NewReader("BenchmarkX-2  10  12 ns/op  x1 B/op\n")); err == nil {
		t.Error("unparsable B/op accepted")
	}
}

func TestRunEmitsSortedJSON(t *testing.T) {
	var out bytes.Buffer
	if err := run(strings.NewReader(sample), &out); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]Measurement
	if err := json.Unmarshal(out.Bytes(), &decoded); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if len(decoded) != 3 {
		t.Fatalf("decoded %d entries, want 3", len(decoded))
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

	if err := runCompare(dir+"/missing.json", newPath, tolerances{}, &out); err == nil {
		t.Error("missing old baseline accepted")
	}
}
