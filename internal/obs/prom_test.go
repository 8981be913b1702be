package obs

import (
	"bytes"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// TestWritePromParses: the exposition writer's output must survive our own
// validating parser — the same check the /metrics tests and the smoke script
// run against a live server.
func TestWritePromParses(t *testing.T) {
	r := New()
	r.Counter("service.requests").Add(7)
	r.Counter(`service.stage_errors{endpoint="simulate",route="local"}`).Add(2)
	r.Gauge("runtime.goroutines").Set(13)
	h := r.Histogram(`service.stage_us{endpoint="simulate",route="local",stage="compute"}`,
		[]int64{100, 1000, 10000})
	h.Observe(50)
	h.Observe(500)
	h.Observe(5 * 1000 * 1000) // overflow

	var buf bytes.Buffer
	if err := r.Snapshot().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	fams, err := ParseProm(strings.NewReader(out))
	if err != nil {
		t.Fatalf("own output failed to parse: %v\n%s", err, out)
	}

	c := fams["service_requests_total"]
	if c == nil || c.Type != "counter" || len(c.Samples) != 1 || c.Samples[0].Value != 7 {
		t.Fatalf("counter family wrong: %+v\n%s", c, out)
	}
	lc := fams["service_stage_errors_total"]
	if lc == nil || len(lc.Samples) != 1 {
		t.Fatalf("labeled counter family wrong: %+v", lc)
	}
	if lc.Samples[0].Labels["endpoint"] != "simulate" || lc.Samples[0].Labels["route"] != "local" {
		t.Fatalf("labels lost: %v", lc.Samples[0].Labels)
	}
	g := fams["runtime_goroutines"]
	if g == nil || g.Type != "gauge" || g.Samples[0].Value != 13 {
		t.Fatalf("gauge family wrong: %+v", g)
	}
	hf := fams["service_stage_us"]
	if hf == nil || hf.Type != "histogram" {
		t.Fatalf("histogram family missing: %+v", hf)
	}
	// 3 finite buckets + +Inf + sum + count = 6 samples.
	if len(hf.Samples) != 6 {
		t.Fatalf("histogram has %d samples, want 6:\n%s", len(hf.Samples), out)
	}
	var count, sum float64
	for _, s := range hf.Samples {
		switch {
		case strings.HasSuffix(s.Name, "_count"):
			count = s.Value
		case strings.HasSuffix(s.Name, "_sum"):
			sum = s.Value
		case s.Labels["le"] == "1000":
			if s.Value != 2 { // cumulative: 50 and 500
				t.Fatalf("le=1000 bucket %v, want 2", s.Value)
			}
		}
	}
	if count != 3 || sum != 50+500+5*1000*1000 {
		t.Fatalf("count=%v sum=%v", count, sum)
	}
}

// TestWritePromDeterministic: same snapshot, same bytes.
func TestWritePromDeterministic(t *testing.T) {
	r := New()
	r.Counter("a.b").Inc()
	r.Counter(`c{x="1"}`).Inc()
	r.Histogram("h.us", []int64{1, 2}).Observe(1)
	s := r.Snapshot()
	var b1, b2 bytes.Buffer
	if err := s.WriteProm(&b1); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteProm(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("non-deterministic exposition:\n%s\nvs\n%s", b1.String(), b2.String())
	}
}

func TestWritePromSanitizesAndEscapes(t *testing.T) {
	r := New()
	r.Counter(`weird.name-x{path="a\"b\\c"}`).Inc()
	var buf bytes.Buffer
	if err := r.Snapshot().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseProm(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("sanitized output failed to parse: %v\n%s", err, buf.String())
	}
	f := fams["weird_name_x_total"]
	if f == nil || len(f.Samples) != 1 {
		t.Fatalf("sanitized family missing:\n%s", buf.String())
	}
	if got := f.Samples[0].Labels["path"]; got != `a"b\c` {
		t.Fatalf("escaped label value round-tripped to %q", got)
	}
}

// malformedProm maps each rule ParseProm enforces to an exposition that
// breaks it.
var malformedProm = map[string]string{
	"undeclared sample":    "foo 1\n",
	"bad name":             "# TYPE 9bad counter\n9bad 1\n",
	"missing value":        "# TYPE foo counter\nfoo\n",
	"bad value":            "# TYPE foo counter\nfoo xyz\n",
	"unterminated labels":  "# TYPE foo counter\nfoo{a=\"1\" 2\n",
	"duplicate TYPE":       "# TYPE foo counter\n# TYPE foo gauge\n",
	"bucket without le":    "# TYPE h histogram\nh_bucket 1\nh_count 1\nh_sum 1\n",
	"missing +Inf":         "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
	"non-cumulative":       "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_count 3\nh_sum 1\n",
	"inf mismatches count": "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_count 4\nh_sum 1\n",
}

func TestParsePromRejectsMalformed(t *testing.T) {
	for name, in := range malformedProm {
		if _, err := ParseProm(strings.NewReader(in)); err == nil {
			t.Errorf("%s: parsed without error:\n%s", name, in)
		}
	}
}

// testdata/metrics.prom is a /metrics page served by `uninet serve` after
// one /v1/simulate request, cut to two of its stage-histogram series.
func TestParsePromAcceptsServedPage(t *testing.T) {
	page, err := os.ReadFile("testdata/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	fams, err := ParseProm(bytes.NewReader(page))
	if err != nil {
		t.Fatal(err)
	}
	if f := fams["service_stage_us"]; f == nil || f.Type != "histogram" {
		t.Fatalf("service_stage_us family missing or mistyped: %+v", f)
	}
}

// FuzzParseProm: `uninet trace` parses a peer's /metrics, so any bytes must
// come back as families or an error, never a panic. An accepted page
// holds only declared, well-named families.
func FuzzParseProm(f *testing.F) {
	for _, in := range malformedProm {
		f.Add([]byte(in))
	}
	f.Add([]byte(validProm))
	page, err := os.ReadFile("testdata/metrics.prom")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(page)
	r := New()
	r.Counter(`c{x="1"}`).Inc()
	r.Histogram("h_us", []int64{1, 10}).Observe(5)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteProm(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		fams, err := ParseProm(bytes.NewReader(data))
		if err != nil {
			return
		}
		for name, fam := range fams {
			if fam == nil || fam.Name != name || !validPromName(name) {
				t.Fatalf("accepted family %q as %+v", name, fam)
			}
		}
	})
}

const validProm = `# HELP h a histogram
# TYPE h histogram
h_bucket{le="1"} 1
h_bucket{le="+Inf"} 2
h_sum 3
h_count 2
# TYPE g gauge
g{node="n1"} 4
`

func TestParsePromAcceptsValid(t *testing.T) {
	fams, err := ParseProm(strings.NewReader(validProm))
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 2 {
		t.Fatalf("got %d families, want 2", len(fams))
	}
}

// TestQuantile: the linear-interpolation estimator against hand-computed
// values.
func TestQuantile(t *testing.T) {
	h := newHistogram([]int64{10, 20, 40})
	// 10 observations in (0,10], 10 in (10,20].
	for i := 0; i < 10; i++ {
		h.Observe(5)
		h.Observe(15)
	}
	cases := []struct {
		q    float64
		want float64
	}{
		{0.5, 10},  // rank 10 = exactly the top of bucket 1
		{0.25, 5},  // rank 5, halfway through bucket 1 (0..10)
		{0.75, 15}, // rank 15, halfway through bucket 2 (10..20)
		{1.0, 20},  // rank 20 = top of bucket 2
		{0.0, 1},   // rank clamps to 1 → 1/10 through bucket 1
		{-0.5, 1},  // q clamps to 0
		{1.5, 20},  // q clamps to 1
		{0.05, 1},  // rank 1 → 1/10 of first bucket
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileOverflowAndEmpty(t *testing.T) {
	h := newHistogram([]int64{10, 20})
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram Quantile = %v, want 0", got)
	}
	h.Observe(1000) // overflow bucket
	if got := h.Quantile(0.99); got != 20 {
		t.Fatalf("overflow Quantile = %v, want last bound 20", got)
	}
	var nilH *Histogram
	if nilH.Quantile(0.5) != 0 {
		t.Fatal("nil histogram Quantile non-zero")
	}
}

// TestRuntimeSampler: one Sample populates the health instruments.
func TestRuntimeSampler(t *testing.T) {
	r := New()
	s := NewRuntimeSampler(r)
	s.Sample()
	snap := r.Snapshot()
	if snap.Gauges["runtime.goroutines"] <= 0 {
		t.Fatalf("goroutines gauge %d", snap.Gauges["runtime.goroutines"])
	}
	if snap.Gauges["runtime.heap_alloc_bytes"] <= 0 || snap.Gauges["runtime.heap_sys_bytes"] <= 0 {
		t.Fatalf("heap gauges %d / %d",
			snap.Gauges["runtime.heap_alloc_bytes"], snap.Gauges["runtime.heap_sys_bytes"])
	}
	var nilS *RuntimeSampler
	nilS.Sample() // must not panic
}

func TestRuntimeSamplerRunStops(t *testing.T) {
	r := New()
	s := NewRuntimeSampler(r)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		s.Run(time.Hour, stop) // final sample fires on stop even with a long tick
		close(done)
	}()
	close(stop)
	<-done
	if r.Snapshot().Gauges["runtime.goroutines"] <= 0 {
		t.Fatal("Run exited without sampling")
	}
}
