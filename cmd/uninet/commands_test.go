package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"universalnet/internal/obs"
)

// The CLI tests drive every subcommand in-process with small parameters.
// Output goes to stdout and is asserted only where a test captures it (the
// report golden, topo's diameter line, the -json shapes); the underlying
// logic is covered by the package tests.

func TestCmdTopoAllKinds(t *testing.T) {
	kinds := [][]string{
		{"-kind", "mesh", "-n", "16"},
		{"-kind", "torus", "-n", "16"},
		{"-kind", "multitorus", "-n", "144", "-a", "4"},
		{"-kind", "butterfly", "-d", "3"},
		{"-kind", "wbutterfly", "-d", "3"},
		{"-kind", "ccc", "-d", "3"},
		{"-kind", "se", "-d", "3"},
		{"-kind", "debruijn", "-d", "3"},
		{"-kind", "hypercube", "-d", "3"},
		{"-kind", "regular", "-n", "16", "-deg", "4"},
		{"-kind", "g0", "-n", "144", "-a", "4"},
		{"-kind", "ring", "-n", "8"},
		{"-kind", "complete", "-n", "6"},
	}
	for _, args := range kinds {
		if err := cmdTopo(args); err != nil {
			t.Errorf("topo %v: %v", args, err)
		}
	}
	if err := cmdTopo([]string{"-kind", "nope"}); err == nil {
		t.Error("unknown kind accepted")
	}
}

// TestCmdTopoDiameterGirth pins the diameter and girth line `uninet topo`
// prints, including -1 for both on a disconnected forest.
func TestCmdTopoDiameterGirth(t *testing.T) {
	disc := filepath.Join(t.TempDir(), "disc.json")
	if err := os.WriteFile(disc, []byte(`{"n":4,"edges":[[0,1],[2,3]]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-kind", "torus", "-n", "64"}, "diameter=8 girth=4"},
		{[]string{"-kind", "hypercube", "-d", "4"}, "diameter=4 girth=4"},
		{[]string{"-kind", "ring", "-n", "9"}, "diameter=4 girth=9"},
		{[]string{"-load", disc}, "diameter=-1 girth=-1"},
	}
	for _, c := range cases {
		out := captureStdout(t, func() error { return cmdTopo(c.args) })
		if !strings.Contains(out, "\n"+c.want+"\n") {
			t.Errorf("topo %v: want line %q in\n%s", c.args, c.want, out)
		}
	}
}

func TestCmdRoute(t *testing.T) {
	if err := cmdRoute([]string{"-kind", "torus", "-n", "36", "-h", "2", "-trials", "2"}); err != nil {
		t.Error(err)
	}
	if err := cmdRoute([]string{"-kind", "torus", "-n", "36", "-h", "1", "-trials", "1", "-singleport"}); err != nil {
		t.Error(err)
	}
}

func TestCmdSimulate(t *testing.T) {
	for _, host := range []string{"butterfly", "torus", "expander", "ring"} {
		args := []string{"-host", host, "-hostdim", "3", "-hostsize", "16", "-n", "32", "-steps", "2"}
		if err := cmdSimulate(args); err != nil {
			t.Errorf("simulate %s: %v", host, err)
		}
	}
	if err := cmdSimulate([]string{"-host", "nope"}); err == nil {
		t.Error("unknown host accepted")
	}
}

func TestCmdBoundAndTradeoff(t *testing.T) {
	if err := cmdBound([]string{"-n", "1024", "-m", "256"}); err != nil {
		t.Error(err)
	}
	if err := cmdBound([]string{"-log2m", "1000000"}); err != nil {
		t.Error(err)
	}
	if err := cmdBound([]string{"-n", "1024", "-m", "256", "-toy"}); err != nil {
		t.Error(err)
	}
	if err := cmdTradeoff([]string{"-n", "4096", "-ms", "64,256", "-toy"}); err != nil {
		t.Error(err)
	}
	if err := cmdTradeoff([]string{"-ms", "64,abc"}); err == nil {
		t.Error("bad size list accepted")
	}
}

func TestCmdPebbleSaveLoad(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "p.json")
	if err := cmdPebble([]string{"-n", "12", "-steps", "2", "-save", file}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(file); err != nil {
		t.Fatal(err)
	}
	if err := cmdPebble([]string{"-load", file}); err != nil {
		t.Fatal(err)
	}
	if err := cmdPebble([]string{"-load", filepath.Join(dir, "missing.json")}); err == nil {
		t.Error("missing file accepted")
	}
}

func TestCmdFigure1(t *testing.T) {
	if err := cmdFigure1([]string{"-blockside", "4"}); err != nil {
		t.Error(err)
	}
}

func TestCmdCount(t *testing.T) {
	if err := cmdCount([]string{"-n", "6", "-c", "3"}); err != nil {
		t.Error(err)
	}
	if err := cmdCount([]string{"-n", "30", "-c", "3"}); err == nil {
		t.Error("oversized count accepted")
	}
}

func TestCmdExperimentSmall(t *testing.T) {
	// The cheap experiments; the heavy ones run in the bench harness.
	for _, id := range []string{"E2", "E3", "E6", "E8", "E11"} {
		if err := cmdExperiment([]string{"-only", id}); err != nil {
			t.Errorf("experiment %s: %v", id, err)
		}
	}
	if err := cmdExperiment([]string{"-only", "E99"}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// what it printed. fn must succeed. The pipe is drained while fn runs,
// because a pipe buffers only 64 KiB and a larger output would block fn.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	type drained struct {
		out []byte
		err error
	}
	done := make(chan drained, 1)
	go func() {
		out, err := io.ReadAll(r)
		done <- drained{out, err}
	}()
	os.Stdout = w
	runErr := fn()
	w.Close()
	os.Stdout = old
	d := <-done
	r.Close()
	if d.err != nil {
		t.Fatal(d.err)
	}
	if runErr != nil {
		t.Fatalf("command failed: %v\noutput:\n%s", runErr, d.out)
	}
	return string(d.out)
}

func TestCaptureStdoutDrainsLargeOutput(t *testing.T) {
	big := strings.Repeat("x", 1<<20)
	out := captureStdout(t, func() error {
		_, err := os.Stdout.WriteString(big)
		return err
	})
	if out != big {
		t.Errorf("captured %d bytes, want %d", len(out), len(big))
	}
}

func TestCmdExperimentOnlyJSON(t *testing.T) {
	out := captureStdout(t, func() error {
		return cmdExperiment([]string{"-only", "E2,E3", "-parallel", "4", "-json"})
	})
	dec := json.NewDecoder(strings.NewReader(out))
	var ids []string
	for dec.More() {
		var obj map[string]any
		if err := dec.Decode(&obj); err != nil {
			t.Fatalf("invalid JSON line: %v\noutput:\n%s", err, out)
		}
		id, _ := obj["id"].(string)
		ids = append(ids, id)
		if _, ok := obj["duration_ms"].(float64); !ok {
			t.Errorf("%s: missing duration_ms", id)
		}
		if _, ok := obj["seed"].(float64); !ok {
			t.Errorf("%s: missing seed", id)
		}
		if _, ok := obj["payload"]; !ok {
			t.Errorf("%s: missing payload", id)
		}
		if msg, ok := obj["error"]; ok {
			t.Errorf("%s: unexpected error %v", id, msg)
		}
	}
	if strings.Join(ids, ",") != "E2,E3" {
		t.Fatalf("ids = %v, want [E2 E3]", ids)
	}
}

// jsonLine is the decoded shape of one `-json` output line, keeping the
// metrics snapshot both raw (for byte-level comparison) and decoded.
type jsonLine struct {
	ID      string          `json:"id"`
	Seed    int64           `json:"seed"`
	Payload json.RawMessage `json:"payload"`
	Metrics json.RawMessage `json:"metrics"`
	Error   string          `json:"error"`
}

func decodeJSONLines(t *testing.T, out string) []jsonLine {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(out))
	var lines []jsonLine
	for dec.More() {
		var ln jsonLine
		if err := dec.Decode(&ln); err != nil {
			t.Fatalf("invalid JSON line: %v\noutput:\n%s", err, out)
		}
		if ln.Error != "" {
			t.Fatalf("%s: unexpected error %q", ln.ID, ln.Error)
		}
		lines = append(lines, ln)
	}
	return lines
}

// TestCmdExperimentJSONMetricsSnapshot golden-decodes one experiment's
// metrics object and checks the instruments the E8 body is wired to record.
func TestCmdExperimentJSONMetricsSnapshot(t *testing.T) {
	out := captureStdout(t, func() error {
		return cmdExperiment([]string{"-only", "E8", "-json"})
	})
	lines := decodeJSONLines(t, out)
	if len(lines) != 1 || lines[0].ID != "E8" {
		t.Fatalf("lines = %+v, want one E8 line", lines)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(lines[0].Metrics, &snap); err != nil {
		t.Fatalf("metrics did not decode as obs.Snapshot: %v\n%s", err, lines[0].Metrics)
	}
	if snap.Counters["routing.phases.greedy"] == 0 {
		t.Errorf("routing.phases.greedy = 0, want > 0; counters: %v", snap.Counters)
	}
	if snap.Counters["routing.delivered"] == 0 {
		t.Error("routing.delivered = 0, want > 0")
	}
	if _, ok := snap.Gauges["routing.max_queue"]; !ok {
		t.Errorf("missing routing.max_queue gauge; gauges: %v", snap.Gauges)
	}
	h, ok := snap.Histograms["routing.steps_per_phase"]
	if !ok {
		t.Fatalf("missing routing.steps_per_phase histogram; histograms present: %d", len(snap.Histograms))
	}
	if h.Count == 0 || h.Count != snap.Counters["routing.phases"] {
		t.Errorf("steps_per_phase count = %d, want routing.phases = %d",
			h.Count, snap.Counters["routing.phases"])
	}
}

// TestCmdExperimentJSONMetricsDeterministic is the acceptance criterion: for
// a fixed seed the per-experiment metrics snapshot in `-json` output is
// byte-identical across worker counts (serial, 4 workers, GOMAXPROCS).
func TestCmdExperimentJSONMetricsDeterministic(t *testing.T) {
	run := func(parallel string) map[string]string {
		out := captureStdout(t, func() error {
			return cmdExperiment([]string{"-only", "E2,E3,E8,E11", "-parallel", parallel, "-json"})
		})
		metrics := make(map[string]string)
		for _, ln := range decodeJSONLines(t, out) {
			metrics[ln.ID] = string(ln.Metrics)
		}
		return metrics
	}
	base := run("1")
	for _, parallel := range []string{"4", "0"} {
		got := run(parallel)
		for id, want := range base {
			if got[id] != want {
				t.Errorf("-parallel %s: %s metrics differ from -parallel 1\n got: %s\nwant: %s",
					parallel, id, got[id], want)
			}
		}
	}
}

func TestCmdExperimentList(t *testing.T) {
	out := captureStdout(t, func() error { return cmdExperiment([]string{"-list"}) })
	for _, want := range []string{"E1", "E22", "Thm 2.1"} {
		if !strings.Contains(out, want) {
			t.Errorf("list output missing %q", want)
		}
	}
}

func TestCmdAnalyze(t *testing.T) {
	if err := cmdAnalyze([]string{"-blockside", "4", "-hostdim", "3", "-extra", "4"}); err != nil {
		t.Error(err)
	}
}

func TestCmdGapAndReportSmoke(t *testing.T) {
	if err := cmdGap([]string{"-s0", "2", "-eps", "0.5"}); err != nil {
		t.Error(err)
	}
	if err := cmdGap([]string{"-s0", "0.2"}); err == nil {
		t.Error("s0 < 1 accepted")
	}
}

func TestCmdReportSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite")
	}
	if err := cmdReport([]string{"-seed", "2"}); err != nil {
		t.Error(err)
	}
}

// reportOutput runs `uninet report -seed seed -parallel 1` and returns its
// stdout.
func reportOutput(t *testing.T, seed string) string {
	t.Helper()
	return captureStdout(t, func() error {
		return cmdReport([]string{"-seed", seed, "-parallel", "1"})
	})
}

// TestReportGolden pins `uninet report -seed 7 -parallel 1` byte for byte:
// a refactor of the simulators, routers or builders behind the experiments
// must leave every table unchanged. After an intended change to an
// experiment's output, `make report-golden` rewrites the file.
func TestReportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite")
	}
	golden := filepath.Join("testdata", "report_seed7.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	got := []byte(reportOutput(t, "7"))
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("report differs from %s at line %d:\n got: %s\nwant: %s", golden, i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("report has %d lines, %s has %d", len(gotLines), golden, len(wantLines))
}

func TestRunAllSucceeds(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite")
	}
	out := reportOutput(t, "1")
	for _, marker := range []string{"E1 ", "E2 ", "E3 ", "E6 ", "E10", "E17", "E19"} {
		if !strings.Contains(out, marker) {
			t.Errorf("report missing %s section", marker)
		}
	}
}

func TestRunAllDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite twice")
	}
	if reportOutput(t, "5") != reportOutput(t, "5") {
		t.Error("report output not deterministic for a fixed seed")
	}
}

func TestCmdTopoSaveLoad(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "g.json")
	if err := cmdTopo([]string{"-kind", "torus", "-n", "16", "-save", file}); err != nil {
		t.Fatal(err)
	}
	if err := cmdTopo([]string{"-load", file}); err != nil {
		t.Fatal(err)
	}
	if err := cmdTopo([]string{"-load", filepath.Join(dir, "missing.json")}); err == nil {
		t.Error("missing file accepted")
	}
}
