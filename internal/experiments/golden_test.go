package experiments

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
)

// TestReportGolden pins `uninet report -seed 7 -parallel 1` byte for byte:
// a refactor of the simulators, routers or builders behind the experiments
// must leave every table unchanged. The config is the CLI's, whose
// -fault-seed defaults to 1 (RunAll leaves it 0). After an intended change
// to an experiment's output, `make report-golden` rewrites the file.
func TestReportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite")
	}
	golden := filepath.Join("testdata", "report_seed7.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteReport(context.Background(), &buf, Registry(), Config{Seed: 7, FaultSeed: 1}, 1); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()
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
