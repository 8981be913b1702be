package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestMetricTablesMatchBenchmarkJSON keeps the metric tables and the
// repository's BENCHMARK.json in step.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, table []metric, listed []entry) {
		if len(table) != len(listed) {
			t.Errorf("%s: %d metrics in the table, %d in BENCHMARK.json", kind, len(table), len(listed))
			return
		}
		for i, m := range table {
			if e := listed[i]; e != (entry{m.name, m.unit, m.better}) {
				t.Errorf("%s %d: table has %s %s %s, BENCHMARK.json %s %s %s", kind, i, m.name, m.unit, m.better, e.Name, e.Unit, e.Better)
			}
		}
	}
	check("end_to_end", endToEnd, doc.EndToEnd)
	check("per_layer", perLayer, doc.PerLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, perfbench has %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
	layers := map[string]bool{}
	for _, m := range perLayer {
		layers[m.name] = true
	}
	for name := range untracedLayers {
		if !layers[name] {
			t.Errorf("untracedLayers names %s, which is not a per-layer metric", name)
		}
	}
	for _, m := range perLayer {
		for _, w := range m.in {
			if workloads[w] == nil {
				t.Errorf("%s is measured by unknown workload %q", m.name, w)
			}
		}
	}
}
