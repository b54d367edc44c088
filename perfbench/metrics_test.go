package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestMetricListsMatchBenchmarkJSON keeps the metric lists this program
// prints equal to the ones BENCHMARK.json declares.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var bf struct {
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		list string
		file []def
		code []metricDef
	}{{"end_to_end", bf.EndToEnd, endToEnd}, {"per_layer", bf.PerLayer, perLayer}} {
		if len(c.file) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", c.list, len(c.file), len(c.code))
			continue
		}
		for i, d := range c.code {
			if c.file[i].Name != d.name || c.file[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", c.list, i, c.file[i].Name, c.file[i].Unit, d.name, d.unit)
			}
		}
	}
}
