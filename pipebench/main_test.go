package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesRegistry holds BENCHMARK.json's metric lists to
// what the program reports: end_to_end to endToEnd (less the metrics kept
// out of the JSON object), per_layer to layers.json, with the same units.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better string }
	var doc struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var want []entry
	for _, m := range endToEnd {
		if !jsonExcluded[m.name] {
			want = append(want, entry{Name: m.name, Unit: m.unit})
		}
	}
	if len(doc.EndToEnd) != len(want) {
		t.Fatalf("BENCHMARK.json has %d end_to_end metrics, the program reports %d", len(doc.EndToEnd), len(want))
	}
	for i, m := range doc.EndToEnd {
		if m.Name != want[i].Name || m.Unit != want[i].Unit {
			t.Errorf("end_to_end[%d] = %s in %s, the program reports %s in %s", i, m.Name, m.Unit, want[i].Name, want[i].Unit)
		}
	}
	if len(doc.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json has %d per_layer metrics, layers.json %d", len(doc.PerLayer), len(layers))
	}
	for i, m := range doc.PerLayer {
		l := layers[i]
		if m.Name != l.Name || m.Unit != l.Unit || m.Better != l.Better {
			t.Errorf("per_layer[%d] = %+v, layers.json has %s %s %s", i, m, l.Name, l.Unit, l.Better)
		}
	}
}

func TestLayersNameWorkloads(t *testing.T) {
	names := map[string]bool{}
	for _, w := range workloads {
		names[w.name] = true
	}
	for _, l := range layers {
		for _, w := range append(append([]string(nil), l.Heavy...), l.Light...) {
			if !names[w] {
				t.Errorf("%s names unknown workload %q", l.Name, w)
			}
		}
		if l.Moves == "" || l.How == "" {
			t.Errorf("%s lacks moves or how", l.Name)
		}
	}
}

func TestCheckAnswer(t *testing.T) {
	want := []byte(`,"vertex":7,"partition":3,"replicas":2}` + "\n")
	for _, c := range []struct {
		body string
		ok   bool
	}{
		{`{"epoch":2,"vertex":7,"partition":3,"replicas":2}` + "\n", true},
		{`{"epoch":5,"vertex":7,"partition":3,"replicas":2}` + "\n", false},
		{`{"epoch":2,"vertex":7,"partition":4,"replicas":2}` + "\n", false},
		{`{"vertex":7,"partition":3,"replicas":2}` + "\n", false},
	} {
		if err := checkAnswer([]byte(c.body), want, 4); (err == nil) != c.ok {
			t.Errorf("checkAnswer(%q) = %v, want ok=%v", c.body, err, c.ok)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max = %v, want 4", got)
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}
