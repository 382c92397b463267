package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// benchmarkDoc is the shape of BENCHMARK.json at the repository root.
type benchmarkDoc struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []map[string]any `json:"workloads"`
	EndToEnd   []map[string]any `json:"end_to_end"`
	PerLayer   []map[string]any `json:"per_layer"`
}

// wantDoc builds BENCHMARK.json from the harness's own tables.
func wantDoc() benchmarkDoc {
	doc := benchmarkDoc{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: 15,
	}
	for _, sp := range specs {
		doc.Workloads = append(doc.Workloads, map[string]any{"name": sp.name, "why": sp.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, map[string]any{"name": d.name, "unit": d.unit, "better": d.better, "bound": d.bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, map[string]any{"name": d.name, "unit": d.unit, "better": d.better})
	}
	return doc
}

// BENCHMARK.json and the tables in metrics.go / workloads.go must say
// the same thing. UPDATE_BENCHMARK_JSON=1 rewrites the file from them.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	const path = "../BENCHMARK.json"
	want := wantDoc()
	if os.Getenv("UPDATE_BENCHMARK_JSON") != "" {
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkDoc
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	// Round-trip want through JSON so numbers compare as float64.
	var norm benchmarkDoc
	raw, _ := json.Marshal(want)
	if err := json.Unmarshal(raw, &norm); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, norm) {
		t.Fatalf("BENCHMARK.json differs from the harness tables; rerun with UPDATE_BENCHMARK_JSON=1\n got: %+v\nwant: %+v", got, norm)
	}
	if len(got.Workloads) < 2 || len(got.Workloads) > 8 || len(got.EndToEnd) > 16 || len(got.PerLayer) > 128 {
		t.Fatalf("contract limits: %d workloads, %d end-to-end, %d per-layer", len(got.Workloads), len(got.EndToEnd), len(got.PerLayer))
	}
	seen := map[string]bool{}
	for _, group := range [][]map[string]any{got.Workloads, got.EndToEnd, got.PerLayer} {
		for _, m := range group {
			name := m["name"].(string)
			if seen[name] || len(name) > 64 {
				t.Errorf("name %q is repeated or too long", name)
			}
			seen[name] = true
		}
	}
	for _, w := range got.Workloads {
		if len(w["why"].(string)) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w["name"], len(w["why"].(string)))
		}
	}
}
