package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestMetricsMatchBenchmarkJSON runs every workload at a tiny size, once
// untraced and once traced, and checks that each run passes its output
// checks and emits exactly the metrics BENCHMARK.json declares, with
// their units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		Workloads []decl `json:"workloads"`
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for w := range workloads {
		have = append(have, w)
	}
	slices.Sort(names)
	slices.Sort(have)
	if !slices.Equal(names, have) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, have)
	}

	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	for _, w := range names {
		for _, traced := range []bool{false, true} {
			o := opts{workload: w, seed: 7, seconds: 0.5, trace: traced, sf: 0.002, warmup: 0.2, setups: 1}
			res, err := execute(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d %v", w, traced, res.Correct, res.Attempted, res.Failed, res.problems)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %s", w, traced, d.Name, m, ok, d.Unit)
				}
			}
			if !traced {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, name, m.Value)
					}
				}
			}
		}
	}
}
