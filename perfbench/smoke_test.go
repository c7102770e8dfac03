package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchSpec is the part of BENCHMARK.json the smoke test checks against.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func tinyRun(t *testing.T, workload string, seed int64, traced bool) *result {
	t.Helper()
	res, err := run(options{workload: workload, seed: seed, seconds: 0.2, trace: traced, tiny: true, workDir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s (trace %v): %v", workload, traced, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s (trace %v): correct %v, %d of %d failed", workload, traced, res.Correct, res.Failed, res.Attempted)
	}
	return res
}

// TestSmoke runs every workload of BENCHMARK.json once at tiny size,
// untraced and traced, and checks that each reports exactly the metrics
// BENCHMARK.json names, with their units, and no wrong answers.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, perfbench runs %d", len(spec.Workloads), len(workloads))
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Errorf("BENCHMARK.json names %d per-layer metrics, perfbench reports %d", len(spec.PerLayer), len(layerMetrics))
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			res := tinyRun(t, w.Name, 1, traced)
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (trace %v): %d metrics, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s (trace %v): metric %s missing", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s (trace %v): metric %s in %q, want %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
			if traced && res.Metrics["check.wrong_answers"].Value != 0 {
				t.Errorf("%s: %v wrong answers", w.Name, res.Metrics["check.wrong_answers"].Value)
			}
		}
	}
}

// TestCountsRepeat checks that a fixed seed reproduces every count of the
// traced run exactly, and that another seed also runs clean.
func TestCountsRepeat(t *testing.T) {
	for name := range workloads {
		a := tinyRun(t, name, 1, true)
		b := tinyRun(t, name, 1, true)
		for m, v := range a.Metrics {
			if (v.Unit == "count" || v.Unit == "MiB") && b.Metrics[m] != v {
				t.Errorf("%s: %s = %v, then %v", name, m, v.Value, b.Metrics[m].Value)
			}
		}
		tinyRun(t, name, 2, true)
	}
}
