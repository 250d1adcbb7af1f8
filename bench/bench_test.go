package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"
)

func tinyConfig(trace bool) config {
	return config{seed: 1, seconds: 200 * time.Millisecond, trace: trace, setups: 1, tiny: true}
}

// Every workload runs twice at test size, untraced then traced: the digests
// must agree (tracing changes no behaviour and the inputs come from the
// seed alone), no operation may fail, every oracle must pass, and the
// layers must account for the operations' time.
func TestWorkloadsRepeatAndPassTheirOracles(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var digests [2]string
			for k, traced := range []bool{false, true} {
				r, err := runWorkload(w, tinyConfig(traced))
				if err != nil {
					t.Fatal(err)
				}
				res := r.result(traced)
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("traced=%v: correct=%v failed=%d attempted=%d errors=%v",
						traced, res.Correct, res.Failed, res.Attempted, r.errs)
				}
				if r.digest == "" {
					t.Fatalf("traced=%v: no digest", traced)
				}
				digests[k] = r.digest
				if traced {
					if cov := res.Metrics["trace.coverage_pct"].Value; cov < 95 {
						t.Errorf("layers cover %.1f%% of operation time, want at least 95%%", cov)
					}
				}
			}
			if digests[0] != digests[1] {
				t.Errorf("digests differ between runs: %s vs %s", digests[0], digests[1])
			}
		})
	}
}

// benchmarkFile is the part of BENCHMARK.json the catalogue must match.
type benchmarkFile struct {
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

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	var e2e, layer []metric
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metric{m.Name, m.Unit})
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, metric{m.Name, m.Unit})
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program reports %v", e2e, endToEnd)
	}
	if !slices.Equal(layer, perLayer()) {
		t.Errorf("BENCHMARK.json per_layer differs from the program's:\n%v\n%v", layer, perLayer())
	}
}
