package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// benchmarkFile mirrors the fields of BENCHMARK.json the code must agree
// with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestBenchmarkFileMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the code has %d", names, len(workloads))
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the code %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i := range bf.EndToEnd {
		if i < len(endToEnd) && (bf.EndToEnd[i].Name != endToEnd[i].name || bf.EndToEnd[i].Unit != endToEnd[i].unit) {
			t.Errorf("end-to-end metric %d: file %s [%s], code %s [%s]", i,
				bf.EndToEnd[i].Name, bf.EndToEnd[i].Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if bf.EndToEnd[i].Name == "frames_per_s" && bf.EndToEnd[i].Bound != frameRateBound {
			t.Errorf("frames_per_s bound %g, stationarity check uses %g", bf.EndToEnd[i].Bound, frameRateBound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the code %d", len(bf.PerLayer), len(perLayer))
	}
	for i := range bf.PerLayer {
		if i < len(perLayer) && (bf.PerLayer[i].Name != perLayer[i].name || bf.PerLayer[i].Unit != perLayer[i].unit) {
			t.Errorf("per-layer metric %d: file %s [%s], code %s [%s]", i,
				bf.PerLayer[i].Name, bf.PerLayer[i].Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// the report: every metric present with its unit and every frame delivered
// exactly once.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			var out bytes.Buffer
			cfg := runConfig{seed: 3, seconds: 300 * time.Millisecond, trace: trace}
			if err := run(&out, name, cfg, t.TempDir()); err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var raw map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
				t.Fatalf("%s: last line is not JSON: %v", name, err)
			}
			if len(raw) != 4 {
				t.Errorf("%s: report keys %v, want correct/attempted/failed/metrics", name, raw)
			}
			var rep report
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
				t.Fatal(err)
			}
			if rep.Attempted < 1 || rep.Failed != 0 {
				t.Errorf("%s trace=%v: attempted %d failed %d", name, trace, rep.Attempted, rep.Failed)
			}
			if !rep.Correct {
				t.Logf("%s trace=%v: a check failed:\n%s", name, trace, out.String())
			}
			specs := endToEnd
			if trace {
				specs = perLayer
			}
			if len(rep.Metrics) != len(specs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(rep.Metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := rep.Metrics[s.name]
				if !ok || m.Unit != s.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, s.name, m, s.unit)
				}
			}
			if !trace {
				for _, s := range endToEnd {
					if rep.Metrics[s.name].Value <= 0 {
						t.Errorf("%s: end-to-end %s = %g, want > 0", name, s.name, rep.Metrics[s.name].Value)
					}
				}
				continue
			}
			var cpu float64
			for _, b := range foldBuckets() {
				cpu += rep.Metrics[b+".cpu_ns_per_frame"].Value
			}
			if total := rep.Metrics["process.cpu_ns_per_frame"].Value; cpu <= 0 || cpu > 1.5*total {
				t.Errorf("%s: folded CPU %g ns/frame against %g for the process", name, cpu, total)
			}
		}
	}
}
