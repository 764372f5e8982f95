package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"github.com/haten2/haten2/internal/gen"
	"github.com/haten2/haten2/internal/mrproc"
)

func TestMain(m *testing.M) {
	mrproc.MaybeWorker() // the traced proc leg re-execs the test binary as its workers
	os.Exit(m.Run())
}

// benchmarkFile is the part of BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }  `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// tiny shrinks a workload to a size that runs in well under a second
// while keeping its shape: proc leg, query mix, serving emphasis.
func tiny(w workload) workload {
	w.kb = gen.KBConfig{Theme: "t", ConceptNames: names("c", 3), EntitiesPerConcept: 6, TriplesPerConcept: 150, NoiseTriples: 10}
	w.rank, w.tucker = 3, [3]int{2, 2, 2}
	w.log4 = gen.IntrusionConfig{Sources: 20, Targets: 6, Ports: 8, Background: 300, ScanSources: 2, ScanTargets: 6, ScanPorts: 6}
	w.hours, w.rank4 = 6, 2
	w.rate = 400
	return w
}

// runTiny runs a tiny workload and returns the parsed last output line.
func runTiny(t *testing.T, w workload, trace bool) result {
	t.Helper()
	cfg := runConfig{seed: 3, seconds: 0.4, trace: trace, out: t.TempDir()}
	res, prov, err := runWorkload(w, cfg)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	var out bytes.Buffer
	if err := printResult(&out, prov, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var got result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatalf("%s: last line is not a result: %v", w.name, err)
	}
	var p map[string]provenance
	if err := json.Unmarshal([]byte(lines[0]), &p); err != nil || p["provenance"].Sizes == nil || p["provenance"].NumCPU == 0 {
		t.Fatalf("%s: provenance line %q lacks host or sizes (%v)", w.name, lines[0], err)
	}
	return got
}

// TestBenchmarkFileMatchesCode pins BENCHMARK.json to the workloads and
// metrics the program defines.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, file []struct{ Name, Unit string }, code []spec) {
		if len(file) != len(code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(file), len(code))
			return
		}
		for i, m := range file {
			if m.Name != code[i].name || m.Unit != code[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the code %s [%s]", kind, i, m.Name, m.Unit, code[i].name, code[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// TestEveryMetricEmitted runs every workload at tiny size, untraced and
// traced, and checks that each run is correct and emits exactly the
// metrics BENCHMARK.json names, with their units.
func TestEveryMetricEmitted(t *testing.T) {
	b := readBenchmarkFile(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			got := runTiny(t, tiny(w), trace)
			want := b.EndToEnd
			if trace {
				want = b.PerLayer
			}
			if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, got.Correct, got.Attempted, got.Failed)
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(got.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := got.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, trace, m.Name, v, m.Unit)
				}
			}
			if trace {
				calls := got.Metrics["backend.ship_part_calls"].Value
				if w.procLeg != (calls > 0) {
					t.Errorf("%s: backend.ship_part_calls = %v", w.name, calls)
				}
			}
		}
	}
}

// TestInjectedFailureCounts checks that a query the server rejects is
// counted as attempted and failed, not dropped, and that it does not
// make the run's outputs incorrect.
func TestInjectedFailureCounts(t *testing.T) {
	w, _ := lookup("serve-uniform")
	w = tiny(w)
	clean := runTiny(t, w, false)
	w.injectFail = 50
	got := runTiny(t, w, false)
	if got.Failed < 1 || !got.Correct {
		t.Fatalf("injected failures: correct=%v attempted=%d failed=%d", got.Correct, got.Attempted, got.Failed)
	}
	if clean.Failed != 0 {
		t.Fatalf("clean run failed %d queries", clean.Failed)
	}
	if got.Attempted < got.Failed {
		t.Fatalf("attempted %d < failed %d", got.Attempted, got.Failed)
	}
}
