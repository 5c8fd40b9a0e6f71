package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"hetsim/internal/telemetry"
)

type benchmarkJSON struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func quickParams(t *testing.T) params {
	return params{seed: defaultSeed, quick: true, traceDir: t.TempDir()}
}

// run runs one workload at -quick scale for one pass; the run must pass
// every output check, golden.json's digest included.
func run(t *testing.T, name string, p params) *report {
	t.Helper()
	rep, err := runWorkload(name, p)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !rep.Correct {
		t.Errorf("%s: incorrect: %d of %d operations failed, checks: %q", name, rep.Failed, rep.Attempted, rep.problems)
	}
	return rep
}

// sameMetrics fails unless the report holds exactly the listed metrics
// with their units.
func sameMetrics(t *testing.T, name string, rep *report, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(rep.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json lists %d", name, len(rep.Metrics), len(want))
	}
	for _, w := range want {
		if m, ok := rep.Metrics[w.Name]; !ok || m.Unit != w.Unit {
			t.Errorf("%s: metric %s = %+v, BENCHMARK.json gives unit %q", name, w.Name, m, w.Unit)
		}
	}
}

// TestWorkloadsQuick runs every workload twice: both runs report exactly
// BENCHMARK.json's end-to-end metrics and produce the same digest.
func TestWorkloadsQuick(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, hetbench runs %d", len(bj.Workloads), len(workloadNames))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("BENCHMARK.json workload %d is %q, hetbench's is %q", i, w.Name, workloadNames[i])
		}
	}
	for _, name := range workloadNames {
		a := run(t, name, quickParams(t))
		b := run(t, name, quickParams(t))
		sameMetrics(t, name, a, bj.EndToEnd)
		if a.digest == "" || a.digest != b.digest {
			t.Errorf("%s: digests %q and %q differ", name, a.digest, b.digest)
		}
	}
}

// TestTraceQuick checks a traced run: exactly BENCHMARK.json's per-layer
// metrics, and a valid Chrome trace written for the workload.
func TestTraceQuick(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	p := quickParams(t)
	p.trace = true
	rep := run(t, "serve-cluster", p)
	sameMetrics(t, "serve-cluster", rep, bj.PerLayer)
	data, err := os.ReadFile(filepath.Join(p.traceDir, "serve-cluster.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := telemetry.ValidateChromeTrace(data); err != nil || n == 0 {
		t.Errorf("chrome trace: %d spans, %v", n, err)
	}
}

// TestMigrateCXLLanes checks that migrate-cxl's output does not depend on
// the event lanes its runs request.
func TestMigrateCXLLanes(t *testing.T) {
	var digests []string
	for _, lanes := range []int{1, 2} {
		p := quickParams(t)
		p.lanes = lanes
		digests = append(digests, run(t, "migrate-cxl", p).digest)
	}
	if digests[0] != digests[1] {
		t.Errorf("migrate-cxl digest at lanes 1 %s, at lanes 2 %s", digests[0], digests[1])
	}
}
