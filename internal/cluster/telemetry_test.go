package cluster

import (
	"net/http/httptest"
	"testing"

	"hetsim/internal/experiments"
	"hetsim/internal/metrics"
	"hetsim/internal/serve"
	"hetsim/internal/telemetry"
)

// TestTracePropagation is the end-to-end telemetry scenario: a tracing
// client dispatches a run through the coordinator to a real hmserved
// worker, and the client's recorder ends up holding one timeline — the
// client-side dispatch spans AND the worker-side job spans, all under the
// client's single trace ID, with the worker identified as a distinct
// process.
func TestTracePropagation(t *testing.T) {
	w := testWorker(t, nil)
	c := newCoordinator(t, testConfig(w.URL))

	rec := telemetry.NewRecorder()
	rec.SetEnabled(true)
	rec.SetProc("test-client")
	tr := rec.Trace("")
	root := tr.Start(nil, "client")

	rc := experiments.RunConfig{Workload: "bfs", Shrink: 16}
	key, ok := experiments.ConfigKey(rc)
	if !ok {
		t.Fatal("config not cacheable")
	}
	res, ok := c.Run(root, key, rc)
	if !ok {
		t.Fatalf("dispatch failed (stats %+v)", c.Stats())
	}
	if res.Perf <= 0 {
		t.Fatalf("bad result: %+v", res)
	}
	root.End()

	recs := rec.Records()
	byName := map[string]int{}
	procs := map[string]bool{}
	for _, r := range recs {
		if r.TraceID != tr.ID() {
			t.Fatalf("span %q carries trace %q, want the client's %q", r.Name, r.TraceID, tr.ID())
		}
		byName[r.Name]++
		procs[r.Proc] = true
	}
	if byName["dispatch"] == 0 {
		t.Error("no client-side dispatch span recorded")
	}
	// The worker ships its spans back in the response: the job lifecycle
	// and the simulation run itself must be on the client's timeline.
	for _, want := range []string{"rpc.cluster_run", "job", "queue.wait", "run"} {
		if byName[want] == 0 {
			t.Errorf("no worker-side %q span on the client timeline (got %v)", want, byName)
		}
	}
	if len(procs) < 2 {
		t.Errorf("timeline names %d process(es) %v, want client + worker", len(procs), procs)
	}
}

// TestUntracedRunShipsNoSpans: without a live client span there is no
// trace header, and the worker's response must not grow a span payload —
// untraced responses stay exactly as before telemetry existed.
func TestUntracedRunShipsNoSpans(t *testing.T) {
	w := testWorker(t, nil)
	c := newCoordinator(t, testConfig(w.URL))

	rc := experiments.RunConfig{Workload: "bfs", Shrink: 16}
	key, _ := experiments.ConfigKey(rc)
	if _, ok := c.Run(nil, key, rc); !ok {
		t.Fatalf("dispatch failed (stats %+v)", c.Stats())
	}
}

// TestCoordinatorDaemonMetricsParse: a coordinator daemon (hmserved
// -cluster) exports the coordinator's counters on its own /metrics, which
// parses as Prometheus text and carries the per-worker series.
func TestCoordinatorDaemonMetricsParse(t *testing.T) {
	w := testWorker(t, nil)
	c := newCoordinator(t, testConfig(w.URL))

	rc := experiments.RunConfig{Workload: "bfs", Shrink: 16}
	key, _ := experiments.ConfigKey(rc)
	if _, ok := c.Run(nil, key, rc); !ok {
		t.Fatal("dispatch failed")
	}

	srv, err := serve.New(serve.Config{Remote: c.Run, ExtraMetrics: c.MetricsMap, Logger: discard()})
	if err != nil {
		t.Fatal(err)
	}
	ms := httptest.NewServer(srv.Handler())
	defer func() {
		ms.Close()
		srv.Close()
	}()
	resp, err := ms.Client().Get(ms.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	samples, err := metrics.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("/metrics output is not valid Prometheus text: %v", err)
	}
	byName := map[string]float64{}
	perWorker := 0
	for _, s := range samples {
		if s.Labels["worker"] != "" {
			perWorker++
		}
		if len(s.Labels) == 0 {
			byName[s.Name] = s.Value
		}
	}
	if byName["hmserved_cluster_remote_total"] != 1 {
		t.Errorf("hmserved_cluster_remote_total = %v, want 1", byName["hmserved_cluster_remote_total"])
	}
	if perWorker == 0 {
		t.Error("no per-worker labeled series on the coordinator daemon's /metrics")
	}
}
