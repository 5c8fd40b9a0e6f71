package main

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hetsim"
	"hetsim/cmd/internal/cli"
	"hetsim/internal/serve"
)

// TestMain runs hmexp's main instead of the tests when HMEXP_ARGS is set,
// so a test can run the command in a child process of the test binary.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("HMEXP_ARGS"); ok {
		os.Args = append([]string{"hmexp"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadOptionsExit2: bad run options exit 2 with one line per problem
// before any simulation, and with -server before any request.
func TestBadOptionsExit2(t *testing.T) {
	var requests atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.Error(w, `{"error":"unexpected request"}`, http.StatusInternalServerError)
	}))
	defer ts.Close()
	for _, tc := range []struct {
		args string
		want []string // one stderr line each
	}{
		{"-workloads nosuch fig3", []string{`unknown workloads "nosuch"`}},
		{"-server " + ts.URL + " -workloads nosuch fig3", []string{`unknown workloads "nosuch"`}},
		{"-migrate alpha=0,policy=ewma figmig", []string{"EWMAAlpha 0"}},
		{"-shrink 32 -workloads bfs -migrate alpha=0 figmigtopo", []string{"figmigtopo runs both migration classifiers: migrate: EWMAAlpha 0"}},
		{"-server " + ts.URL + " -migrate alpha=0 fig3 figdyn", []string{"figdyn runs both migration classifiers"}},
		{"-shrink -5 -workers -3 fig2a", []string{"shrink must be >= 1", "workers must be >= 0"}},
		{"-server " + ts.URL + " -probe on -topology hbm9000 fig3", []string{"unknown topology", "-probe needs local simulation"}},
	} {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), "HMEXP_ARGS="+tc.args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("hmexp %s: %v, want exit status 2\n%s", tc.args, err, out)
			continue
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		if len(lines) != len(tc.want) {
			t.Errorf("hmexp %s printed %d lines, want %d:\n%s", tc.args, len(lines), len(tc.want), out)
			continue
		}
		for i, want := range tc.want {
			if !strings.Contains(lines[i], want) {
				t.Errorf("hmexp %s: line %q does not mention %q", tc.args, lines[i], want)
			}
		}
	}
	if n := requests.Load(); n != 0 {
		t.Errorf("rejected invocations sent %d requests to the daemon", n)
	}
}

func figureHandler(fails *atomic.Int64, failWith int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fails.Add(-1) >= 0 {
			http.Error(w, `{"error":"transient"}`, failWith)
			return
		}
		json.NewEncoder(w).Encode(serve.FigureResult{ID: "fig2a", Text: "ok"})
	})
}

func fetchFigure(ts *httptest.Server, client *http.Client, retries int) (serve.FigureResult, error) {
	var fr serve.FigureResult
	err := fetch(nil, client, retries, "fig2a", http.MethodGet, ts.URL+"/v1/figures/fig2a", nil, &fr)
	return fr, err
}

func TestFetchFigureRetriesTransientFailures(t *testing.T) {
	var fails atomic.Int64
	fails.Store(2) // two 500s, then success
	ts := httptest.NewServer(figureHandler(&fails, http.StatusInternalServerError))
	defer ts.Close()

	fr, err := fetchFigure(ts, &http.Client{Timeout: time.Second}, 2)
	if err != nil {
		t.Fatalf("fetch failed despite retries: %v", err)
	}
	if fr.ID != "fig2a" || fr.Text != "ok" {
		t.Errorf("got %+v", fr)
	}
}

func TestFetchFigureExhaustsRetries(t *testing.T) {
	var fails atomic.Int64
	fails.Store(100)
	ts := httptest.NewServer(figureHandler(&fails, http.StatusInternalServerError))
	defer ts.Close()

	if _, err := fetchFigure(ts, &http.Client{}, 1); err == nil {
		t.Fatal("want error after exhausting retries")
	}
	if got := 100 - fails.Load(); got != 2 {
		t.Errorf("server saw %d attempts, want 2 (1 + 1 retry)", got)
	}
}

func TestFetchFigureNoRetryOn4xx(t *testing.T) {
	var fails atomic.Int64
	fails.Store(100)
	ts := httptest.NewServer(figureHandler(&fails, http.StatusNotFound))
	defer ts.Close()

	if _, err := fetchFigure(ts, &http.Client{}, 3); err == nil {
		t.Fatal("want error on 404")
	}
	if got := 100 - fails.Load(); got != 1 {
		t.Errorf("server saw %d attempts, want 1 (4xx is not retryable)", got)
	}
}

// TestFetchTune: a tune request is a JSON POST through the same client
// call, retried past a 503 and decoded into the report.
func TestFetchTune(t *testing.T) {
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) == 1 {
			http.Error(w, `{"error":"draining"}`, http.StatusServiceUnavailable)
			return
		}
		var req serve.TuneRequest
		if r.Method != http.MethodPost || r.Header.Get("Content-Type") != "application/json" ||
			json.NewDecoder(r.Body).Decode(&req) != nil || req.Workload != "bfs" || req.Budget != 6 {
			http.Error(w, `{"error":"bad request"}`, http.StatusBadRequest)
			return
		}
		json.NewEncoder(w).Encode(heteromem.TuneReport{Problem: req.Problem, Evals: 6})
	}))
	defer ts.Close()

	body, err := json.Marshal(serve.TuneRequest{Problem: heteromem.TuneProblem{Workload: "bfs"}, Budget: 6})
	if err != nil {
		t.Fatal(err)
	}
	var rep heteromem.TuneReport
	if err := fetch(nil, &http.Client{}, 2, "tune bfs", http.MethodPost, ts.URL+"/v1/tune", body, &rep); err != nil {
		t.Fatalf("tune fetch: %v", err)
	}
	if rep.Problem.Workload != "bfs" || rep.Evals != 6 {
		t.Errorf("got %+v", rep)
	}
	if got := attempts.Load(); got != 2 {
		t.Errorf("server saw %d attempts, want 2 (503, then success)", got)
	}
}

// TestValidateFlags covers hmexp's own rules; the shared run options are
// covered by cmd/internal/cli's table test.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name string
		in   invocation
		want int
	}{
		{"defaults", invocation{budget: 16, strategy: "halving"}, 0},
		{"valid tune", invocation{tune: true, budget: 4, strategy: "grid", budgetSet: true, strategySet: true}, 0},
		{"valid cluster", invocation{fleet: "http://w1", probe: true, migrate: true}, 0},
		{"tune-budget without -tune", invocation{budget: 8, strategy: "halving", budgetSet: true}, 1},
		{"tune-strategy without -tune", invocation{budget: 16, strategy: "grid", strategySet: true}, 1},
		{"bad tune budget", invocation{tune: true, budget: 0, strategy: "halving", budgetSet: true}, 1},
		{"unknown tune strategy", invocation{tune: true, budget: 16, strategy: "anneal", strategySet: true}, 1},
		{"-server with -cluster", invocation{server: "http://d", fleet: "http://w1", budget: 16}, 1},
		{"-probe with -server", invocation{server: "http://d", probe: true, budget: 16}, 1},
		{"-probe with -tune", invocation{tune: true, probe: true, budget: 16}, 1},
		{"-migrate with -tune", invocation{tune: true, migrate: true, budget: 16, strategy: "halving"}, 1},
		{"everything wrong", invocation{tune: true, budget: -1, strategy: "anneal", budgetSet: true, strategySet: true,
			server: "http://d", fleet: "http://w1", probe: true, migrate: true}, 6},
	}
	for _, tc := range cases {
		if err := validateFlags(tc.in); len(cli.Errors(err)) != tc.want {
			t.Errorf("%s: got %v, want %d errors", tc.name, err, tc.want)
		}
	}
}
