package serve

import (
	"context"
	"net/http"
	"net/url"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"hetsim/internal/experiments"
	"hetsim/internal/metrics"
	"hetsim/internal/migrate"
	"hetsim/internal/telemetry"
)

// figureQueries are the handler table's inputs and the fuzz seeds: the
// figure, its raw query, and the status the daemon must answer with.
var figureQueries = []struct {
	figure, query string
	status        int
}{
	{"fig3", "shrink=16&workloads=bfs", http.StatusOK},
	{"fig3", "", http.StatusOK},
	{"fig3", "shrink=1&workers=0&topology=&migrate=&workloads=", http.StatusOK},
	{"fig3", "workloads=bfs,stencil&topology=k40-ddr4&workers=2", http.StatusOK},
	{"fig3", "migrate=policy%3Dewma&topology=gh200", http.StatusOK},
	{"figmig", "migrate=off", http.StatusOK},
	{"figmig", "migrate=policy%3Dewma%2Calpha%3D0.25", http.StatusOK},
	{"figmig", "migrate=alpha%3D0", http.StatusOK}, // counter ignores alpha
	{"fig3", "shrink=%2B16&workers=0016", http.StatusOK},
	{"fig3", "shrink=%2B16&workers=0016&unknown=1", http.StatusBadRequest},
	{"fig3", "topolgy=gh200", http.StatusBadRequest},
	{"figmig", "migrate=on&migrate-policy=ewma", http.StatusBadRequest},
	{"fig3", "workloads=nosuch", http.StatusBadRequest},
	{"fig3", "workloads=bfs,,stencil", http.StatusBadRequest},
	{"figmig", "migrate=alpha%3D0%2Cpolicy%3Dewma", http.StatusBadRequest},
	{"figmigtopo", "shrink=32&workloads=bfs&migrate=alpha%3D0", http.StatusBadRequest}, // runs ewma too
	{"figmigtopo", "migrate=alpha%3D0%2Cpolicy%3Dcounter", http.StatusBadRequest},
	{"figdyn", "migrate=alpha%3D0", http.StatusBadRequest},
	{"figdyn", "migrate=alpha%3D0.5", http.StatusOK},
	{"figmig", "migrate=epoch%3D-1", http.StatusBadRequest},
	{"figmig", "migrate=frobnicate%3D1", http.StatusBadRequest},
	{"figmig", "migrate=policy%3Dfifo", http.StatusBadRequest},
	{"fig3", "shrink=0", http.StatusBadRequest},
	{"fig3", "shrink=-5", http.StatusBadRequest},
	{"fig3", "shrink=sixteen", http.StatusBadRequest},
	{"fig3", "shrink=99999999999999999999", http.StatusBadRequest},
	{"fig3", "workers=-1", http.StatusBadRequest},
	{"fig3", "workers=1.5", http.StatusBadRequest},
	{"fig3", "topology=hbm9000", http.StatusBadRequest},
	{"fig3", "topology=GH200", http.StatusBadRequest},
	{"fig3", "shrink=0&workers=-1&topology=vax&workloads=x", http.StatusBadRequest},
	{"fig3", "shrink=%zz;workloads=bfs", http.StatusOK}, // malformed pairs are dropped
	{"fig99", "shrink=16", http.StatusNotFound},
	{"fig99", "shrink=0", http.StatusNotFound},
}

// FuzzFigureQuery: a raw query either decodes to options that re-encode
// canonically — decoding the encoding gives the same options and the same
// figure key — or is rejected. No input may panic.
func FuzzFigureQuery(f *testing.F) {
	for _, tc := range figureQueries {
		f.Add(tc.query)
	}
	f.Add("migrate=" + url.QueryEscape(migrate.DefaultConfig().Spec()))
	base := experiments.Options{Shrink: 1}
	f.Fuzz(func(t *testing.T, raw string) {
		q, _ := url.ParseQuery(raw) // as Request.URL.Query: bad pairs dropped
		o, err := decodeFigureQuery(q, base)
		if err != nil {
			return
		}
		enc := EncodeFigureQuery(o)
		q2, err := url.ParseQuery(enc)
		if err != nil {
			t.Fatalf("%q decoded to %+v, whose encoding %q does not parse: %v", raw, o, enc, err)
		}
		o2, err := decodeFigureQuery(q2, base)
		if err != nil {
			t.Fatalf("%q decoded to %+v, whose encoding %q is rejected: %v", raw, o, enc, err)
		}
		if !reflect.DeepEqual(o, o2) {
			t.Fatalf("%q decoded to %+v; its encoding %q decodes to %+v", raw, o, enc, o2)
		}
		if figureKey("fig3", o) != figureKey("fig3", o2) {
			t.Fatalf("%q: figure key changed across a round trip through %q", raw, enc)
		}
	})
}

// TestFigureQueryStatuses: every figure request is answered 200, 400 or
// 404 — bad options are refused before a job is queued, never with a 5xx
// a client would retry.
func TestFigureQueryStatuses(t *testing.T) {
	s, ts := testServer(t, Config{})
	var renders atomic.Int64
	s.figure = func(_ context.Context, _ *telemetry.Span, id string, _ experiments.Options) (experiments.Figure, error) {
		renders.Add(1)
		return experiments.Figure{ID: id, Table: metrics.NewTable(id, "x")}, nil
	}
	for _, tc := range figureQueries {
		code, body := get(t, ts.URL+"/v1/figures/"+tc.figure+"?"+tc.query)
		if code != tc.status {
			t.Errorf("%s?%s: status %d, want %d: %s", tc.figure, tc.query, code, tc.status, body)
		}
	}
	_, body := get(t, ts.URL+"/v1/figures/figmig?migrate-policy=ewma&topolgy=gh200")
	if !strings.Contains(string(body), `unknown parameters \"migrate-policy\", \"topolgy\"`) {
		t.Errorf("unknown parameters refused without naming them: %s", body)
	}

	// "on" and the expanded default spec are one figure request.
	before := renders.Load()
	for _, spec := range []string{"on", migrate.DefaultConfig().Spec(), "default"} {
		if code, body := get(t, ts.URL+"/v1/figures/figmigtopo?migrate="+url.QueryEscape(spec)); code != http.StatusOK {
			t.Fatalf("migrate=%s: status %d: %s", spec, code, body)
		}
	}
	if got := renders.Load() - before; got != 1 {
		t.Errorf("migrate=on, its expanded spec and default rendered %d figures, want 1 shared job", got)
	}
}
