package serve

import (
	"net/http"
	"strings"
	"testing"

	"hetsim/internal/experiments"
)

// TestFigureTopologyParam: ?topology= selects the preset, bad names 400
// with the available list, and requests differing only in topology are
// distinct jobs (no cross-topology result sharing).
func TestFigureTopologyParam(t *testing.T) {
	_, ts := testServer(t, Config{})

	code, body := get(t, ts.URL+"/v1/figures/fig2a?shrink=16&workloads=bfs&topology=hbm9000")
	if code != http.StatusBadRequest {
		t.Fatalf("unknown topology: status %d, want 400", code)
	}
	for _, name := range []string{"k40-ddr4", "gh200", "cxl-expansion"} {
		if !strings.Contains(string(body), name) {
			t.Errorf("400 body does not list preset %q: %s", name, body)
		}
	}

	// The k40-ddr4 preset is the default system: responses must be
	// byte-identical with and without the parameter.
	code, def := get(t, ts.URL+"/v1/figures/fig2a?shrink=16&workloads=bfs")
	if code != http.StatusOK {
		t.Fatalf("default figure: status %d: %s", code, def)
	}
	code, k40 := get(t, ts.URL+"/v1/figures/fig2a?shrink=16&workloads=bfs&topology=k40-ddr4")
	if code != http.StatusOK {
		t.Fatalf("k40-ddr4 figure: status %d: %s", code, k40)
	}
	if string(def) != string(k40) {
		t.Errorf("k40-ddr4 response diverged from default:\n got %s\nwant %s", k40, def)
	}
}

// TestFigureKeyTopology: the figure idempotency key must separate
// topologies, or a gh200 request could park on a k40 job.
func TestFigureKeyTopology(t *testing.T) {
	base := experiments.Options{Shrink: 16, Workloads: []string{"bfs"}}
	gh := base
	gh.Topology = "gh200"
	if figureKey("fig2a", base) == figureKey("fig2a", gh) {
		t.Error("figure keys collide across topologies")
	}
	k40 := base
	k40.Topology = "k40-ddr4"
	if figureKey("fig2a", base) == figureKey("fig2a", k40) {
		// Distinct submissions are fine (and expected): the underlying
		// simulations still share the result cache via canonical keys.
		t.Log("note: default and k40-ddr4 share a figure key")
	}
}
