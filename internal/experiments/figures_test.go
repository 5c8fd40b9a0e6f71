package experiments

import (
	"strings"
	"testing"

	"hetsim/internal/memsys"
	"hetsim/internal/obs"
)

func memsysTable1() memsys.Config { return memsys.Table1Config() }

// quick runs each figure on a small workload subset at a large shrink so
// the whole suite stays fast; the shapes are still assertable.
func quickOpts(wls ...string) Options {
	return Options{Workloads: wls, Shrink: 8}
}

func TestTable1Figure(t *testing.T) {
	fig, err := Table1(Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := fig.Table.String()
	for _, want := range []string{"15 SMs", "200GB/sec", "80GB/sec", "RCD=RP=12,RC=40,CL=WR=12", "128 Entries"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestFig1Ratios(t *testing.T) {
	fig, err := Fig1(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r := fig.Headline["desktop_ratio"]; r < 2.4 || r > 2.6 {
		t.Fatalf("desktop BW ratio = %g, want 2.5", r)
	}
	if r := fig.Headline["hpc_ratio"]; r < 8 {
		t.Fatalf("HPC BW ratio = %g, want > 8", r)
	}
	if fig.Table.Rows() != 3 {
		t.Fatalf("Fig1 rows = %d, want 3", fig.Table.Rows())
	}
}

func TestFig2aShapes(t *testing.T) {
	fig, err := Fig2a(quickOpts("hotspot", "comd"))
	if err != nil {
		t.Fatal(err)
	}
	if g := fig.Headline["hotspot_2x"]; g < 1.3 {
		t.Fatalf("hotspot gains only %.2fx from 2x bandwidth, want > 1.3", g)
	}
	if g := fig.Headline["comd_2x"]; g > 1.15 {
		t.Fatalf("comd gains %.2fx from 2x bandwidth, want ~1.0 (insensitive)", g)
	}
}

func TestFig2bShapes(t *testing.T) {
	fig, err := Fig2b(quickOpts("sgemm", "hotspot"))
	if err != nil {
		t.Fatal(err)
	}
	if s := fig.Headline["sgemm_400"]; s > 0.6 {
		t.Fatalf("sgemm at +400 cycles keeps %.2f of perf, want < 0.6 (latency-sensitive)", s)
	}
	if s := fig.Headline["hotspot_400"]; s < 0.9 {
		t.Fatalf("hotspot at +400 cycles keeps %.2f, want > 0.9 (latency-tolerant)", s)
	}
}

func TestFig3Shapes(t *testing.T) {
	fig, err := Fig3(quickOpts("stencil", "sgemm"))
	if err != nil {
		t.Fatal(err)
	}
	if g := fig.Headline["stencil_bw_vs_local"]; g < 1.1 {
		t.Fatalf("stencil BW-AWARE vs LOCAL = %.2f, want > 1.1", g)
	}
	if g := fig.Headline["sgemm_bw_vs_local"]; g > 1.0 {
		t.Fatalf("sgemm BW-AWARE vs LOCAL = %.2f, want < 1.0", g)
	}
	if fig.Table.Rows() != 2 {
		t.Fatalf("rows = %d, want 2", fig.Table.Rows())
	}
}

func TestFig4Shapes(t *testing.T) {
	fig, err := Fig4(quickOpts("lbm"))
	if err != nil {
		t.Fatal(err)
	}
	if g := fig.Headline["geomean_at_70pct"]; g < 0.75 {
		t.Fatalf("70%% capacity keeps only %.2f of peak, want near-peak", g)
	}
	if g := fig.Headline["geomean_at_10pct"]; g > 0.85 {
		t.Fatalf("10%% capacity keeps %.2f, want visible degradation", g)
	}
}

func TestFig5Shapes(t *testing.T) {
	fig, err := Fig5(quickOpts("stencil"))
	if err != nil {
		t.Fatal(err)
	}
	// At tiny CO bandwidth, INTERLEAVE collapses and BW-AWARE ~= LOCAL.
	if v := fig.Headline["interleave_at_5"]; v > 0.5 {
		t.Fatalf("INTERLEAVE at 5 GB/s CO = %.2f of LOCAL, want collapse", v)
	}
	if v := fig.Headline["bwaware_at_5"]; v < 0.9 {
		t.Fatalf("BW-AWARE at 5 GB/s CO = %.2f of LOCAL, want ~1.0", v)
	}
	// At symmetry (200/200), both spreading policies beat LOCAL clearly.
	if v := fig.Headline["bwaware_at_200"]; v < 1.2 {
		t.Fatalf("BW-AWARE at 200 GB/s CO = %.2f of LOCAL, want > 1.2", v)
	}
	if v := fig.Headline["interleave_at_200"]; v < 1.2 {
		t.Fatalf("INTERLEAVE at symmetric bandwidth = %.2f of LOCAL, want > 1.2", v)
	}
}

func TestFig6Shapes(t *testing.T) {
	fig, err := Fig6(quickOpts("xsbench", "hotspot"))
	if err != nil {
		t.Fatal(err)
	}
	if v := fig.Headline["xsbench_hot10"]; v < 0.5 {
		t.Fatalf("xsbench hottest-10%% share = %.2f, want > 0.5 (skewed)", v)
	}
	// Shrunk runs touch only part of hotspot's footprint, which inflates
	// its absolute hottest-10%% share, so assert the ordering instead of
	// an absolute bound (full-scale values are recorded in
	// EXPERIMENTS.md).
	if fig.Headline["xsbench_hot10"] <= fig.Headline["hotspot_hot10"] {
		t.Fatal("xsbench hottest-10% share not above hotspot's")
	}
	if fig.Headline["xsbench_skew"] <= fig.Headline["hotspot_skew"] {
		t.Fatal("xsbench skew not above hotspot skew")
	}
}

func TestFig7Shapes(t *testing.T) {
	fig, err := Fig7(Options{Shrink: 8})
	if err != nil {
		t.Fatal(err)
	}
	// bfs: few hot structures carry most traffic in a small footprint.
	if a := fig.Headline["bfs_top3_access"]; a < 0.6 {
		t.Fatalf("bfs top-3 structures carry %.2f of accesses, want > 0.6", a)
	}
	if f := fig.Headline["bfs_top3_footprint"]; f > 0.4 {
		t.Fatalf("bfs top-3 structures occupy %.2f of footprint, want < 0.4", f)
	}
	out := fig.Table.String()
	for _, s := range []string{"d_graph_visited", "suffix_tree", "input_itemsets"} {
		if !strings.Contains(out, s) {
			t.Errorf("Fig7 missing structure %q", s)
		}
	}
}

func TestFig8Shapes(t *testing.T) {
	fig, err := Fig8(quickOpts("bfs", "needle"))
	if err != nil {
		t.Fatal(err)
	}
	if v := fig.Headline["oracle10_vs_bw10"]; v < 1.1 {
		t.Fatalf("oracle at 10%% beats BW-AWARE by only %.2fx, want > 1.1", v)
	}
	if v := fig.Headline["oracle10_vs_unconstrained"]; v < 0.3 || v > 1.0 {
		t.Fatalf("oracle@10%% reaches %.2f of unconstrained, want a fraction", v)
	}
}

func TestFig10Shapes(t *testing.T) {
	fig, err := Fig10(quickOpts("bfs", "xsbench"))
	if err != nil {
		t.Fatal(err)
	}
	if v := fig.Headline["annotated_vs_interleave"]; v < 1.0 {
		t.Fatalf("annotated vs INTERLEAVE = %.2f, want > 1.0", v)
	}
	if v := fig.Headline["annotated_vs_bwaware"]; v < 0.97 {
		t.Fatalf("annotated vs BW-AWARE = %.2f, want >= ~1.0", v)
	}
	if v := fig.Headline["annotated_vs_oracle"]; v < 0.6 || v > 1.05 {
		t.Fatalf("annotated reaches %.2f of oracle, want a high fraction", v)
	}
}

func TestFig11Shapes(t *testing.T) {
	fig, err := Fig11(Options{Workloads: []string{"xsbench"}, Shrink: 8})
	if err != nil {
		t.Fatal(err)
	}
	if v := fig.Headline["cross_vs_oracle"]; v < 0.5 {
		t.Fatalf("cross-dataset annotated = %.2f of oracle, want > 0.5", v)
	}
	// 1 workload x (train + 3 variants) rows.
	if fig.Table.Rows() != 4 {
		t.Fatalf("rows = %d, want 4", fig.Table.Rows())
	}
}

func TestByIDAndIDs(t *testing.T) {
	for _, id := range IDs() {
		if _, ok := ByID(id); !ok {
			t.Errorf("ByID(%q) missing", id)
		}
		if Describe(id) == "" {
			t.Errorf("Describe(%q) empty — hmexp -list needs a one-liner for every figure", id)
		}
	}
	if _, ok := ByID("fig99"); ok {
		t.Error("ByID accepted unknown id")
	}
	if Describe("fig99") != "" {
		t.Error("Describe returned text for unknown id")
	}
	if len(IDs()) != 21 {
		t.Errorf("IDs() = %d entries, want 21", len(IDs()))
	}
}

// TestRegisterRejectsRepeatedIDs: Register appends a new id to the figure
// table and panics on an id already in it, built-in or registered.
func TestRegisterRejectsRepeatedIDs(t *testing.T) {
	saved := figures
	figures = append([]figure(nil), figures...)
	t.Cleanup(func() { figures = saved })
	fn := func(Options) (Figure, error) { return Figure{}, nil }
	Register("figtest", "a registered figure", fn)
	for _, id := range []string{"fig3", "figtest"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register(%q) of a repeated id did not panic", id)
				}
			}()
			Register(id, "again", fn)
		}()
	}
	ids := IDs()
	if len(ids) != len(saved)+1 || ids[len(ids)-1] != "figtest" || Describe("figtest") != "a registered figure" {
		t.Errorf("IDs() = %v after one registration and two refused ones", ids)
	}
}

func TestPrintCDF(t *testing.T) {
	tb, err := PrintCDF("bfs", Options{Shrink: 16}, 20)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() < 10 {
		t.Fatalf("CDF table has %d rows, want >= 10", tb.Rows())
	}
}

// TestOptionsValidate: the one check of user-stated run options reports
// every problem at once, and names the unknown workloads in one error.
func TestOptionsValidate(t *testing.T) {
	ok := Options{Shrink: 1, Workloads: []string{"bfs", "phased"}, Topology: "gh200", Migrate: "policy=ewma"}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
	bad := Options{Workloads: []string{"bfs", "nosuch", "", "stencil"}, Workers: -1, Topology: "vax",
		Migrate: "alpha=0,policy=ewma", Probe: &obs.Config{Interval: 0, MaxSamples: 8}}
	err := bad.Validate()
	if err == nil {
		t.Fatal("invalid options accepted")
	}
	errs := err.(interface{ Unwrap() []error }).Unwrap()
	// workloads, shrink 0, workers, topology, probe, migrate spec
	if len(errs) != 6 {
		t.Errorf("got %d errors, want 6: %v", len(errs), errs)
	}
	if msg := errs[0].Error(); !strings.Contains(msg, `"nosuch", ""`) || !strings.Contains(msg, "xsbench") {
		t.Errorf("workload error %q does not name the unknown and the known workloads", msg)
	}
}
