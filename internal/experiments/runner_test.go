package experiments

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"hetsim/internal/core"
	"hetsim/internal/gpu"
	"hetsim/internal/memsys"
	"hetsim/internal/tlb"
	"hetsim/internal/topology"
	"hetsim/internal/vm"
	"hetsim/internal/workloads"
)

// shrunk is the shrink factor for unit tests: runs in milliseconds while
// keeping the qualitative orderings intact.
const shrunk = 8

func TestRunBasics(t *testing.T) {
	r, err := Run(RunConfig{Workload: "hotspot", Policy: LocalPolicy, Shrink: shrunk})
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles <= 0 || r.Perf <= 0 {
		t.Fatalf("degenerate result: %+v", r)
	}
	if r.BOServed != 1.0 {
		t.Fatalf("LOCAL BOServed = %g, want 1.0", r.BOServed)
	}
	if r.Policy != "LOCAL" {
		t.Fatalf("policy label %q", r.Policy)
	}
	if len(r.Allocations) == 0 || len(r.PageCounts) == 0 {
		t.Fatal("missing profile data in result")
	}
}

func TestRunUnknownWorkload(t *testing.T) {
	if _, err := Run(RunConfig{Workload: "nope", Policy: LocalPolicy}); err == nil {
		t.Fatal("unknown workload ran")
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(RunConfig{Workload: "bfs", Policy: BWAwarePolicy, Shrink: shrunk})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(RunConfig{Workload: "bfs", Policy: BWAwarePolicy, Shrink: shrunk})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Accesses != b.Accesses {
		t.Fatalf("nondeterministic: %d/%d vs %d/%d cycles/accesses", a.Cycles, a.Accesses, b.Cycles, b.Accesses)
	}
}

func TestBWAwareBeatsLocalAndInterleaveOnBandwidthBound(t *testing.T) {
	for _, wl := range []string{"hotspot", "stencil", "bfs"} {
		local, err := Run(RunConfig{Workload: wl, Policy: LocalPolicy, Shrink: shrunk})
		if err != nil {
			t.Fatal(err)
		}
		inter, err := Run(RunConfig{Workload: wl, Policy: InterleavePolicy, Shrink: shrunk})
		if err != nil {
			t.Fatal(err)
		}
		bw, err := Run(RunConfig{Workload: wl, Policy: BWAwarePolicy, Shrink: shrunk})
		if err != nil {
			t.Fatal(err)
		}
		if bw.Perf <= local.Perf {
			t.Errorf("%s: BW-AWARE (%.1f) did not beat LOCAL (%.1f)", wl, bw.Perf, local.Perf)
		}
		if bw.Perf <= inter.Perf {
			t.Errorf("%s: BW-AWARE (%.1f) did not beat INTERLEAVE (%.1f)", wl, bw.Perf, inter.Perf)
		}
		if local.Perf <= inter.Perf {
			t.Errorf("%s: LOCAL (%.1f) did not beat INTERLEAVE (%.1f) on asymmetric memory", wl, local.Perf, inter.Perf)
		}
	}
}

func TestLocalWinsForLatencySensitive(t *testing.T) {
	local, err := Run(RunConfig{Workload: "sgemm", Policy: LocalPolicy, Shrink: shrunk})
	if err != nil {
		t.Fatal(err)
	}
	bw, err := Run(RunConfig{Workload: "sgemm", Policy: BWAwarePolicy, Shrink: shrunk})
	if err != nil {
		t.Fatal(err)
	}
	if bw.Perf >= local.Perf {
		t.Fatalf("sgemm: BW-AWARE (%.1f) should lose to LOCAL (%.1f)", bw.Perf, local.Perf)
	}
	// The paper bounds the regression at ~12%; allow up to 30% here.
	if bw.Perf < 0.70*local.Perf {
		t.Fatalf("sgemm: BW-AWARE regression too large: %.2f of LOCAL", bw.Perf/local.Perf)
	}
}

func TestComputeBoundInsensitive(t *testing.T) {
	local, err := Run(RunConfig{Workload: "comd", Policy: LocalPolicy, Shrink: shrunk})
	if err != nil {
		t.Fatal(err)
	}
	inter, err := Run(RunConfig{Workload: "comd", Policy: InterleavePolicy, Shrink: shrunk})
	if err != nil {
		t.Fatal(err)
	}
	ratio := inter.Perf / local.Perf
	if ratio < 0.85 || ratio > 1.15 {
		t.Fatalf("comd policy sensitivity %.2f, want ~1.0 (memory-insensitive)", ratio)
	}
}

func TestBWAwareServiceFractionMatchesShare(t *testing.T) {
	r, err := Run(RunConfig{Workload: "stencil", Policy: BWAwarePolicy, Shrink: shrunk})
	if err != nil {
		t.Fatal(err)
	}
	// Streaming workload, uniform pages: service fraction should approach
	// the bandwidth share 200/280 = 0.714.
	if r.BOServed < 0.65 || r.BOServed > 0.78 {
		t.Fatalf("BW-AWARE BO service fraction = %.3f, want ~0.714", r.BOServed)
	}
}

func TestCapacityConstraintDegradesGracefully(t *testing.T) {
	base, err := Run(RunConfig{Workload: "bfs", Policy: BWAwarePolicy, Shrink: shrunk})
	if err != nil {
		t.Fatal(err)
	}
	prev := base.Perf * 1.05
	for _, frac := range []float64{0.7, 0.4, 0.1} {
		r, err := Run(RunConfig{Workload: "bfs", Policy: BWAwarePolicy, BOCapacityFrac: frac, Shrink: shrunk})
		if err != nil {
			t.Fatal(err)
		}
		if r.Perf > prev*1.02 {
			t.Fatalf("perf increased as capacity shrank to %.0f%%: %.1f > %.1f", frac*100, r.Perf, prev)
		}
		prev = r.Perf
	}
	tight, err := Run(RunConfig{Workload: "bfs", Policy: BWAwarePolicy, BOCapacityFrac: 0.1, Shrink: shrunk})
	if err != nil {
		t.Fatal(err)
	}
	if tight.Perf >= 0.9*base.Perf {
		t.Fatalf("10%% capacity barely hurt bfs: %.2f of unconstrained", tight.Perf/base.Perf)
	}
}

func TestOracleBeatsBWAwareUnderConstraint(t *testing.T) {
	for _, wl := range []string{"bfs", "needle"} {
		prof, err := Profile(wl, workloads.Train(), shrunk)
		if err != nil {
			t.Fatal(err)
		}
		bw, err := Run(RunConfig{Workload: wl, Policy: BWAwarePolicy, BOCapacityFrac: 0.1, Shrink: shrunk})
		if err != nil {
			t.Fatal(err)
		}
		orc, err := Run(RunConfig{Workload: wl, Policy: OraclePolicy, ProfileCounts: prof.PageCounts, BOCapacityFrac: 0.1, Shrink: shrunk})
		if err != nil {
			t.Fatal(err)
		}
		if orc.Perf <= bw.Perf {
			t.Errorf("%s: oracle (%.1f) did not beat BW-AWARE (%.1f) at 10%% capacity", wl, orc.Perf, bw.Perf)
		}
	}
}

func TestOracleRequiresProfile(t *testing.T) {
	_, err := Run(RunConfig{Workload: "bfs", Policy: OraclePolicy, Shrink: shrunk})
	if err == nil || !strings.Contains(err.Error(), "ProfileCounts") {
		t.Fatalf("err = %v, want ProfileCounts requirement", err)
	}
}

func TestHintedRequiresMatchingHints(t *testing.T) {
	_, err := Run(RunConfig{Workload: "bfs", Policy: HintedPolicy, Shrink: shrunk})
	if err == nil {
		t.Fatal("hinted run without hints succeeded")
	}
}

func TestAnnotatedAtLeastBWAware(t *testing.T) {
	for _, wl := range []string{"bfs", "xsbench", "mummergpu"} {
		hints, err := AnnotatedHints(wl, workloads.Train(), workloads.Train(), 0.1, shrunk)
		if err != nil {
			t.Fatal(err)
		}
		bw, err := Run(RunConfig{Workload: wl, Policy: BWAwarePolicy, BOCapacityFrac: 0.1, Shrink: shrunk})
		if err != nil {
			t.Fatal(err)
		}
		ann, err := Run(RunConfig{Workload: wl, Policy: HintedPolicy, Hints: hints, BOCapacityFrac: 0.1, Shrink: shrunk})
		if err != nil {
			t.Fatal(err)
		}
		if ann.Perf < 0.97*bw.Perf {
			t.Errorf("%s: annotated (%.1f) fell below BW-AWARE (%.1f)", wl, ann.Perf, bw.Perf)
		}
	}
}

func TestEagerPlacementOrderBias(t *testing.T) {
	// bfs allocates its hot structures last; eager Malloc-order placement
	// under a tight capacity locks them out of BO, while first-touch does
	// not. This is the placement-moment ablation.
	eager, err := Run(RunConfig{Workload: "bfs", Policy: BWAwarePolicy, BOCapacityFrac: 0.5, EagerPlacement: true, Shrink: shrunk})
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := Run(RunConfig{Workload: "bfs", Policy: BWAwarePolicy, BOCapacityFrac: 0.5, Shrink: shrunk})
	if err != nil {
		t.Fatal(err)
	}
	if lazy.Perf <= eager.Perf {
		t.Fatalf("first-touch (%.1f) did not beat eager placement (%.1f) for late-hot bfs", lazy.Perf, eager.Perf)
	}
	if lazy.BOServed <= eager.BOServed {
		t.Fatalf("first-touch BO service %.3f not above eager %.3f", lazy.BOServed, eager.BOServed)
	}
}

func TestSBITForTable1(t *testing.T) {
	sbit := SBITFor(memsysTable1())
	if got := sbit.TotalBandwidth(); got < 279 || got > 281 {
		t.Fatalf("SBIT total bandwidth = %g, want 280", got)
	}
	if got := sbit.Share(vm.ZoneBO); got < 0.71 || got > 0.72 {
		t.Fatalf("BO share = %g, want 200/280", got)
	}
	co, ok := sbit.Info(vm.ZoneCO)
	if !ok || co.LatencyCycles != 100 {
		t.Fatalf("CO info = %+v, %v", co, ok)
	}
}

// TestSBITForPresetShares checks the generalized BW-AWARE ratios on an
// N-pool preset: each pool's share is its bandwidth fraction, and zones
// sort fastest-first.
func TestSBITForPresetShares(t *testing.T) {
	topo, err := topology.Preset("cxl-expansion")
	if err != nil {
		t.Fatal(err)
	}
	mem := topo.MemsysConfig()
	sbit := SBITFor(mem)
	var total float64
	for _, z := range mem.Zones {
		total += mem.ZoneBandwidthGBps(z.Zone)
	}
	for _, z := range mem.Zones {
		got := sbit.Share(z.Zone)
		want := mem.ZoneBandwidthGBps(z.Zone) / total
		if diff := got - want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("pool %s share = %v, want %v", z.Name, got, want)
		}
	}
	byBW := sbit.ZonesByBandwidth()
	if byBW[0] != vm.ZoneBO {
		t.Errorf("fastest zone = %d, want %d (GDDR5)", byBW[0], vm.ZoneBO)
	}
	if last := byBW[len(byBW)-1]; last != vm.ZoneID(2) {
		t.Errorf("slowest zone = %d, want 2 (CXL-DRAM)", last)
	}
}

// TestTable1SBITMatchesConfig pins core.Table1SBIT, the last hand-written
// copy of Table 1's pools, to the SBIT every default run derives from
// memsys.Table1Config.
func TestTable1SBITMatchesConfig(t *testing.T) {
	got, want := core.Table1SBIT(), SBITFor(memsys.Table1Config())
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("core.Table1SBIT() = %+v, want SBITFor(memsys.Table1Config()) = %+v", got, want)
	}
}

// TestRunRejectsMalformedMem: a malformed RunConfig — its memory system,
// GPU, TLB, page size, policy parameters, CPU traffic or hints — as a
// client may send one, is an error from Run and never a panic. Every row
// but the zone-span one, which depends on the workload's allocations, is
// refused by RunConfig.Validate before any simulation state is built (the
// daemon's copy of these rows is serve.TestSubmitRejectsMalformedConfigs).
func TestRunRejectsMalformedMem(t *testing.T) {
	for _, c := range []struct {
		name string
		mut  func(*RunConfig)
	}{
		{"negative hop", func(rc *RunConfig) { rc.Mem.Zones[1].ExtraLatency = -100 }},
		{"negative global latency", func(rc *RunConfig) { rc.Mem.GlobalExtraLatency = -100 }},
		{"duplicate zone IDs", func(rc *RunConfig) { rc.Mem.Zones[1].Zone = rc.Mem.Zones[0].Zone }},
		{"zone ID out of range", func(rc *RunConfig) { rc.Mem.Zones[1].Zone = vm.MaxZones }},
		{"empty zone name", func(rc *RunConfig) { rc.Mem.Zones[1].Name = "" }},
		{"duplicate zone names", func(rc *RunConfig) { rc.Mem.Zones[1].Name = rc.Mem.Zones[0].Name }},
		{"page size not a power of two", func(rc *RunConfig) { rc.PageSize = 3 }},
		{"1-byte pages", func(rc *RunConfig) { rc.PageSize = 1 }},
		{"16-byte pages", func(rc *RunConfig) { rc.PageSize = 16 }},
		{"64-byte pages, below the 128-byte line", func(rc *RunConfig) { rc.PageSize = 64 }},
		{"negative SMs", func(rc *RunConfig) { rc.GPU.SMs = -2 }},
		{"no warps per SM", func(rc *RunConfig) { rc.GPU = gpu.Config{SMs: 1} }},
		{"empty TLB", func(rc *RunConfig) { rc.TLB = &tlb.Config{} }},
		{"ratio above 100", func(rc *RunConfig) { rc.Policy, rc.PercentCO = RatioPolicy, 150 }},
		{"negative ratio", func(rc *RunConfig) { rc.Policy, rc.PercentCO = RatioPolicy, -5 }},
		{"allocations past the zone span", func(rc *RunConfig) { rc.PageSize = 1 << 40 }},
		{"negative CPU traffic", func(rc *RunConfig) { rc.CPUTrafficGBps = -40 }},
		{"hints outside the placement hints", func(rc *RunConfig) {
			rc.Policy, rc.Hints = HintedPolicy, []core.Hint{99, 99, 99, 99, 99, 99}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			rc := RunConfig{Workload: "bfs", Policy: BWAwarePolicy, Shrink: 64, Mem: memsys.Table1Config()}
			c.mut(&rc)
			if _, err := Run(rc); err == nil {
				t.Fatal("Run accepted a malformed RunConfig")
			}
			if err := rc.Validate(); err == nil && c.name != "allocations past the zone span" {
				t.Error("Validate accepted a malformed RunConfig")
			}
		})
	}
}

func TestPolicyKindStrings(t *testing.T) {
	for k, want := range map[PolicyKind]string{
		LocalPolicy: "LOCAL", InterleavePolicy: "INTERLEAVE", BWAwarePolicy: "BW-AWARE",
		RatioPolicy: "RATIO", OraclePolicy: "ORACLE", HintedPolicy: "ANNOTATED",
		PolicyKind(99): "PolicyKind(99)",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestReportJSON(t *testing.T) {
	res, err := Run(RunConfig{Workload: "bfs", Policy: BWAwarePolicy, Shrink: 16})
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReport(res)
	if rep.Workload != "bfs" || rep.Policy != "BW-AWARE" {
		t.Fatalf("report identity: %+v", rep)
	}
	if rep.Perf <= 0 || rep.Cycles <= 0 || rep.P99Latency < rep.P50Latency {
		t.Fatalf("report counters: %+v", rep)
	}
	if len(rep.Allocations) != 6 {
		t.Fatalf("allocations = %d, want 6 (bfs structures)", len(rep.Allocations))
	}
	var buf strings.Builder
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal([]byte(buf.String()), &back); err != nil {
		t.Fatalf("round trip: %v\n%s", err, buf.String())
	}
	if back.Perf != rep.Perf || back.Allocations[0].Label != rep.Allocations[0].Label {
		t.Fatal("JSON round trip lost data")
	}
}
