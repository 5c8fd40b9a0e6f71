package experiments

import (
	"testing"

	"hetsim/internal/core"
	"hetsim/internal/gpu"
	"hetsim/internal/memsys"
	"hetsim/internal/migrate"
	"hetsim/internal/tlb"
	"hetsim/internal/topology"
	"hetsim/internal/vm"
)

// TestConfigKeyPinned pins the hex ConfigKey of representative configs.
// hmserved's disk cache and the cluster's rendezvous routing both address
// results by these bytes, so a refactor of RunConfig defaulting must keep
// every key exactly; the relational key tests (equal configs share a key)
// cannot catch a change that moves all keys at once. Rows that share a
// want value pin the equivalences as well: implicit vs explicit defaults,
// the migration policy's empty spelling, the ignored lane count (the
// benchmark harness under bench/ still sets it), and the pools a LOCAL run
// never touches.
func TestConfigKeyPinned(t *testing.T) {
	memOf := func(name string) memsys.Config {
		top, err := topology.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		return top.MemsysConfig()
	}
	hints := []core.Hint{core.HintBO, core.HintCO, core.HintBW}
	counts := []uint64{9, 0, 4, 1}
	tlbCfg := tlb.DefaultConfig()
	migEmpty := migrate.DefaultConfig()
	migEmpty.Policy = ""
	migCounter := migrate.DefaultConfig()

	const (
		table1Key = "b2fae05e5e193eb7d99b78a29503e87aa8d246974060e772932d6048359a4b70"
		migKey    = "19aadc7c0dabdcd61bea05253638f9510cdece920586cca30a4d0ae14904a428"
		localKey  = "8926e83a0b9a40c0204c1ef7ce1d109673eecaff45c4f7844029767f291ef9b6"
	)
	cases := []struct {
		name string
		rc   RunConfig
		want string
	}{
		{"table1-implicit", RunConfig{Workload: "bfs", Policy: BWAwarePolicy, Shrink: 16}, table1Key},
		{"table1-explicit", RunConfig{
			Workload: "bfs", Policy: BWAwarePolicy, Shrink: 16,
			Mem: memsys.Table1Config(), GPU: gpu.Table1Config(),
			PageSize: vm.DefaultPageSize, Seed: 42, BOCapacityFrac: 1e9,
		}, table1Key},
		{"lanes-only", RunConfig{Workload: "bfs", Policy: BWAwarePolicy, Shrink: 16, Lanes: 8}, table1Key},
		{"local-leftovers", RunConfig{Workload: "hotspot", Policy: LocalPolicy, PercentCO: 30, Hints: hints, ProfileCounts: counts}, localKey},
		{"local-cxl-expansion", RunConfig{Workload: "hotspot", Policy: LocalPolicy, Mem: memOf("cxl-expansion")}, localKey},
		{"interleave-leftovers", RunConfig{Workload: "hotspot", Policy: InterleavePolicy, PercentCO: 30, Hints: hints, ProfileCounts: counts},
			"1058d332660c03e9eb74c15a823e5a8b374a5d848cd289bee95e2bde77483023"},
		{"ratio-leftovers", RunConfig{Workload: "hotspot", Policy: RatioPolicy, PercentCO: 30, Hints: hints, ProfileCounts: counts},
			"a29164fffb9026d4ea41302f5f7dffa2011258b3cff840cae79665cd149c7429"},
		{"oracle-leftovers", RunConfig{Workload: "hotspot", Policy: OraclePolicy, PercentCO: 30, Hints: hints, ProfileCounts: counts, BOCapacityFrac: 0.1},
			"0c3669e4be2d5e4833d26c8b98543968e412a04fba5d49fa516b0cc818e548e6"},
		{"annotated-leftovers", RunConfig{Workload: "hotspot", Policy: HintedPolicy, PercentCO: 30, Hints: hints, ProfileCounts: counts, Seed: 7},
			"b1af6837da6b25b8990dabe86747cecc5881b4047541949527e6cbca8ff43ab7"},
		{"tlb-64k", RunConfig{Workload: "sgemm", Policy: BWAwarePolicy, TLB: &tlbCfg, PageSize: 64 << 10, Shrink: 4},
			"33e9283ce19efbeb4648d5feef68b1ba2fca4ae67c354ebafd27f7d89085ee5f"},
		{"migration-empty-policy", RunConfig{Workload: "bfs", Policy: BWAwarePolicy, BOCapacityFrac: 0.1, Migration: &migEmpty}, migKey},
		{"migration-counter", RunConfig{Workload: "bfs", Policy: BWAwarePolicy, BOCapacityFrac: 0.1, Migration: &migCounter}, migKey},
		{"cxl-expansion", RunConfig{Workload: "xsbench", Policy: BWAwarePolicy, Mem: memOf("cxl-expansion"), BOCapacityFrac: 0.1},
			"42406f228d91af745080512aa4c783f53578a9e536db34f3f8d8fef170a918fd"},
		{"gh200", RunConfig{Workload: "xsbench", Policy: InterleavePolicy, Mem: memOf("gh200"), CPUTrafficGBps: 20, EagerPlacement: true},
			"8f97d0c9c2e90523fc33b93f81d9cefc6798dcfd17e49f02d800036bb3983180"},
	}
	for _, c := range cases {
		got, ok := ConfigKey(c.rc)
		if !ok {
			t.Errorf("%s: config unexpectedly uncacheable", c.name)
			continue
		}
		if got != c.want {
			t.Errorf("%s: ConfigKey = %s, want %s", c.name, got, c.want)
		}
	}
}
