package topology

import (
	"reflect"
	"strings"
	"testing"

	"hetsim/internal/memsys"
	"hetsim/internal/vm"
)

// TestK40MatchesTable1 pins the byte-identity contract: the k40-ddr4
// preset must compile to exactly the paper's Table 1 memory system, so
// figures rendered on it are bit-identical to the historical default.
func TestK40MatchesTable1(t *testing.T) {
	got := K40DDR4().MemsysConfig()
	want := memsys.Table1Config()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("K40DDR4().MemsysConfig() diverged from memsys.Table1Config():\n got %+v\nwant %+v", got, want)
	}
}

func TestPresetsValid(t *testing.T) {
	for _, name := range Names() {
		topo, err := Preset(name)
		if err != nil {
			t.Fatalf("Preset(%q): %v", name, err)
		}
		if err := topo.Validate(); err != nil {
			t.Errorf("preset %q invalid: %v", name, err)
		}
		mc := topo.MemsysConfig()
		if len(mc.Zones) != len(topo.Pools) {
			t.Errorf("preset %q: %d zones from %d pools", name, len(mc.Zones), len(topo.Pools))
		}
		for i, z := range mc.Zones {
			if z.Zone != vm.ZoneID(i) {
				t.Errorf("preset %q pool %d mapped to zone %d", name, i, z.Zone)
			}
		}
	}
}

func TestPresetUnknown(t *testing.T) {
	_, err := Preset("hbm9000")
	if err == nil {
		t.Fatal("Preset accepted unknown name")
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list preset %q", err, name)
		}
	}
}

// The empty name is the default machine, not a preset of its own.
func TestPresetEmptyIsK40(t *testing.T) {
	got, err := Preset("")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, K40DDR4()) {
		t.Errorf("Preset(\"\") = %q, want k40-ddr4", got.Name)
	}
	for _, name := range Names() {
		if name == "" {
			t.Error("Names lists the empty name")
		}
	}
}

func TestValidateRejects(t *testing.T) {
	valid := func() Topology { return K40DDR4() }
	cases := []struct {
		name   string
		mutate func(*Topology)
		want   string // substring of the expected error
	}{
		{"empty name", func(tp *Topology) { tp.Name = "" }, "name"},
		{"no pools", func(tp *Topology) { tp.Pools = nil }, "no pools"},
		{"too many pools", func(tp *Topology) {
			for len(tp.Pools) <= vm.MaxZones {
				p := tp.Pools[0]
				p.Name = strings.Repeat("x", len(tp.Pools))
				tp.Pools = append(tp.Pools, p)
			}
		}, "pools"},
		{"empty pool name", func(tp *Topology) { tp.Pools[1].Name = "" }, "name"},
		{"duplicate pool names", func(tp *Topology) { tp.Pools[1].Name = tp.Pools[0].Name }, "duplicate"},
		{"zero channels", func(tp *Topology) { tp.Pools[0].Channels = 0 }, "channels"},
		{"negative channels", func(tp *Topology) { tp.Pools[1].Channels = -4 }, "channels"},
		{"zero bandwidth", func(tp *Topology) { tp.Pools[0].ChannelGBps = 0 }, "bandwidth"},
		{"zero banks", func(tp *Topology) { tp.Pools[0].Banks = 0 }, "banks"},
		{"zero row bytes", func(tp *Topology) { tp.Pools[1].RowBytes = 0 }, "row"},
		{"negative hop", func(tp *Topology) { tp.Pools[1].Hop.LatencyCycles = -1 }, "hop"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tp := valid()
			tc.mutate(&tp)
			err := tp.Validate()
			if err == nil {
				t.Fatal("Validate accepted bad topology")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	if err := valid().Validate(); err != nil {
		t.Fatalf("unmutated preset rejected: %v", err)
	}
}

func TestBWRatio(t *testing.T) {
	if r := K40DDR4().BWRatio(); r < 2.49 || r > 2.51 {
		t.Errorf("k40-ddr4 BW ratio = %.2f, want 2.5 (200:80)", r)
	}
	if r := GH200().BWRatio(); r < 7.9 || r > 8.1 {
		t.Errorf("gh200 BW ratio = %.2f, want ~8 (4000:500)", r)
	}
	one := Topology{Name: "solo", Pools: K40DDR4().Pools[:1]}
	if r := one.BWRatio(); r != 0 {
		t.Errorf("single-pool ratio = %v, want 0", r)
	}
}

// TestSBITShares checks the generalized BW-AWARE ratios: each pool's
// share is its bandwidth fraction, and zones sort fastest-first.
func TestSBITShares(t *testing.T) {
	topo, err := Preset("cxl-expansion")
	if err != nil {
		t.Fatal(err)
	}
	sbit := topo.SBIT()
	var total float64
	for _, p := range topo.Pools {
		total += p.BandwidthGBps()
	}
	for i, p := range topo.Pools {
		got := sbit.Share(vm.ZoneID(i))
		want := p.BandwidthGBps() / total
		if diff := got - want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("pool %s share = %v, want %v", p.Name, got, want)
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

func TestCapacityPlumbed(t *testing.T) {
	mc := GH200().MemsysConfig()
	if mc.Zones[0].CapacityBytes != 96<<30 {
		t.Errorf("HBM3 capacity = %d, want 96 GiB", mc.Zones[0].CapacityBytes)
	}
	if mc.Zones[1].CapacityBytes != 480<<30 {
		t.Errorf("LPDDR5X capacity = %d, want 480 GiB", mc.Zones[1].CapacityBytes)
	}
}
