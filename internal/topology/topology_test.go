package topology

import (
	"reflect"
	"strings"
	"testing"

	"hetsim/internal/memsys"
	"hetsim/internal/vm"
)

func TestPresetsValid(t *testing.T) {
	for _, name := range Names() {
		topo, err := Preset(name)
		if err != nil {
			t.Fatalf("Preset(%q): %v", name, err)
		}
		mc := topo.MemsysConfig()
		if err := mc.Validate(); err != nil {
			t.Errorf("preset %q invalid: %v", name, err)
		}
		for i, z := range mc.Zones {
			if z.Zone != vm.ZoneID(i) {
				t.Errorf("preset %q pool %d mapped to zone %d", name, i, z.Zone)
			}
		}
	}
}

// MemsysConfig hands out copies: a caller that rescales its zones must
// not change the preset it came from.
func TestMemsysConfigIndependent(t *testing.T) {
	topo := K40DDR4()
	mc := topo.MemsysConfig()
	mc.ScaleZoneBandwidth(vm.ZoneBO, 2)
	if !reflect.DeepEqual(topo.MemsysConfig(), memsys.Table1Config()) {
		t.Fatal("mutating a MemsysConfig copy changed the topology")
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

// TestValidateRejects malforms every preset's memory system and checks
// that memsys.Config.Validate, which every run applies, refuses it: the
// rules hold for each preset's zone layout, not only Table 1's.
func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*memsys.Config)
		want   string // substring of the expected error
	}{
		{"no pools", func(c *memsys.Config) { c.Zones = nil }, "no zones"},
		{"too many pools", func(c *memsys.Config) {
			for len(c.Zones) <= vm.MaxZones {
				z := c.Zones[0]
				z.Zone, z.Name = vm.ZoneID(len(c.Zones)), strings.Repeat("x", len(c.Zones))
				c.Zones = append(c.Zones, z)
			}
		}, "ID"},
		{"empty pool name", func(c *memsys.Config) { c.Zones[1].Name = "" }, "name"},
		{"duplicate pool names", func(c *memsys.Config) { c.Zones[1].Name = c.Zones[0].Name }, "duplicate"},
		{"zero channels", func(c *memsys.Config) { c.Zones[0].Channels = 0 }, "channels"},
		{"negative channels", func(c *memsys.Config) { c.Zones[1].Channels = -4 }, "channels"},
		{"zero bandwidth", func(c *memsys.Config) { c.Zones[0].DRAM.BytesPerCycle = 0 }, "BytesPerCycle"},
		{"zero banks", func(c *memsys.Config) { c.Zones[0].DRAM.Banks = 0 }, "Banks"},
		{"zero row bytes", func(c *memsys.Config) { c.Zones[1].DRAM.RowBytes = 0 }, "RowBytes"},
		{"negative hop", func(c *memsys.Config) { c.Zones[1].ExtraLatency = -1 }, "hop"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, name := range Names() {
				topo, err := Preset(name)
				if err != nil {
					t.Fatalf("Preset(%q): %v", name, err)
				}
				mc := topo.MemsysConfig()
				tc.mutate(&mc)
				err = mc.Validate()
				if err == nil {
					t.Errorf("%s: Validate accepted bad config", name)
					continue
				}
				if !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%s: error %q does not mention %q", name, err, tc.want)
				}
			}
		})
	}
}

// TestBWRatio pins the exact ratios: figtopo writes them into figure
// JSON at full precision, and BWRatio reads bandwidth back through
// memsys.BytesPerCycle.
func TestBWRatio(t *testing.T) {
	for _, c := range []struct {
		topo Topology
		want float64
	}{
		{K40DDR4(), 2.5},              // 200:80
		{GH200(), 8},                  // 4000:500
		{CXLExpansion(), 200.0 / 144}, // 200:(80+64)
	} {
		if r := c.topo.BWRatio(); r != c.want {
			t.Errorf("%s BW ratio = %v, want %v", c.topo.Name, r, c.want)
		}
	}
	one := K40DDR4()
	one.Mem.Zones = one.Mem.Zones[:1]
	if r := one.BWRatio(); r != 0 {
		t.Errorf("single-pool ratio = %v, want 0", r)
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
