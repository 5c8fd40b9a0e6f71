package core

import (
	"math"
	"testing"
	"testing/quick"

	"hetsim/internal/vm"
)

func TestSBITShares(t *testing.T) {
	s := Table1SBIT()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := s.TotalBandwidth(); got != 280 {
		t.Fatalf("TotalBandwidth = %g, want 280", got)
	}
	bo := s.Share(vm.ZoneBO)
	if math.Abs(bo-200.0/280.0) > 1e-12 {
		t.Fatalf("Share(BO) = %g, want 200/280", bo)
	}
	co := s.Share(vm.ZoneCO)
	if math.Abs(bo+co-1) > 1e-12 {
		t.Fatalf("shares sum to %g, want 1", bo+co)
	}
	if s.Share(vm.ZoneID(7)) != 0 {
		t.Fatal("unknown zone share not 0")
	}
}

func TestSBITValidate(t *testing.T) {
	if err := (SBIT{}).Validate(); err == nil {
		t.Fatal("empty SBIT validated")
	}
	bad := SBIT{ZoneInfos: []ZoneInfo{{Zone: vm.ZoneBO, BandwidthGBps: -1}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("negative bandwidth validated")
	}
	zero := SBIT{ZoneInfos: []ZoneInfo{{Zone: vm.ZoneBO, BandwidthGBps: 0}}}
	if err := zero.Validate(); err == nil {
		t.Fatal("zero total bandwidth validated")
	}
}

func TestSBITZonesByBandwidth(t *testing.T) {
	s := Table1SBIT()
	order := s.ZonesByBandwidth()
	if len(order) != 2 || order[0] != vm.ZoneBO || order[1] != vm.ZoneCO {
		t.Fatalf("ZonesByBandwidth = %v, want [BO CO]", order)
	}
	// Reversed table must still rank by bandwidth.
	rev := SBIT{ZoneInfos: []ZoneInfo{s.ZoneInfos[1], s.ZoneInfos[0]}}
	order = rev.ZonesByBandwidth()
	if order[0] != vm.ZoneBO {
		t.Fatalf("reversed table order = %v, want BO first", order)
	}
}

func TestSBITInfo(t *testing.T) {
	s := Table1SBIT()
	zi, ok := s.Info(vm.ZoneCO)
	if !ok || zi.Name != "DDR4" || zi.LatencyCycles != 100 {
		t.Fatalf("Info(CO) = %+v, %v", zi, ok)
	}
	if _, ok := s.Info(vm.ZoneID(6)); ok {
		t.Fatal("Info of unknown zone ok")
	}
}

func TestPresetSBITsValid(t *testing.T) {
	for _, s := range []SBIT{Table1SBIT(), HPCSBIT(), DesktopSBIT(), MobileSBIT()} {
		if err := s.Validate(); err != nil {
			t.Errorf("preset invalid: %v", err)
		}
	}
	// Figure 1 ratio sanity: HPC CO adds ~8%, mobile ~31%.
	hpc := HPCSBIT()
	hpcBoost := hpc.Share(vm.ZoneCO) / hpc.Share(vm.ZoneBO)
	if hpcBoost < 0.05 || hpcBoost > 0.12 {
		t.Errorf("HPC CO/BO ratio = %.3f, want ~0.08", hpcBoost)
	}
	mob := MobileSBIT()
	mobBoost := mob.Share(vm.ZoneCO) / mob.Share(vm.ZoneBO)
	if mobBoost < 0.25 || mobBoost > 0.40 {
		t.Errorf("mobile CO/BO ratio = %.3f, want ~0.31", mobBoost)
	}
}

func TestLocalAlwaysBO(t *testing.T) {
	p := Local{Zone: vm.ZoneBO}
	for i := 0; i < 100; i++ {
		if got := p.Place(Request{VPage: uint64(i)}); got != vm.ZoneBO {
			t.Fatalf("LOCAL placed page in zone %d", got)
		}
	}
	if p.Name() != "LOCAL" {
		t.Fatalf("Name = %q", p.Name())
	}
}

func TestInterleaveRoundRobin(t *testing.T) {
	p := NewInterleave(2)
	counts := map[vm.ZoneID]int{}
	for i := 0; i < 10; i++ {
		counts[p.Place(Request{})]++
	}
	if counts[vm.ZoneBO] != 5 || counts[vm.ZoneCO] != 5 {
		t.Fatalf("INTERLEAVE split = %v, want 5/5", counts)
	}
}

func TestInterleaveInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewInterleave(0) did not panic")
		}
	}()
	NewInterleave(0)
}

func TestRatioExtremes(t *testing.T) {
	allBO := NewRatioZones(0, 1, vm.ZoneBO, vm.ZoneCO)
	allCO := NewRatioZones(100, 1, vm.ZoneBO, vm.ZoneCO)
	for i := 0; i < 50; i++ {
		if allBO.Place(Request{}) != vm.ZoneBO {
			t.Fatal("0C-100B placed a page in CO")
		}
		if allCO.Place(Request{}) != vm.ZoneCO {
			t.Fatal("100C-0B placed a page in BO")
		}
	}
	if got := NewRatioZones(30, 1, vm.ZoneBO, vm.ZoneCO).Name(); got != "30C-70B" {
		t.Fatalf("Name = %q, want 30C-70B", got)
	}
}

func TestRatioConverges(t *testing.T) {
	p := NewRatioZones(30, 42, vm.ZoneBO, vm.ZoneCO)
	co := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if p.Place(Request{}) == vm.ZoneCO {
			co++
		}
	}
	frac := float64(co) / n
	if math.Abs(frac-0.30) > 0.02 {
		t.Fatalf("30C-70B placed %.3f in CO, want ~0.30", frac)
	}
}

func TestRatioInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRatioZones(101) did not panic")
		}
	}()
	NewRatioZones(101, 1, vm.ZoneBO, vm.ZoneCO)
}

func TestBWAwareConvergesToBandwidthRatio(t *testing.T) {
	p := NewBWAware(Table1SBIT(), 7)
	counts := map[vm.ZoneID]int{}
	const n = 50000
	for i := 0; i < n; i++ {
		counts[p.Place(Request{})]++
	}
	boFrac := float64(counts[vm.ZoneBO]) / n
	want := 200.0 / 280.0
	if math.Abs(boFrac-want) > 0.01 {
		t.Fatalf("BW-AWARE BO fraction %.4f, want %.4f", boFrac, want)
	}
}

func TestBWAwareThreeZones(t *testing.T) {
	s := SBIT{ZoneInfos: []ZoneInfo{
		{Zone: vm.ZoneBO, Name: "HBM", BandwidthGBps: 500},
		{Zone: vm.ZoneCO, Name: "DDR", BandwidthGBps: 300},
		{Zone: vm.ZoneID(2), Name: "NVM", BandwidthGBps: 200},
	}}
	p := NewBWAware(s, 3)
	counts := map[vm.ZoneID]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[p.Place(Request{})]++
	}
	for _, zi := range s.ZoneInfos {
		frac := float64(counts[zi.Zone]) / n
		want := zi.BandwidthGBps / 1000
		if math.Abs(frac-want) > 0.01 {
			t.Fatalf("zone %s fraction %.4f, want %.4f", zi.Name, frac, want)
		}
	}
}

// twoZoneOracle builds the oracle over the paper's BO/CO pair: targetBO
// is BO's bandwidth-service share and capBO its page capacity.
func twoZoneOracle(counts []uint64, targetBO float64, capBO int) []vm.ZoneID {
	return BuildOracleAssignmentZones(counts, []vm.ZoneID{vm.ZoneBO, vm.ZoneCO},
		[]float64{targetBO, 1 - targetBO}, []int{capBO, vm.Unlimited})
}

func TestOraclePlacesHottestInBO(t *testing.T) {
	counts := []uint64{5, 100, 1, 50, 0}
	// Target: 70% of 156 accesses = 109.2 -> pages 1 (100) then 3 (50)
	// reach 150 >= 109 and stop.
	assign := twoZoneOracle(counts, 0.7, vm.Unlimited)
	wantBO := map[int]bool{1: true, 3: true}
	for i, z := range assign {
		if wantBO[i] && z != vm.ZoneBO {
			t.Errorf("page %d in zone %d, want BO", i, z)
		}
		if !wantBO[i] && z != vm.ZoneCO {
			t.Errorf("page %d in zone %d, want CO", i, z)
		}
	}
}

func TestOracleCapacityConstraint(t *testing.T) {
	counts := []uint64{10, 9, 8, 7, 6}
	assign := twoZoneOracle(counts, 1.0, 2)
	bo := 0
	for _, z := range assign {
		if z == vm.ZoneBO {
			bo++
		}
	}
	if bo != 2 {
		t.Fatalf("oracle placed %d pages in BO, want 2 (capacity)", bo)
	}
	if assign[0] != vm.ZoneBO || assign[1] != vm.ZoneBO {
		t.Fatalf("oracle did not pick the hottest pages: %v", assign)
	}
}

func TestOraclePolicyLookup(t *testing.T) {
	o := Oracle{Assignment: []vm.ZoneID{vm.ZoneCO, vm.ZoneBO}, Default: vm.ZoneCO}
	if o.Place(Request{VPage: 1}) != vm.ZoneBO {
		t.Fatal("assigned page not honored")
	}
	if o.Place(Request{VPage: 99}) != vm.ZoneCO {
		t.Fatal("default not honored")
	}
}

func TestHintedPolicy(t *testing.T) {
	h := NewHintedZones(Local{Zone: vm.ZoneBO}, vm.ZoneBO, vm.ZoneCO)
	if h.Place(Request{Hint: HintCO}) != vm.ZoneCO {
		t.Fatal("HintCO ignored")
	}
	if h.Place(Request{Hint: HintBO}) != vm.ZoneBO {
		t.Fatal("HintBO ignored")
	}
	if h.Place(Request{Hint: HintBW}) != vm.ZoneBO {
		t.Fatal("HintBW did not defer to fallback")
	}
	if h.Place(Request{Hint: HintNone}) != vm.ZoneBO {
		t.Fatal("HintNone did not defer to fallback")
	}
}

func TestHintStrings(t *testing.T) {
	cases := map[Hint]string{HintNone: "none", HintBO: "BO", HintCO: "CO", HintBW: "BW", Hint(9): "Hint(9)"}
	for h, want := range cases {
		if h.String() != want {
			t.Errorf("Hint(%d).String() = %q, want %q", h, h.String(), want)
		}
	}
}

// Property: oracle assignment BO pages always have counts >= every CO
// page's count (greedy hottest-first), for any count vector.
func TestPropertyOracleGreedy(t *testing.T) {
	f := func(raw []uint16, frac uint8) bool {
		counts := make([]uint64, len(raw))
		for i, r := range raw {
			counts[i] = uint64(r)
		}
		target := float64(frac%101) / 100
		assign := twoZoneOracle(counts, target, vm.Unlimited)
		minBO := uint64(math.MaxUint64)
		maxCO := uint64(0)
		haveBO := false
		for i, z := range assign {
			if z == vm.ZoneBO {
				haveBO = true
				if counts[i] < minBO {
					minBO = counts[i]
				}
			} else if counts[i] > maxCO {
				maxCO = counts[i]
			}
		}
		return !haveBO || minBO >= maxCO
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: BW-AWARE never places into a zone missing from the SBIT.
func TestPropertyBWAwareZonesClosed(t *testing.T) {
	p := NewBWAware(MobileSBIT(), 11)
	for i := 0; i < 10000; i++ {
		z := p.Place(Request{})
		if z != vm.ZoneBO && z != vm.ZoneCO {
			t.Fatalf("BW-AWARE chose unknown zone %d", z)
		}
	}
}
