package workloads

import (
	"math"
	"strings"
	"testing"

	"hetsim/internal/core"
	"hetsim/internal/gpu"
	"hetsim/internal/gpurt"
	"hetsim/internal/sim"
	"hetsim/internal/vm"
)

func testRuntime() *gpurt.Runtime {
	space := vm.NewSpace(vm.DefaultPageSize, []vm.ZoneConfig{
		{Name: "BO", CapacityPages: vm.Unlimited},
		{Name: "CO", CapacityPages: vm.Unlimited},
	})
	return gpurt.New(space, core.NewPlacer(space, core.Local{Zone: vm.ZoneBO}, core.Table1SBIT()))
}

func TestAllRegisteredSpecsValidate(t *testing.T) {
	for _, name := range AllNames() {
		s, err := Build(name, Train())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Name != name {
			t.Fatalf("spec name %q registered under %q", s.Name, name)
		}
		if s.Footprint() == 0 {
			t.Fatalf("%s: zero footprint", name)
		}
		if s.TotalAccesses() == 0 {
			t.Fatalf("%s: zero accesses", name)
		}
	}
}

func TestDefaultSetIsPaper19(t *testing.T) {
	names := Names()
	if len(names) != 19 {
		t.Fatalf("default set has %d workloads, want 19", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate workload %q", n)
		}
		seen[n] = true
		if _, err := Build(n, Train()); err != nil {
			t.Fatalf("%s: %v", n, err)
		}
	}
	for _, control := range []string{"comd", "sgemm", "bfs", "xsbench", "mummergpu", "needle", "minife"} {
		if !seen[control] {
			t.Fatalf("paper workload %q missing from default set", control)
		}
	}
	for _, ext := range []string{"gaussian", "nbody", "phased"} {
		if seen[ext] {
			t.Fatalf("%s is an extended workload; it must not be in the default 19", ext)
		}
	}
}

func TestBuildUnknown(t *testing.T) {
	if _, err := Build("nope", Train()); err == nil {
		t.Fatal("unknown workload built")
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustBuild of unknown workload did not panic")
		}
	}()
	MustBuild("nope", Train())
}

func TestValidateCatchesBadSpecs(t *testing.T) {
	good := BFS(Train())
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"no name", func(s *Spec) { s.Name = "" }},
		{"no structures", func(s *Spec) { s.Structures = nil }},
		{"zero size", func(s *Spec) { s.Structures[0].Size = 0 }},
		{"negative weight", func(s *Spec) { s.Structures[0].Weight = -1 }},
		{"zero warps", func(s *Spec) { s.Warps = 0 }},
		{"zero phases", func(s *Spec) { s.PhasesPerWarp = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := good
			s.Structures = append([]Structure(nil), good.Structures...)
			tc.mut(&s)
			if err := s.Validate(); err == nil {
				t.Fatal("Validate accepted bad spec")
			}
		})
	}
}

func TestAllocateAndPrograms(t *testing.T) {
	rt := testRuntime()
	s := BFS(Train())
	s.Shrink(10)
	allocs, err := s.Allocate(rt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(allocs) != len(s.Structures) {
		t.Fatalf("%d allocations for %d structures", len(allocs), len(s.Structures))
	}
	var footprint uint64
	for _, a := range allocs {
		footprint += a.Size
	}
	if footprint != s.Footprint() {
		t.Fatalf("allocated footprint %d != spec footprint %d", footprint, s.Footprint())
	}
	progs := s.Programs(allocs)
	if len(progs) != s.Warps {
		t.Fatalf("%d programs for %d warps", len(progs), s.Warps)
	}

	// Drain one warp: addresses must stay within its structures' ranges.
	var heapEnd uint64
	for _, a := range allocs {
		if a.End() > heapEnd {
			heapEnd = a.End()
		}
	}
	phases := 0
	for {
		ph, ok := progs[0].NextPhase()
		if !ok {
			break
		}
		phases++
		for _, acc := range ph.Addrs {
			if acc.VA >= heapEnd {
				t.Fatalf("access VA %#x beyond heap end %#x", acc.VA, heapEnd)
			}
		}
	}
	if phases != s.PhasesPerWarp {
		t.Fatalf("warp ran %d phases, want %d", phases, s.PhasesPerWarp)
	}
}

func TestAllocateHintCount(t *testing.T) {
	rt := testRuntime()
	s := BFS(Train())
	if _, err := s.Allocate(rt, []Hint{core.HintBO}); err == nil {
		t.Fatal("hint-count mismatch accepted")
	}
}

func TestProgramsDeterministic(t *testing.T) {
	s := XSBench(Train())
	s.Shrink(20)
	rt1, rt2 := testRuntime(), testRuntime()
	a1, _ := s.Allocate(rt1, nil)
	a2, _ := s.Allocate(rt2, nil)
	p1 := s.Programs(a1)[3]
	p2 := s.Programs(a2)[3]
	for {
		ph1, ok1 := p1.NextPhase()
		ph2, ok2 := p2.NextPhase()
		if ok1 != ok2 {
			t.Fatal("programs diverged in length")
		}
		if !ok1 {
			break
		}
		for i := range ph1.Addrs {
			if ph1.Addrs[i] != ph2.Addrs[i] {
				t.Fatalf("address %d differs: %+v vs %+v", i, ph1.Addrs[i], ph2.Addrs[i])
			}
		}
	}
}

func TestShrinkPreservesFootprint(t *testing.T) {
	s := LBM(Train())
	f := s.Footprint()
	p := s.PhasesPerWarp
	s.Shrink(8)
	if s.Footprint() != f {
		t.Fatal("Shrink changed footprint")
	}
	if s.PhasesPerWarp >= p {
		t.Fatal("Shrink did not reduce phases")
	}
	s2 := LBM(Train())
	s2.PhasesPerWarp = 3
	s2.Shrink(100)
	if s2.PhasesPerWarp != 1 {
		t.Fatalf("Shrink floor = %d, want 1", s2.PhasesPerWarp)
	}
	s2.Shrink(0) // no-op
	if s2.PhasesPerWarp != 1 {
		t.Fatal("Shrink(0) changed spec")
	}
}

func TestDatasetScaling(t *testing.T) {
	train := BFS(Train())
	small := BFS(Dataset{Name: "small", SizeScale: 0.5, Seed: 9})
	if small.Footprint() >= train.Footprint() {
		t.Fatalf("small footprint %d not < train %d", small.Footprint(), train.Footprint())
	}
	large := XSBench(Dataset{Name: "large", SizeScale: 2, SkewScale: 0.5, Seed: 9})
	trainX := XSBench(Train())
	if large.Footprint() <= trainX.Footprint() {
		t.Fatal("large dataset did not grow footprint")
	}
	// Skew scaling halves the Zipf excess.
	var got, want float64
	for i, st := range large.Structures {
		if st.Pattern.Kind == Zipf {
			got = st.Pattern.ZipfS
			want = 1 + (trainX.Structures[i].Pattern.zipfS()-1)*0.5
			break
		}
	}
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("scaled ZipfS = %g, want %g", got, want)
	}
}

func TestDatasetWeightShiftDeterministic(t *testing.T) {
	d := Dataset{Name: "v", WeightShift: 0.3, Seed: 5, SizeScale: 1, SkewScale: 1}
	a := BFS(d)
	b := BFS(d)
	for i := range a.Structures {
		if a.Structures[i].Weight != b.Structures[i].Weight {
			t.Fatal("weight shift not deterministic")
		}
	}
	tr := BFS(Train())
	diff := false
	for i := range a.Structures {
		if math.Abs(a.Structures[i].Weight-tr.Structures[i].Weight) > 1e-12 {
			diff = true
		}
	}
	if !diff {
		t.Fatal("weight shift had no effect")
	}
}

func TestVariantsDistinct(t *testing.T) {
	vs := Variants()
	if len(vs) < 3 {
		t.Fatalf("%d variants, want >= 3", len(vs))
	}
	seen := map[string]bool{"train": true}
	for _, v := range vs {
		if seen[v.Name] {
			t.Fatalf("duplicate dataset %q", v.Name)
		}
		seen[v.Name] = true
	}
}

func TestClassStrings(t *testing.T) {
	for c, want := range map[Class]string{
		BandwidthBound: "bandwidth", LatencyBound: "latency",
		ComputeBound: "compute", Mixed: "mixed", Class(9): "Class(9)",
	} {
		if c.String() != want {
			t.Errorf("Class(%d).String() = %q, want %q", c, c.String(), want)
		}
	}
}

func TestPatternStrings(t *testing.T) {
	cases := map[string]Pattern{
		"sequential":           {Kind: Sequential},
		"strided(8)":           {Kind: Strided},
		"uniform":              {Kind: Uniform},
		"zipf(1.20)":           {Kind: Zipf},
		"scattered-zipf(1.40)": {Kind: ScatteredZipf, ZipfS: 1.4},
	}
	for want, p := range cases {
		if got := p.String(); got != want {
			t.Errorf("Pattern.String() = %q, want %q", got, want)
		}
	}
}

// A tiny end-to-end run: a shrunk workload must complete through the real
// GPU model with a fake flat memory.
type flatMem struct{ n int }

func (m *flatMem) AccessH(src *sim.Actor, va uint64, write bool, tc *vm.TransCache, h sim.Handler, arg uint64) {
	m.n++
	src.After(0, h, arg)
}

func TestWorkloadDrivesGPU(t *testing.T) {
	rt := testRuntime()
	s := Hotspot(Train())
	s.Shrink(20)
	s.Warps = 32
	allocs, err := s.Allocate(rt, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := simEngine()
	mem := &flatMem{}
	g := gpu.New(eng, mem, gpu.Config{
		SMs: 4, WarpsPerSM: 16,
		L1:        gpuL1(),
		L1Latency: 4,
	})
	g.Launch(s.Programs(allocs))
	g.Run()
	if g.Stats().WarpsCompleted != 32 {
		t.Fatalf("completed %d warps, want 32", g.Stats().WarpsCompleted)
	}
	if mem.n == 0 {
		t.Fatal("no memory traffic generated")
	}
}

func TestDescribe(t *testing.T) {
	s := CoMD(Train())
	d := s.Describe()
	for _, want := range []string{"comd", "hpc", "compute", "overlapped"} {
		if !strings.Contains(d, want) {
			t.Errorf("Describe() = %q missing %q", d, want)
		}
	}
	p := Phased(Train())
	if !strings.Contains(p.Describe(), "drift 1.0") {
		t.Errorf("phased Describe missing drift: %q", p.Describe())
	}
}

// TestNextPhaseAllocFree: a program refills the same phase buffers every
// phase, so NextPhase allocates nothing. This holds for every registered
// workload but nbody, whose gather model coalesces through gpu.Coalesce
// and allocates per warp instruction.
func TestNextPhaseAllocFree(t *testing.T) {
	for _, name := range AllNames() {
		if name == "nbody" {
			continue
		}
		s := MustBuild(name, Train())
		s.PhasesPerWarp = 1000 // enough phases for the measured runs
		allocs, err := s.Allocate(testRuntime(), nil)
		if err != nil {
			t.Fatal(err)
		}
		p := s.Programs(allocs)[1]
		avg := testing.AllocsPerRun(200, func() {
			if _, ok := p.NextPhase(); !ok {
				t.Fatalf("%s: program ended early", name)
			}
		})
		if avg != 0 {
			t.Errorf("%s: NextPhase allocates %.2f objects per phase, want 0", name, avg)
		}
	}
}

var progsSink []gpu.WarpProgram

// BenchmarkPrograms builds the 480 warp programs of a bandwidth-bound
// (bwShape) spec: per-warp source seeding and generator set-up, paid by
// every simulation before its first event.
func BenchmarkPrograms(b *testing.B) {
	s := BFS(Train())
	allocs, err := s.Allocate(testRuntime(), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		progsSink = s.Programs(allocs)
	}
}

func TestDatasetByName(t *testing.T) {
	for _, name := range []string{"", "train"} {
		if ds, err := DatasetByName(name); err != nil || ds != Train() {
			t.Errorf("DatasetByName(%q) = %+v, %v; want Train()", name, ds, err)
		}
	}
	for _, v := range Variants() {
		if ds, err := DatasetByName(v.Name); err != nil || ds != v {
			t.Errorf("DatasetByName(%q) = %+v, %v; want %+v", v.Name, ds, err, v)
		}
	}
	_, err := DatasetByName("huge")
	if err == nil || !strings.Contains(err.Error(), "have train small large shifted") {
		t.Errorf("unknown dataset error does not list the options: %v", err)
	}
}
