package workloads

import (
	"math"
	"slices"
	"strings"
	"sync"
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

func TestDatasetValidate(t *testing.T) {
	for _, d := range append([]Dataset{Train(), {}, {WeightShift: 1}}, Variants()...) {
		if err := d.Validate(); err != nil {
			t.Errorf("%+v: %v", d, err)
		}
	}
	for _, d := range []Dataset{
		{SizeScale: -1}, {SizeScale: math.NaN()}, {SizeScale: math.Inf(1)},
		{SkewScale: -5}, {SkewScale: math.NaN()}, {SkewScale: math.Inf(1)},
		{WeightShift: -0.5}, {WeightShift: 1e9}, {WeightShift: math.NaN()},
	} {
		if d.Validate() == nil {
			t.Errorf("%+v accepted", d)
		}
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
// phase, so NextPhase allocates nothing once a recording program has
// taken its window of the record at its first phase. This holds for every
// registered workload in replay mode, and in record mode for all but
// nbody, whose gather model coalesces through gpu.Coalesce and allocates
// per warp instruction.
func TestNextPhaseAllocFree(t *testing.T) {
	for _, name := range AllNames() {
		s := MustBuild(name, Train())
		s.Warps, s.PhasesPerWarp = 2, 250 // enough phases for the measured runs
		allocs, err := s.Allocate(testRuntime(), nil)
		if err != nil {
			t.Fatal(err)
		}
		st := &streamStore{budget: streamBudget}
		for _, mode := range []streamMode{recording, replaying} {
			progs := programs(&s, allocs, st)
			if got := progs[0].(*warpProgram).slab.mode; got != mode {
				t.Fatalf("%s: programs in mode %d, want %d", name, got, mode)
			}
			if mode == replaying || name != "nbody" {
				avg := testing.AllocsPerRun(200, func() {
					if _, ok := progs[1].NextPhase(); !ok {
						t.Fatalf("%s: program ended early", name)
					}
				})
				if avg != 0 {
					t.Errorf("%s: NextPhase in mode %d allocates %.2f objects per phase, want 0", name, mode, avg)
				}
			}
			phaseStream(progs)
			ReleasePrograms(progs)
		}
	}
}

// phaseStream drains progs and returns every access they issue, warp by
// warp.
func phaseStream(progs []gpu.WarpProgram) []gpu.Access {
	var out []gpu.Access
	for _, p := range progs {
		for {
			ph, ok := p.NextPhase()
			if !ok {
				break
			}
			out = append(out, ph.Addrs...)
		}
	}
	return out
}

// freshPrograms builds s's programs the way Programs does, but on a new
// slab, never on one a release handed on, and generating their stream:
// the zero store records nothing and holds nothing to replay.
func freshPrograms(s *Spec, allocs []gpurt.Allocation) []gpu.WarpProgram {
	return newProgramSlab(s.Warps).fill(s, allocs, &streamStore{})
}

// generatedPrograms is Programs over a store that records nothing, so the
// programs generate their stream on a pooled slab whichever specs the
// process has published.
func generatedPrograms(s *Spec, allocs []gpurt.Allocation) []gpu.WarpProgram {
	return programs(s, allocs, &streamStore{})
}

// TestProgramsAllocateRegistersOnFirstDraw: building programs allocates no
// 4.9 kB random-source register, so a caller that builds a system and
// never runs it (hetbench's set-up) pays for none; a warp's first phase
// allocates its own.
func TestProgramsAllocateRegistersOnFirstDraw(t *testing.T) {
	spec := BFS(Train())
	allocs, err := spec.Allocate(testRuntime(), nil)
	if err != nil {
		t.Fatal(err)
	}
	progs := freshPrograms(&spec, allocs)
	for i, p := range progs {
		if p.(*warpProgram).src.vec != nil {
			t.Fatalf("warp %d holds a register before its first draw", i)
		}
	}
	progs[0].NextPhase()
	if progs[0].(*warpProgram).src.vec == nil || progs[1].(*warpProgram).src.vec != nil {
		t.Fatal("a warp's first phase must allocate its register and only its own")
	}
}

// TestProgramsFromReleasedSlab drains and releases one spec's programs,
// then builds another spec's from the released slab: fewer warps, other
// structures, drift switched on or off, more or fewer accesses per phase.
// The first spec's warps draw past the end of on-demand seeding in one
// case and stop short of it in the other. The reused programs must issue
// the stream a new slab does.
func TestProgramsFromReleasedSlab(t *testing.T) {
	bfs, phased, gaussian := BFS(Train()), Phased(Train()), Gaussian(Train())
	phased.Shrink(8)
	gaussian.Shrink(8)
	narrow := Phased(Train())
	narrow.Shrink(8)
	narrow.Warps, narrow.AccessesPerPhase = 200, 12
	for _, c := range []struct{ first, next Spec }{{phased, gaussian}, {bfs, narrow}} {
		first, next := c.first, c.next
		firstAllocs, err := first.Allocate(testRuntime(), nil)
		if err != nil {
			t.Fatal(err)
		}
		nextAllocs, err := next.Allocate(testRuntime(), nil)
		if err != nil {
			t.Fatal(err)
		}
		// sync.Pool may miss a slab put on another P, and under the race
		// detector drops a quarter of them, so retry until one comes back.
		var reused []gpu.WarpProgram
		for try := 0; try < 50 && reused == nil; try++ {
			released := generatedPrograms(&first, firstAllocs)
			phaseStream(released)
			ReleasePrograms(released)
			if reused = generatedPrograms(&next, nextAllocs); reused[0] != released[0] {
				reused = nil
			}
		}
		if reused == nil {
			t.Fatalf("%s after %s: no programs built on a released slab in 50 tries", next.Name, first.Name)
		}
		got := phaseStream(reused)
		if want := phaseStream(freshPrograms(&next, nextAllocs)); !slices.Equal(got, want) {
			t.Fatalf("%s after %s: reused slab issues %d accesses, a new slab %d, or they differ",
				next.Name, first.Name, len(got), len(want))
		}
	}
}

// TestProgramsKeepRegistersOfSmallerSlab drains and releases a spec's
// programs, then builds a spec with more warps: the released slab is too
// small to reuse, so the new slab's first programs take its registers and
// only the extra warps allocate theirs, at their first draw. The programs
// must issue the stream a new slab does.
func TestProgramsKeepRegistersOfSmallerSlab(t *testing.T) {
	small, large := BFS(Train()), BFS(Train())
	small.Shrink(8)
	large.Shrink(8)
	small.Warps = large.Warps / 2
	smallAllocs, err := small.Allocate(testRuntime(), nil)
	if err != nil {
		t.Fatal(err)
	}
	largeAllocs, err := large.Allocate(testRuntime(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// sync.Pool may miss a slab put on another P, and under the race
	// detector drops a quarter of them, so retry until one comes back. A
	// slab left in the pool by another test may also be large enough.
	for try := 0; try < 50; try++ {
		released := generatedPrograms(&small, smallAllocs)
		if len(released[0].(*warpProgram).slab.warps) >= large.Warps {
			continue
		}
		phaseStream(released)
		regs := make([]*[rngLen]uint64, len(released))
		for i, p := range released {
			regs[i] = p.(*warpProgram).src.vec
		}
		ReleasePrograms(released)
		progs := generatedPrograms(&large, largeAllocs)
		if progs[0].(*warpProgram).src.vec != regs[0] {
			continue
		}
		for i, p := range progs {
			vec := p.(*warpProgram).src.vec
			if i < len(regs) && vec != regs[i] {
				t.Fatalf("warp %d of %d did not take the released warp's register", i, len(regs))
			}
			if i >= len(regs) && vec != nil {
				t.Fatalf("extra warp %d holds a register before its first draw", i)
			}
		}
		if got, want := phaseStream(progs), phaseStream(freshPrograms(&large, largeAllocs)); !slices.Equal(got, want) {
			t.Fatalf("programs with taken registers issue %d accesses, a new slab %d, or they differ", len(got), len(want))
		}
		return
	}
	t.Fatal("no larger spec's programs took a released slab's registers in 50 tries")
}

// TestProgramsConcurrentReuse builds, drains and releases programs of four
// specs from four goroutines at once, so slabs pass between goroutines and
// between specs, and compares every stream with a serial build.
func TestProgramsConcurrentReuse(t *testing.T) {
	names := []string{"bfs", "phased", "gaussian", "xsbench"}
	specs := make([]Spec, len(names))
	allocs := make([][]gpurt.Allocation, len(names))
	want := make([][]gpu.Access, len(names))
	for i, name := range names {
		specs[i] = MustBuild(name, Train())
		specs[i].Shrink(16)
		var err error
		if allocs[i], err = specs[i].Allocate(testRuntime(), nil); err != nil {
			t.Fatal(err)
		}
		want[i] = phaseStream(freshPrograms(&specs[i], allocs[i]))
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range 8 {
				i := (g + r) % len(specs)
				progs := generatedPrograms(&specs[i], allocs[i])
				got := phaseStream(progs)
				ReleasePrograms(progs)
				if !slices.Equal(got, want[i]) {
					t.Errorf("goroutine %d, build %d: %s stream differs from the serial build", g, r, names[i])
					return
				}
			}
		}()
	}
	wg.Wait()
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
